"""Command-line interface of the experiment harness.

Examples
--------
Regenerate the static tables and figures::

    python -m repro.harness table1
    python -m repro.harness table2
    python -m repro.harness fig2
    python -m repro.harness fig3
    python -m repro.harness fig4

Run the evaluation sweeps (Tables III and IV)::

    python -m repro.harness table3 --samples 5 --wavelengths 41
    python -m repro.harness table4 --samples 5 --wavelengths 41
    python -m repro.harness sweep --output results.json

Work with problem packs::

    python -m repro.harness --list-packs
    python -m repro.harness table1 --pack wdm-links
    python -m repro.harness sweep --pack wdm-links --pack-param "channels=[2, 4]"

Run the evaluation service (forwarded to :mod:`repro.service.cli`)::

    python -m repro.harness serve --db results.db --port 7341
    python -m repro.harness jobs --port 7341 submit --pack core --wait
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .ablation import restriction_ablation_text, run_restriction_ablation
from .figures import figure2_text, figure3_text, figure4_text
from .runner import SweepConfig, run_sweep
from .tables import (
    error_breakdown_text,
    packs_text,
    table1_text,
    table2_text,
    table3_text,
    table4_text,
)

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Build the harness argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the PICBench paper's tables and figures.",
    )
    parser.add_argument(
        "target",
        nargs="?",
        choices=[
            "table1",
            "table2",
            "table3",
            "table4",
            "sweep",
            "errors",
            "ablate",
            "fig2",
            "fig3",
            "fig4",
        ],
        help="which artefact to regenerate (optional with --list-packs)",
    )
    parser.add_argument(
        "--model",
        type=str,
        default="GPT-4o",
        help="designer profile used by the 'ablate' target",
    )
    parser.add_argument("--output", type=str, default=None, help="write sweep results to this JSON file")
    parser.add_argument(
        "--list-packs",
        action="store_true",
        help="list the registered problem packs and exit",
    )
    SweepConfig.add_flags(parser)
    return parser


def _sweep_config(args: argparse.Namespace) -> SweepConfig:
    """Translate parsed CLI arguments into a :class:`SweepConfig`."""
    return SweepConfig.from_args(args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro.harness``."""
    argv = list(argv) if argv is not None else sys.argv[1:]
    if argv and argv[0] in ("serve", "jobs"):
        # Service verbs forward to the evaluation-service CLI, so the
        # harness front door covers both one-shot sweeps and the daemon:
        # ``python -m repro.harness serve ...`` / ``... jobs submit ...``.
        from ..service.cli import main as service_main

        return service_main(argv)
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_packs:
        print(packs_text())
        return 0
    if args.target is None:
        parser.error("a target is required (or pass --list-packs)")
    try:
        config = _sweep_config(args)
    except ValueError as error:
        parser.error(str(error))

    if args.target == "table1":
        print(table1_text(config.pack, config.pack_params))
        return 0
    if args.target == "table2":
        print(table2_text())
        return 0
    if args.target == "fig2":
        print(figure2_text())
        return 0
    if args.target == "fig3":
        print(figure3_text())
        return 0
    if args.target == "fig4":
        print(figure4_text(num_wavelengths=config.num_wavelengths))
        return 0

    if args.target == "ablate":
        from ..llm.simulated import SimulatedDesigner

        result = run_restriction_ablation(SimulatedDesigner(args.model), config=config)
        print(restriction_ablation_text(result))
        return 0
    if args.target == "table3":
        sweep = run_sweep(config, restriction_settings=(False,))
        print(table3_text(sweep))
    elif args.target == "table4":
        sweep = run_sweep(config, restriction_settings=(True,))
        print(table4_text(sweep))
    elif args.target == "errors":
        sweep = run_sweep(config)
        print(error_breakdown_text(sweep))
    else:  # sweep
        sweep = run_sweep(config)
        print(table3_text(sweep))
        print()
        print(table4_text(sweep))
        print()
        print(error_breakdown_text(sweep))
    if args.output:
        sweep.save(args.output)
        print(f"\nsweep results written to {args.output}", file=sys.stderr)
    return 0
