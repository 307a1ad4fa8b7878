#!/usr/bin/env python
"""Time the circuit-solver backends and append to a JSON benchmark trajectory.

Runs the solver-scaling problems (the same set as
``benchmarks/bench_ablation_solver_scaling.py``) through

* the ``dense`` backend,
* the retained **PR 3 per-port cascade reference**
  (:func:`repro.sim.cascade.cascade_solve`, which recomputes masks,
  adjacency and plan on every call -- the cold path the compiled-plan
  architecture replaces),
* the compiled level-batched cascade with a **cold** plan cache (compile +
  execute on every call) and a **warm** one (the repeated-evaluation hot
  path),
* **batched versus looped settings-sample evaluation**: ``--batch-samples``
  settings variants of each problem evaluated as one fused
  ``evaluate_batch`` call versus the per-sample ``evaluate`` loop (both
  warm, both settings-mutating -- the pass@k / Monte-Carlo workload shape),
* **thread-mode versus process-sharded sweep execution**: one small sweep
  per registered pack timed on the sequential thread tier and sharded
  across ``--processes`` worker processes, with the byte-identity of the
  two reports asserted (``--assert-process-speedup`` gates the speedup on
  multi-core CI hosts),

records best-of-N wall times, the compile-versus-execute split, plan-cache
hit rates, the plan structure (feedback clusters, levels, column groups) and
the max absolute dense/cascade *and* batched/looped deviations over *every*
registered pack problem, and appends everything as one run to a JSON
trajectory file (``BENCH_solver.json`` at the repository root by default) so
the perf history is versioned alongside the code.

Examples
--------
Full committed run (161-point grid, the paper's evaluation band)::

    python tools/bench_to_json.py

CI perf smoke (small grid, subset, non-zero exit on regression)::

    python tools/bench_to_json.py --wavelengths 41 --repeats 1 \\
        --problems mzi_ps benes_8x8 spanke_8x8 \\
        --output /tmp/bench_solver.json --assert-speedup spanke_8x8=1.0 \\
        --assert-warm-speedup spanke_8x8=1.0 \\
        --assert-batch-speedup spanke_8x8=1.0
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402  (after the path insert, like the other tools)

from repro.bench import get_problem  # noqa: E402
from repro.bench.packs import get_pack, pack_names  # noqa: E402
from repro.constants import default_wavelength_grid  # noqa: E402
from repro.engine.procpool import resolve_processes  # noqa: E402
from repro.harness.runner import SweepConfig, run_sweep  # noqa: E402
from repro.netlist.validation import validate_netlist  # noqa: E402
from repro.sim import CircuitSolver, apply_settings  # noqa: E402
from repro.sim.cascade import cascade_solve  # noqa: E402

#: Problems timed by default (mirrors benchmarks/bench_ablation_solver_scaling.py).
DEFAULT_PROBLEMS = (
    "mzi_ps",
    "optical_hybrid",
    "clements_4x4",
    "clements_8x8",
    "benes_8x8",
    "crossbar_8x8",
    "spanke_8x8",
)


def _best_of(fn, repeats: int) -> Dict[str, object]:
    """Best-of-``repeats`` wall time of ``fn``."""
    runs: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - start)
    return {"best_s": min(runs), "mean_s": sum(runs) / len(runs), "runs_s": runs}


def _settings_perturbations(netlist, count, salt=0):
    """Settings overrides modelling a process-corner sample stack.

    Per sample, a global fabrication-corner scale factor (deterministic in
    ``(sample, salt)``) is applied to every instance's float settings --
    the classic slow/fast process-corner shape, and the shape of pass@k
    candidate drafts that retune a design parameter throughout (zeros stay
    zero, so structural masks -- and therefore the compiled plan -- are
    shared by all samples).  Devices without numeric settings get the
    corner applied to an ``extinction_db`` / ``loss_db``-style knob their
    model accepts.  A fresh ``salt`` yields entirely fresh draws: corner
    samples never repeat, so timings must not be served by warm per-variant
    instance-cache entries.
    """
    from repro.sim import default_registry

    registry = default_registry()
    batch = []
    for sample in range(count):
        factor = 1.0 - 1e-6 * (1.0 + (sample * 131 + salt * 7919) % 1000)
        overrides = {}
        # One shared dict per distinct perturbation content: instances of
        # the same device type share the override object, which the
        # solver's id-keyed fingerprint memo turns into one serialisation.
        shared: Dict[tuple, Dict[str, float]] = {}
        for name, inst in netlist.instances.items():
            perturbed = {
                key: value * factor
                for key, value in inst.settings.items()
                if isinstance(value, float) and not isinstance(value, bool)
            }
            if not perturbed:
                # Settings-free instances (switch fabrics): perturb a knob
                # their model accepts so the sample is a real variant.
                ref = netlist.models.get(inst.component, inst.component)
                if ref in registry:
                    parameters = registry.get(ref).parameters
                    for knob in ("extinction_db", "loss_db"):
                        if knob in parameters:
                            perturbed[knob] = float(parameters[knob]) * factor
                            break
            if perturbed:
                content = tuple(sorted(perturbed.items()))
                overrides[name] = shared.setdefault(content, perturbed)
        batch.append(overrides)
    return batch


def _time_settings_batch(solver, netlist, wavelengths, batch_samples, repeats):
    """Batched-vs-looped timing of one problem's settings-sample stack.

    Models the Monte-Carlo / pass@k workload faithfully: every timed
    repetition evaluates a *fresh* stack of draws (real sample settings
    never repeat, so per-variant instance-cache warmth would be fiction),
    while the structure work stays warm (the plan cache serves the shared
    topology, exactly as in a real sweep).  ``looped`` is the pre-batching
    pipeline -- build each sample's derived netlist and evaluate it --
    and ``batched`` is one ``evaluate_batch`` call over the same draws.
    """
    # Correctness first: batched must match the per-sample loop exactly.
    check = _settings_perturbations(netlist, batch_samples, salt=0)
    looped_results = [
        solver.evaluate(apply_settings(netlist, overrides), wavelengths)
        for overrides in check
    ]
    batched_results = solver.evaluate_batch(netlist, check, wavelengths)
    max_abs_diff = max(
        float(np.max(np.abs(a.data - b.data))) if a.data.size else 0.0
        for a, b in zip(batched_results, looped_results)
    )

    salt_counter = {"next": 1}

    def fresh_batch():
        """A never-seen-before stack of draws (new salt per invocation)."""
        salt = salt_counter["next"]
        salt_counter["next"] += 1
        return _settings_perturbations(netlist, batch_samples, salt=salt)

    looped = _best_of(
        lambda: [
            solver.evaluate(apply_settings(netlist, overrides), wavelengths)
            for overrides in fresh_batch()
        ],
        repeats,
    )
    batched = _best_of(
        lambda: solver.evaluate_batch(netlist, fresh_batch(), wavelengths), repeats
    )
    return {
        "batch_samples": batch_samples,
        "max_abs_diff_vs_looped": max_abs_diff,
        "looped": looped,
        "batched": batched,
        "batched_speedup_vs_looped": looped["best_s"] / max(batched["best_s"], 1e-12),
    }


#: Small per-pack sweep shapes of the thread-vs-process execution timing
#: (subsets / shrunk parameters keep one sweep to a few seconds).
SWEEP_TIMING_CASES = {
    "core": dict(
        problems=(
            "clements_4x4",
            "reck_4x4",
            "nls",
            "direct_modulator",
            "wdm_mux",
            "mzi_ps",
        )
    ),
    "variability": dict(pack_params={"corners": 2}),
    "wdm-links": dict(pack_params={"channels": (2, 4)}),
}


def _sweep_execution_benchmark(processes: int, repeats: int) -> Dict[str, object]:
    """Thread-mode vs process-mode all-pack sweep timing.

    Runs the same small sweep over every registered pack once on the thread
    tier (``workers=1``, the sequential baseline) and once sharded across
    ``processes`` worker processes, recording wall times, the speedup, and a
    byte-identity check of the two reports.  The process column includes the
    full fixed overhead (pool start-up, per-worker context rebuild), which
    is exactly what a user pays; expect speedups only on multi-core hosts
    and sweeps that amortise that overhead.
    """
    resolved = resolve_processes(processes)
    packs: List[Dict[str, object]] = []
    thread_total = 0.0
    process_total = 0.0
    identical_everywhere = True
    for pack_name in pack_names():
        case = SWEEP_TIMING_CASES.get(pack_name, {})

        def build_config(**overrides):
            return SweepConfig(
                samples_per_problem=2,
                max_feedback_iterations=1,
                num_wavelengths=11,
                pack=pack_name,
                **case,
                **overrides,
            )

        def run_thread():
            return run_sweep(build_config(), restriction_settings=(False, True))

        def run_process():
            return run_sweep(
                build_config(execution_mode="process", processes=resolved),
                restriction_settings=(False, True),
            )

        thread_result = run_thread()
        process_result = run_process()
        identical = json.dumps(thread_result.to_dict(), sort_keys=True) == json.dumps(
            process_result.to_dict(), sort_keys=True
        )
        identical_everywhere = identical_everywhere and identical
        thread_timing = _best_of(run_thread, repeats)
        process_timing = _best_of(run_process, repeats)
        thread_total += thread_timing["best_s"]
        process_total += process_timing["best_s"]
        packs.append(
            {
                "pack": pack_name,
                "byte_identical": identical,
                "thread": thread_timing,
                "process": process_timing,
                "process_speedup_vs_thread": thread_timing["best_s"]
                / max(process_timing["best_s"], 1e-12),
            }
        )
        print(
            f"sweep[{pack_name}]: thread={thread_timing['best_s']:.3f}s "
            f"process({resolved})={process_timing['best_s']:.3f}s "
            f"speedup={packs[-1]['process_speedup_vs_thread']:.2f}x "
            f"identical={identical}",
            file=sys.stderr,
        )
    return {
        "processes": resolved,
        "cpu_count": os.cpu_count(),
        "byte_identical": identical_everywhere,
        "thread_total_best_s": thread_total,
        "process_total_best_s": process_total,
        "process_speedup_vs_thread": thread_total / max(process_total, 1e-12),
        "packs": packs,
    }


def _pr3_reference_evaluate(solver, netlist, wavelengths, compiled, matrices):
    """One evaluation along the PR 3 cold path.

    Re-runs what PR 3's ``evaluate`` did on every call: structural
    validation plus the per-port cascade, which internally recomputes the
    structural masks, the dependency adjacency and the condensation.  The
    flattened-assembly bookkeeping (spans/owner/partner) is *reused* from
    the compiled plan, which slightly under-counts the PR 3 cost -- i.e.
    the reported warm-plan speedups are conservative.
    """
    validate_netlist(netlist, solver.registry, None)
    return cascade_solve(
        matrices,
        list(compiled.spans),
        compiled.owner,
        compiled.partner,
        compiled.injection_ports,
        wavelengths.size,
    )


def _equivalence_sweep(num_wavelengths: int) -> Dict[str, object]:
    """Max backend and batched/looped deviations over every registered pack problem.

    Checks two invariants per problem: |dense - compiled cascade| on the
    golden netlist, and |batched - per-sample loop| over a small perturbed
    settings batch (the batched-executor acceptance criterion).
    """
    wavelengths = default_wavelength_grid(num_wavelengths)
    solver = CircuitSolver()
    worst = 0.0
    worst_problem = None
    batch_worst = 0.0
    batch_worst_problem = None
    checked = 0
    for pack_name in pack_names():
        for problem in get_pack(pack_name).build_problems():
            netlist = problem.golden_netlist()
            dense = solver.evaluate(netlist, wavelengths, backend="dense")
            cascade = solver.evaluate(netlist, wavelengths, backend="cascade")
            diff = (
                float(np.max(np.abs(dense.data - cascade.data)))
                if dense.data.size
                else 0.0
            )
            batch = _settings_perturbations(netlist, 3)
            batched = solver.evaluate_batch(netlist, batch, wavelengths)
            batch_diff = 0.0
            for overrides, result in zip(batch, batched):
                loop = solver.evaluate(apply_settings(netlist, overrides), wavelengths)
                if result.data.size:
                    batch_diff = max(
                        batch_diff, float(np.max(np.abs(result.data - loop.data)))
                    )
            checked += 1
            if diff > worst:
                worst, worst_problem = diff, f"{pack_name}:{problem.name}"
            if batch_diff > batch_worst:
                batch_worst = batch_diff
                batch_worst_problem = f"{pack_name}:{problem.name}"
    return {
        "problems_checked": checked,
        "max_abs_diff": worst,
        "worst_problem": worst_problem,
        "batched_vs_looped_max_abs_diff": batch_worst,
        "batched_vs_looped_worst_problem": batch_worst_problem,
    }


def run_benchmark(
    problems: Sequence[str],
    num_wavelengths: int,
    repeats: int,
    batch_samples: int,
    processes: int = 0,
) -> Dict[str, object]:
    """Time every scenario on every problem and assemble one trajectory run."""
    wavelengths = default_wavelength_grid(num_wavelengths)
    solver = CircuitSolver(instance_cache_entries=8192)
    results: List[Dict[str, object]] = []
    for name in problems:
        netlist = get_problem(name).golden_netlist()
        plan = solver.cascade_plan(netlist, wavelengths)
        compiled = solver.compile(netlist, wavelengths)
        # Instance matrices for the PR 3 reference (evaluated via the
        # registry so the reference path is independent of solver caches).
        matrices = []
        for inst in netlist.instances.values():
            ref = netlist.models.get(inst.component, inst.component)
            matrices.append(
                solver.registry.get(ref).evaluate(wavelengths, **inst.settings).data
            )

        # Warm every cache tier, then verify the backends agree.
        reference = solver.evaluate(netlist, wavelengths, backend="dense")
        cascade_result = solver.evaluate(netlist, wavelengths, backend="cascade")
        max_abs_diff = float(np.max(np.abs(reference.data - cascade_result.data)))

        timings = {
            "dense": _best_of(
                lambda: solver.evaluate(netlist, wavelengths, backend="dense"), repeats
            ),
            "cascade_pr3_reference": _best_of(
                lambda: _pr3_reference_evaluate(
                    solver, netlist, wavelengths, compiled, matrices
                ),
                repeats,
            ),
            "cascade_warm_plan": _best_of(
                lambda: solver.evaluate(netlist, wavelengths, backend="cascade"),
                repeats,
            ),
        }

        def cold_evaluate():
            solver.clear_plan_cache()
            solver.evaluate(netlist, wavelengths, backend="cascade")

        timings["cascade_cold_plan"] = _best_of(cold_evaluate, repeats)

        def cold_compile():
            solver.clear_plan_cache()
            solver.compile(netlist, wavelengths)

        compile_timing = _best_of(cold_compile, repeats)
        solver.evaluate(netlist, wavelengths, backend="cascade")  # re-warm

        settings_batch = _time_settings_batch(
            solver, netlist, wavelengths, batch_samples, repeats
        )

        warm = timings["cascade_warm_plan"]["best_s"]
        entry = {
            "problem": name,
            "num_instances": netlist.num_instances(),
            "num_ports": plan.num_ports,
            "num_feedback_clusters": len(plan.feedback),
            "largest_feedback_cluster": plan.largest_feedback_cluster,
            "num_levels": compiled.num_levels,
            "num_column_groups": compiled.num_column_groups,
            "active_cells": compiled.active_cells,
            "total_cells": compiled.num_ports * compiled.num_external,
            "max_abs_diff": max_abs_diff,
            "backends": timings,
            "compile_vs_execute": {
                "compile_s": compile_timing["best_s"],
                "warm_execute_s": warm,
                "compile_fraction_of_cold": compile_timing["best_s"]
                / max(timings["cascade_cold_plan"]["best_s"], 1e-12),
            },
            "speedup_cascade_over_dense": timings["dense"]["best_s"] / warm,
            "warm_plan_speedup_vs_pr3_cold": timings["cascade_pr3_reference"]["best_s"]
            / warm,
            "warm_plan_speedup_vs_cold_plan": timings["cascade_cold_plan"]["best_s"]
            / warm,
            "settings_batch": settings_batch,
            "batched_settings_speedup_vs_looped": settings_batch[
                "batched_speedup_vs_looped"
            ],
        }
        results.append(entry)
        print(
            f"{name}: dense={timings['dense']['best_s']:.4f}s "
            f"pr3={timings['cascade_pr3_reference']['best_s']:.4f}s "
            f"cold={timings['cascade_cold_plan']['best_s']:.4f}s "
            f"warm={warm:.4f}s "
            f"warm-vs-pr3={entry['warm_plan_speedup_vs_pr3_cold']:.1f}x "
            f"batched-vs-looped={entry['batched_settings_speedup_vs_looped']:.1f}x "
            f"diff={max_abs_diff:.1e}",
            file=sys.stderr,
        )

    plan_stats = solver.plan_cache_stats()
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": {
            "num_wavelengths": num_wavelengths,
            "repeats": repeats,
            "batch_samples": batch_samples,
            "timing": "best of repeats; per-device instance cache warm; "
            "'warm' keeps the compiled-plan cache, 'cold' clears it per run; "
            "'cascade_pr3_reference' is the retained per-port PR 3 path; "
            "'settings_batch' times one fused evaluate_batch call vs the "
            "per-sample evaluate loop over the same settings-mutating stack",
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "plan_cache": plan_stats.as_dict(),
        "plan_cache_hit_rate": plan_stats.hit_rate,
        "batch_stats": solver.batch_stats().as_dict(),
        "equivalence": _equivalence_sweep(num_wavelengths),
        "sweep_execution": _sweep_execution_benchmark(processes, repeats),
        "results": results,
    }


def merge_trajectory(output: Path, run: Dict[str, object], fresh: bool) -> Dict[str, object]:
    """Append ``run`` to the trajectory in ``output`` (create or migrate it).

    A pre-trajectory single-snapshot file (the PR 3 format, recognised by a
    top-level ``results`` key) becomes the first run of the trajectory, so
    ``BENCH_*.json`` files grow a history instead of being overwritten.
    """
    runs: List[Dict[str, object]] = []
    if not fresh and output.exists():
        try:
            existing = json.loads(output.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            existing = None
        if isinstance(existing, dict):
            if isinstance(existing.get("runs"), list):
                runs = existing["runs"]
            elif "results" in existing:
                runs = [existing]  # legacy single snapshot
    runs.append(run)
    return {
        "benchmark": "solver-backends",
        "schema": "trajectory-v1",
        "generated_by": "tools/bench_to_json.py",
        "runs": runs,
    }


def _parse_assertions(raw: Optional[Sequence[str]], flag: str) -> Dict[str, float]:
    """Parse repeated ``PROBLEM=FACTOR`` assertion flags."""
    assertions: Dict[str, float] = {}
    for item in raw or ():
        name, separator, factor = item.partition("=")
        if not separator or not name:
            raise SystemExit(f"{flag} must look like PROBLEM=FACTOR, got {item!r}")
        try:
            assertions[name] = float(factor)
        except ValueError:
            raise SystemExit(
                f"{flag} factor must be a number, got {factor!r} in {item!r}"
            ) from None
    return assertions


def _check_assertions(
    by_problem: Dict[str, Dict[str, object]],
    assertions: Dict[str, float],
    metric: str,
    label: str,
    failures: List[str],
) -> None:
    """Collect failures of one assertion family."""
    for name, factor in assertions.items():
        entry = by_problem.get(name)
        if entry is None:
            failures.append(f"{name}: not benchmarked")
            continue
        value = entry[metric]
        if value < factor:
            failures.append(f"{name}: {label} {value:.2f}x < required {factor:.2f}x")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python tools/bench_to_json.py``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_solver.json",
        help="JSON trajectory file to append to (default: BENCH_solver.json)",
    )
    parser.add_argument(
        "--problems",
        nargs="*",
        default=list(DEFAULT_PROBLEMS),
        help="problem names to time (default: the solver-scaling set)",
    )
    parser.add_argument(
        "--wavelengths",
        type=int,
        default=161,
        help="wavelength-grid points (default: the 161-point evaluation grid)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timed repetitions per scenario (best-of)"
    )
    parser.add_argument(
        "--batch-samples",
        type=int,
        default=64,
        help="settings samples of the batched-vs-looped timing (default: 64, "
        "a typical Monte-Carlo draw count)",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=0,
        metavar="N",
        help="worker-process count of the thread-vs-process sweep timing "
        "(default 0 = one per core)",
    )
    parser.add_argument(
        "--fresh",
        action="store_true",
        help="start a new trajectory instead of appending to an existing file",
    )
    parser.add_argument(
        "--assert-speedup",
        action="append",
        default=None,
        metavar="PROBLEM=FACTOR",
        help="exit non-zero unless the warm compiled cascade is at least "
        "FACTOR times faster than dense on PROBLEM (repeatable)",
    )
    parser.add_argument(
        "--assert-warm-speedup",
        action="append",
        default=None,
        metavar="PROBLEM=FACTOR",
        help="exit non-zero unless warm-plan repeated evaluation is at least "
        "FACTOR times faster than the cold (compile-every-call) path on "
        "PROBLEM (repeatable; 1.0 = 'no slower')",
    )
    parser.add_argument(
        "--assert-batch-speedup",
        action="append",
        default=None,
        metavar="PROBLEM=FACTOR",
        help="exit non-zero unless one fused evaluate_batch call is at least "
        "FACTOR times faster than the per-sample evaluate loop on PROBLEM "
        "(repeatable; 1.0 = 'no slower')",
    )
    parser.add_argument(
        "--assert-process-speedup",
        type=float,
        default=None,
        metavar="FACTOR",
        help="exit non-zero unless the process-sharded all-pack sweep is at "
        "least FACTOR times faster than the thread-mode baseline (meaningful "
        "on multi-core hosts only; byte-identity of the two reports is "
        "always asserted)",
    )
    args = parser.parse_args(argv)
    # Validate flags that would otherwise only fail after minutes of timing.
    speedup_assertions = _parse_assertions(args.assert_speedup, "--assert-speedup")
    warm_assertions = _parse_assertions(args.assert_warm_speedup, "--assert-warm-speedup")
    batch_assertions = _parse_assertions(args.assert_batch_speedup, "--assert-batch-speedup")
    if args.repeats < 1:
        raise SystemExit(f"--repeats must be >= 1, got {args.repeats}")
    if args.batch_samples < 1:
        raise SystemExit(f"--batch-samples must be >= 1, got {args.batch_samples}")

    run = run_benchmark(
        args.problems, args.wavelengths, args.repeats, args.batch_samples, args.processes
    )
    payload = merge_trajectory(args.output, run, args.fresh)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(
        f"wrote {args.output} ({len(payload['runs'])} run(s) in trajectory)",
        file=sys.stderr,
    )

    failures: List[str] = []
    by_problem = {entry["problem"]: entry for entry in run["results"]}
    _check_assertions(
        by_problem, speedup_assertions, "speedup_cascade_over_dense", "cascade speedup", failures
    )
    _check_assertions(
        by_problem,
        warm_assertions,
        "warm_plan_speedup_vs_cold_plan",
        "warm-plan speedup",
        failures,
    )
    _check_assertions(
        by_problem,
        batch_assertions,
        "batched_settings_speedup_vs_looped",
        "batched-settings speedup",
        failures,
    )
    sweep_execution = run["sweep_execution"]
    if not sweep_execution["byte_identical"]:
        failures.append("process-sharded sweep reports are not byte-identical")
    if args.assert_process_speedup is not None:
        speedup = sweep_execution["process_speedup_vs_thread"]
        if speedup < args.assert_process_speedup:
            failures.append(
                f"process sweep speedup {speedup:.2f}x < required "
                f"{args.assert_process_speedup:.2f}x "
                f"({sweep_execution['processes']} processes, "
                f"{sweep_execution['cpu_count']} cores)"
            )
    if failures:
        print("speedup assertions FAILED:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
