"""Deterministic chaos smoke of the fault-injection seams (the CI `chaos` gate).

Runs one small sweep configuration through every robustness path and holds
the results to the golden, fault-free report:

1. Golden: a thread-mode run with no plan installed -- the reference bytes.
2. Kill + resume: a subprocess under ``REPRO_FAULTS=sweep.unit=kill+3`` is
   hard-killed (``os._exit``) after journaling exactly 3 trajectories; a
   resumed run computes only the remaining units and must reproduce the
   golden report byte for byte.
3. Torn writes: ``cache.disk_write=corrupt`` poisons on-disk ``.npz``
   entries; the next run must quarantine them (``*.corrupt`` files, the
   ``disk_corrupt`` counter) and still emit the golden bytes.
4. Transient I/O: ``cache.disk_read`` raise + delay faults must be absorbed
   by the bounded retry policy (``disk_retries`` counter) without touching
   the report.
5. Worker death: a process-mode subprocess under
   ``REPRO_FAULTS=procpool.unit=kill+2`` loses workers mid-sweep; the
   crash-containment / single-unit retry path must recover every unit
   (``unit_crashes`` / ``unit_retries`` counters) and emit the golden bytes.

Every fault decision derives from the fixed plan seed, so this smoke is
exactly reproducible run to run.  Exits non-zero on the first violation.

Usage::

    PYTHONPATH=src python tools/chaos_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)

from repro.engine.engine import ExecutionEngine  # noqa: E402
from repro.faults import FaultRule, inject  # noqa: E402
from repro.harness.runner import SweepConfig, run_model  # noqa: E402
from repro.llm.simulated import SimulatedDesigner  # noqa: E402

#: The shared scenario: small, fast, and exercising two problems so shards,
#: journals and caches all hold more than one unit.
BASE = dict(
    samples_per_problem=3,
    max_feedback_iterations=2,
    num_wavelengths=5,
    problems=("mzi_ps", "nls"),
)

#: Exit code of ``kill``-kind injections (see :class:`repro.faults.FaultRule`).
KILL_EXIT = 73

_KILL_CHILD = """
import sys
sys.path.insert(0, {src!r})
from repro.harness.runner import SweepConfig, run_model
from repro.llm.simulated import SimulatedDesigner

config = SweepConfig(
    samples_per_problem=3, max_feedback_iterations=2, num_wavelengths=5,
    problems=("mzi_ps", "nls"), journal_dir={journal_dir!r}, resume=True,
)
run_model(SimulatedDesigner("GPT-4o"), include_restrictions=False, config=config)
print("UNEXPECTED: the injected kill never fired")
"""

_PROCPOOL_CHILD = """
import json
import sys
sys.path.insert(0, {src!r})
from repro.harness.runner import SweepConfig, run_sweep
from repro.llm.simulated import SimulatedDesigner

config = SweepConfig(
    samples_per_problem=3, max_feedback_iterations=2, num_wavelengths=5,
    problems=("mzi_ps", "nls"), execution_mode="process", processes=1,
)
result = run_sweep(
    config, clients=[SimulatedDesigner("GPT-4o")], restriction_settings=(False,)
)
(report,) = result.reports.values()
print(json.dumps(
    {{"report": report.to_dict(), "procpool": result.engine_stats["procpool"]}},
    sort_keys=True,
))
"""


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def canonical(report) -> str:
    """The byte-identity surface: sorted-key JSON of the report."""
    return json.dumps(report.to_dict(), sort_keys=True)


def run_child(source: str, faults: str) -> subprocess.CompletedProcess:
    """One subprocess under a fixed ``REPRO_FAULTS`` plan."""
    env = dict(os.environ)
    env["REPRO_FAULTS"] = faults
    env["PYTHONPATH"] = SRC
    return subprocess.run(
        [sys.executable, "-c", source], env=env, capture_output=True, text=True
    )


def sweep_report(config: SweepConfig, engine=None):
    """One fresh-client evaluation of the shared scenario."""
    return run_model(
        SimulatedDesigner("GPT-4o"), include_restrictions=False,
        config=config, engine=engine,
    )


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as workdir:
        work = Path(workdir)

        # -- 1. golden reference ---------------------------------------
        golden = canonical(sweep_report(SweepConfig(**BASE)))
        print("ok: golden report computed")

        # -- 2. kill after 3 journaled units, then resume --------------
        journal_dir = work / "journals"
        child = run_child(
            _KILL_CHILD.format(src=SRC, journal_dir=str(journal_dir)),
            faults="seed=7;sweep.unit=kill+3",
        )
        if child.returncode != KILL_EXIT:
            fail(
                f"kill child exited {child.returncode}, wanted {KILL_EXIT}\n"
                f"{child.stdout}{child.stderr}"
            )
        journals = list(journal_dir.glob("sweep-*.jsonl"))
        if len(journals) != 1:
            fail(f"expected one journal after the kill, found {journals!r}")
        lines = journals[0].read_text(encoding="utf-8").splitlines()
        if len(lines) != 3:
            fail(f"journal holds {len(lines)} units after kill+3, wanted 3")
        resumed = canonical(
            sweep_report(
                SweepConfig(**BASE, journal_dir=str(journal_dir), resume=True)
            )
        )
        if resumed != golden:
            fail("resumed report is not byte-identical to the golden run")
        total = len(BASE["problems"]) * BASE["samples_per_problem"]
        lines = journals[0].read_text(encoding="utf-8").splitlines()
        if len(lines) != total:
            fail(f"journal holds {len(lines)} units after resume, wanted {total}")
        print(
            "ok: kill at unit 3 -> resume computed the remaining "
            f"{total - 3}, report byte-identical"
        )

        # -- 3. torn disk writes are quarantined -----------------------
        cache_dir = work / "simcache"
        cached = SweepConfig(**BASE, cache_dir=str(cache_dir))
        with inject(
            FaultRule("cache.disk_write", kind="corrupt", max_triggers=2), seed=7
        ):
            torn = canonical(
                sweep_report(cached, engine=ExecutionEngine(cached.engine_config()))
            )
        if torn != golden:
            fail("run under torn-write injection diverged from the golden report")
        reader = ExecutionEngine(cached.engine_config())
        if canonical(sweep_report(cached, engine=reader)) != golden:
            fail("run over a corrupted cache diverged from the golden report")
        corrupt = reader.stats()["simulation_cache"]["disk_corrupt"]
        quarantined = list(cache_dir.rglob("*.corrupt"))
        if corrupt < 1 or not quarantined:
            fail(
                f"corrupted entries were not quarantined "
                f"(disk_corrupt={corrupt}, files={quarantined!r})"
            )
        print(
            f"ok: {corrupt} torn entries quarantined "
            f"({len(quarantined)} *.corrupt files), report byte-identical"
        )

        # -- 4. transient disk reads are retried -----------------------
        with inject(
            FaultRule("cache.disk_read", kind="raise", max_triggers=3),
            FaultRule("cache.disk_read", kind="delay", delay=0.01, max_triggers=5),
            seed=7,
        ) as plan:
            flaky = ExecutionEngine(cached.engine_config())
            if canonical(sweep_report(cached, engine=flaky)) != golden:
                fail("run under flaky-read injection diverged from the golden report")
            triggers = plan.stats()["cache.disk_read"]["triggers"]
        retries = flaky.stats()["simulation_cache"]["disk_retries"]
        if triggers < 3 or retries < 1:
            fail(f"flaky reads did not exercise retry (triggers={triggers}, retries={retries})")
        print(
            f"ok: {triggers} injected read faults absorbed "
            f"({retries} disk retries), report byte-identical"
        )

        # -- 5. process-mode worker death is contained -----------------
        child = run_child(
            _PROCPOOL_CHILD.format(src=SRC), faults="seed=7;procpool.unit=kill+2"
        )
        if child.returncode != 0:
            fail(
                f"procpool child exited {child.returncode}\n"
                f"{child.stdout}{child.stderr}"
            )
        payload = json.loads(child.stdout.strip().splitlines()[-1])
        if json.dumps(payload["report"], sort_keys=True) != golden:
            fail("process-mode run under worker kills diverged from the golden report")
        counters = payload["procpool"]
        if counters.get("unit_crashes", 0) < 1:
            fail(f"worker kills were not observed: {counters!r}")
        print(
            "ok: worker deaths contained "
            f"(crashes={counters['unit_crashes']}, retries={counters['unit_retries']}), "
            "report byte-identical"
        )

    print("chaos smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
