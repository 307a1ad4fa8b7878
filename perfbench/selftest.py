"""Self-tests of the benchmark: tiny runs of every workload.

    python3 -m pytest perfbench/selftest.py -q

Each workload runs at ``--size tiny`` for one second, untraced and traced:
the run completes, prints every metric of ``BENCHMARK.json`` with its unit,
and passes its output check.  Deterministic counts repeat exactly across two
traced runs, and the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]

#: A layer every traced run of the workload must have called.
BUSY_LAYER = {
    "sweep-core": "llm.designer_complete",
    "sweep-core-proc2": "engine.procpool_map",
    "yield-mc": "sim.solver_evaluate_batch",
    "service-evaluate": "service.store_save_run",
}


def run(workload: str, trace: int, *, root: Path = HERE.parent, seed: int = 0):
    """One tiny run; returns (exit code, human lines, parsed last line or None)."""
    done = subprocess.run(
        [
            sys.executable, str(root / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--size", "tiny",
        ],
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, lines[:-1], result


def units(section: str):
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    code, lines, result = run(workload, 0)
    assert code == 0 and result is not None
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any("checks: passed" in line for line in lines)
    assert any(line.strip().startswith("environment = ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    code, lines, result = run(workload, 1)
    assert code == 0 and result is not None and result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units("per_layer")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values[f"{BUSY_LAYER[workload]}.calls"] > 0
    assert values["trace.round_s_traced"] > 0 and values["trace.round_s_untraced"] > 0
    assert any("tracing overhead" in line for line in lines)


def test_traced_counts_repeat_exactly():
    first = run("sweep-core", 1)[2]["metrics"]
    second = run("sweep-core", 1)[2]["metrics"]
    counts = [
        name for name in first
        if name.endswith(".calls")
        or name in ("evalkit.attempts", "evalkit.attempts_per_trajectory",
                    "engine.sim_cache.lookups", "engine.sim_cache.hit_rate")
    ]
    assert first["evalkit.attempts"]["value"] > 0
    assert {name: first[name] for name in counts} == {name: second[name] for name in counts}


def _copy_benchmark(target: Path) -> None:
    shutil.copy(HERE.parent / "BENCHMARK.json", target / "BENCHMARK.json")
    shutil.copytree(HERE, target / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))


def test_refuses_to_run_without_the_program(tmp_path):
    _copy_benchmark(tmp_path)
    code, _, result = run("sweep-core", 0, root=tmp_path)
    assert code != 0 and result is None


def test_reference_mismatch_fails_every_operation(tmp_path):
    _copy_benchmark(tmp_path)
    shutil.copytree(HERE.parent / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    reference_path = tmp_path / "perfbench" / "reference.json"
    reference = json.loads(reference_path.read_text(encoding="utf-8"))
    reference["digests"]["tiny"]["sweep-core"] = "0" * 16
    reference_path.write_text(json.dumps(reference), encoding="utf-8")
    code, _, result = run("sweep-core", 0, root=tmp_path)
    assert code == 0 and result is not None
    assert not result["correct"] and result["failed"] == result["attempted"]
