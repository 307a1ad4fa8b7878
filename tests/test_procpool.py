"""Tests of process-sharded sweep execution.

Covers the generic :class:`~repro.engine.procpool.ProcessScheduler` (order
preservation, caller-given shard bounds, failure isolation, worker-crash
containment, stats merging) and the harness integration: shards hold whole
problems, costliest first, and process-sharded sweeps must be byte-identical
to sequential ones across every registered problem pack, with the sequential
cache counts.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench.packs import pack_names
from repro.engine.engine import ExecutionEngine
from repro.engine.procpool import (
    ProcessScheduler,
    UnitFailure,
    WorkerSpec,
    aggregate_engine_stats,
    resolve_processes,
)
from repro.faults import FaultRule, RetryPolicy, clear_plan, inject
from repro.harness.runner import SweepConfig, _problem_shards, run_model, run_sweep
from repro.llm.profiles import DEFAULT_PROFILES
from repro.llm.simulated import SimulatedDesigner

#: Mirrors ``tests/conftest.TEST_NUM_WAVELENGTHS`` (not importable by module
#: name here: ``benchmarks/conftest.py`` shadows it in full-repo runs).
TEST_NUM_WAVELENGTHS = 11

#: Small per-pack sweep configurations (problem subsets / shrunk parameters)
#: keeping the differential runs fast while touching every pack's machinery.
PACK_CASES = {
    "core": dict(problems=("clements_4x4", "nls", "direct_modulator")),
    "variability": dict(pack_params={"corners": 1}),
    "wdm-links": dict(pack_params={"channels": (2,)}),
}


def _sweep_config(pack: str, **overrides) -> SweepConfig:
    kwargs = dict(
        samples_per_problem=2,
        max_feedback_iterations=1,
        num_wavelengths=TEST_NUM_WAVELENGTHS,
        pack=pack,
        **PACK_CASES[pack],
    )
    kwargs.update(overrides)
    return SweepConfig(**kwargs)


def _canonical(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# Generic scheduler: worker-side helpers (module level, importable by ref)
# ----------------------------------------------------------------------
def _build_offset_context(payload):
    return {"offset": payload["offset"]}


def _square_task(context, task):
    return context["offset"] + task * task


def _flaky_task(context, task):
    if task == "boom":
        raise ValueError("poisoned unit")
    return task


def _crashing_task(context, task):
    if task == "die":
        os._exit(17)  # hard worker death: not an exception, a crash
    return task * 10


def _context_stats(context):
    return {"built": 1, "offset": context["offset"]}


def _counting_task(context, task):
    context["runs"] = context.get("runs", 0) + 1
    return task


def _run_count_stats(context):
    return {"runs": context.get("runs", 0), "offset": context["offset"]}


OFFSET_SPEC = WorkerSpec(
    builder_ref="test_procpool:_build_offset_context", payload={"offset": 100}
)


def test_scheduler_preserves_task_order():
    scheduler = ProcessScheduler(OFFSET_SPEC, processes=2)
    tasks = list(range(17))
    results, stats = scheduler.map("test_procpool:_square_task", tasks)
    assert results == [100 + task * task for task in tasks]
    assert stats == []


def test_scheduler_collects_worker_stats():
    scheduler = ProcessScheduler(OFFSET_SPEC, processes=2)
    results, stats = scheduler.map(
        "test_procpool:_square_task",
        list(range(8)),
        stats_ref="test_procpool:_context_stats",
    )
    assert results[3] == 109
    assert stats and all(snapshot["offset"] == 100 for snapshot in stats)
    assert aggregate_engine_stats(stats)["built"] == len(stats)


def test_worker_stats_count_each_worker_once():
    """Snapshots are cumulative: only each worker's latest one is kept."""
    scheduler = ProcessScheduler(OFFSET_SPEC, processes=2)
    _, stats = scheduler.map(
        "test_procpool:_counting_task",
        list(range(40)),
        stats_ref="test_procpool:_run_count_stats",
    )
    assert aggregate_engine_stats(stats)["runs"] == 40
    assert 1 <= len(stats) <= 2
    assert all(snapshot["offset"] == 100 for snapshot in stats)


def test_scheduler_runs_caller_bounds():
    scheduler = ProcessScheduler(OFFSET_SPEC, processes=2)
    tasks = list(range(9))
    seen = []
    results, stats = scheduler.map(
        "test_procpool:_square_task",
        tasks,
        stats_ref="test_procpool:_context_stats",
        bounds=[(0, 5), (5, 6), (6, 9)],
        on_result=lambda index, value: seen.append(index),
    )
    assert results == [100 + task * task for task in tasks]
    assert sorted(seen) == tasks
    assert 1 <= len(stats) <= 2


def test_unit_exception_is_isolated():
    scheduler = ProcessScheduler(OFFSET_SPEC, processes=2)
    tasks = ["a", "boom", "b", "c"]
    results, _ = scheduler.map("test_procpool:_flaky_task", tasks)
    assert results[0] == "a" and results[2] == "b" and results[3] == "c"
    failure = results[1]
    assert isinstance(failure, UnitFailure)
    assert not failure.crashed
    assert "poisoned unit" in failure.message
    assert isinstance(failure.exception, ValueError)
    assert "ValueError" in failure.traceback_text


def test_worker_crash_is_contained_to_the_unit():
    """A unit that kills its worker process fails alone; shard-mates survive."""
    scheduler = ProcessScheduler(OFFSET_SPEC, processes=2, shards_per_worker=1)
    tasks = [1, 2, "die", 3, 4, 5]
    results, _ = scheduler.map("test_procpool:_crashing_task", tasks)
    crash_index = tasks.index("die")
    for index, task in enumerate(tasks):
        if index == crash_index:
            assert isinstance(results[index], UnitFailure)
            assert results[index].crashed
        else:
            assert results[index] == task * 10


def test_spawn_start_method():
    """The stricter spawn path (no inherited memory) works end to end."""
    scheduler = ProcessScheduler(OFFSET_SPEC, processes=2, start_method="spawn")
    results, _ = scheduler.map("test_procpool:_square_task", [1, 2, 3])
    assert results == [101, 104, 109]


def _die_n_times_task(context, task):
    """Crash the worker while a file-latch counter is below its budget."""
    if isinstance(task, (list, tuple)) and task and task[0] == "latch":
        _, marker, deaths = task
        path = Path(marker)
        count = int(path.read_text()) if path.exists() else 0
        if count < int(deaths):
            path.write_text(str(count + 1))
            os._exit(23)
        return "survived"
    return task


def _hanging_task(context, task):
    if task == "hang":
        time.sleep(60.0)
    return task


def test_transiently_crashing_unit_is_retried_to_success(tmp_path):
    """A unit that kills its first two workers succeeds within its budget."""
    scheduler = ProcessScheduler(
        OFFSET_SPEC,
        processes=1,
        retry_policy=RetryPolicy(attempts=3, base_delay=0.0),
    )
    marker = tmp_path / "deaths"
    tasks = ["a", ("latch", str(marker), 2), "b"]
    results, _ = scheduler.map("test_procpool:_die_n_times_task", tasks)
    assert results == ["a", "survived", "b"]
    assert scheduler.counters["unit_crashes"] >= 2
    assert scheduler.counters["unit_retries"] >= 1
    assert int(marker.read_text()) == 2


def test_persistently_crashing_unit_exhausts_its_budget(tmp_path):
    """A unit that keeps killing workers fails alone, within bounded attempts."""
    scheduler = ProcessScheduler(
        OFFSET_SPEC,
        processes=1,
        retry_policy=RetryPolicy(attempts=2, base_delay=0.0),
    )
    marker = tmp_path / "deaths"
    tasks = ["a", ("latch", str(marker), 99), "b"]
    results, _ = scheduler.map("test_procpool:_die_n_times_task", tasks)
    assert results[0] == "a" and results[2] == "b"
    failure = results[1]
    assert isinstance(failure, UnitFailure) and failure.crashed
    # Original shard run + exactly `attempts` isolated re-runs, no more.
    assert int(marker.read_text()) == 3


def test_watchdog_kills_hung_workers_and_bounds_the_unit(tmp_path):
    """A hung unit is killed by the watchdog; its shard-mates survive."""
    scheduler = ProcessScheduler(
        OFFSET_SPEC,
        processes=1,
        unit_timeout=0.4,
        retry_policy=RetryPolicy(attempts=2, base_delay=0.0),
    )
    start = time.monotonic()
    results, _ = scheduler.map("test_procpool:_hanging_task", ["a", "hang", "b"])
    elapsed = time.monotonic() - start
    assert elapsed < 30.0  # far below the 60s sleep: the watchdog fired
    assert results[0] == "a" and results[2] == "b"
    failure = results[1]
    assert isinstance(failure, UnitFailure)
    assert failure.crashed and failure.timed_out
    assert scheduler.counters["shard_timeouts"] >= 1
    assert scheduler.counters["unit_timeouts"] >= 1


#: A parent with a SIGTERM handler, as ``serve`` installs one, maps a hung
#: unit under the watchdog and prints how long the map took.
_SIGTERM_HANDLER_CHILD = """
import signal, sys, time
sys.path[:0] = [{src!r}, {tests!r}]
from repro.engine.procpool import ProcessScheduler, UnitFailure
from repro.faults import RetryPolicy
from test_procpool import OFFSET_SPEC

signal.signal(signal.SIGTERM, lambda *_: None)
scheduler = ProcessScheduler(
    OFFSET_SPEC, processes=1, unit_timeout=0.5, retry_policy=RetryPolicy(attempts=1)
)
start = time.monotonic()
(failure,), _ = scheduler.map("test_procpool:_hanging_task", ["hang"])
assert isinstance(failure, UnitFailure) and failure.timed_out, failure
print(time.monotonic() - start)
"""


def test_watchdog_stops_workers_of_a_parent_with_a_sigterm_handler():
    """Workers do not inherit the parent's SIGTERM handler, so terminate() stops them."""
    here = Path(__file__).resolve().parent
    child = subprocess.Popen(
        [
            sys.executable,
            "-c",
            _SIGTERM_HANDLER_CHILD.format(src=str(here.parent / "src"), tests=str(here)),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=30.0)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("the watchdog could not stop a worker running the parent's SIGTERM handler")
    assert child.returncode == 0, err
    assert float(out) < 10.0


def test_injected_worker_kills_are_recovered():
    """A `procpool.unit=kill` chaos plan loses workers; every unit recovers."""
    clear_plan()
    scheduler = ProcessScheduler(
        OFFSET_SPEC,
        processes=1,
        start_method="fork",  # workers must inherit the injected plan
        retry_policy=RetryPolicy(attempts=3, base_delay=0.0),
    )
    tasks = list(range(8))
    with inject(FaultRule("procpool.unit", kind="kill", after=2)):
        results, _ = scheduler.map("test_procpool:_square_task", tasks)
    clear_plan()
    assert results == [100 + task * task for task in tasks]
    assert scheduler.counters["unit_crashes"] >= 1


def test_shard_bounds_partition():
    bounds = ProcessScheduler.shard_bounds(10, 4)
    assert bounds == [(0, 3), (3, 6), (6, 8), (8, 10)]
    assert ProcessScheduler.shard_bounds(2, 8) == [(0, 1), (1, 2)]
    assert ProcessScheduler.shard_bounds(5, 1) == [(0, 5)]


def _units(problems, settings=(False, True), clients=2, samples=3):
    return [
        (restrictions, client, problem, sample)
        for restrictions in settings
        for client in range(clients)
        for problem in range(problems)
        for sample in range(samples)
    ]


class _Sized:
    def __init__(self, complexity):
        self.complexity = complexity


def test_problem_shards_keep_problems_whole_and_costliest_first():
    problems = [_Sized(3), _Sized(28), _Sized(6), _Sized(28), _Sized(6)]
    units = _units(len(problems))
    order, bounds = _problem_shards(units, problems, span=12)
    assert sorted(order) == list(range(len(units)))
    # Descending complexity, ties by problem index.
    assert [units[order[lo]][2] for lo, _ in bounds] == [1, 3, 2, 4, 0]
    # Twelve units per problem, one shard each, covering the order once.
    assert bounds == [(0, 12), (12, 24), (24, 36), (36, 48), (48, 60)]
    for lo, hi in bounds:
        assert len({units[position][2] for position in order[lo:hi]}) == 1
    # Within a problem the units keep their sweep order.
    assert order[:12] == sorted(order[:12])


def test_problem_shards_split_only_above_the_span():
    problems = [_Sized(5), _Sized(9)]
    units = _units(len(problems))  # twelve units per problem
    _, bounds = _problem_shards(units, problems, span=12)
    assert bounds == [(0, 12), (12, 24)]
    _, bounds = _problem_shards(units, problems, span=11)
    assert bounds == [(0, 6), (6, 12), (12, 18), (18, 24)]
    # A one-problem sweep still reaches every worker.
    _, bounds = _problem_shards(_units(1, samples=1), [_Sized(4)], span=1)
    assert bounds == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert _problem_shards([], [], span=0) == ([], [])


def test_resolve_processes():
    assert resolve_processes(3) == 3
    assert resolve_processes(0) >= 1


def test_aggregate_engine_stats_sums_and_recomputes_rates():
    worker_a = {
        "workers": 1,
        "execution_mode": "thread",
        "simulation_cache": {"hits": 3, "misses": 1},
        "simulation_hit_rate": 0.75,
        "solver_batch": {"samples": 4, "executor_passes": 2, "fusion_rate": 0.5},
    }
    worker_b = {
        "workers": 1,
        "execution_mode": "thread",
        "simulation_cache": {"hits": 1, "misses": 3},
        "simulation_hit_rate": 0.25,
        "solver_batch": {"samples": 0, "executor_passes": 0, "fusion_rate": 0.0},
    }
    merged = aggregate_engine_stats([worker_a, worker_b])
    assert merged["workers"] == 1  # descriptive, not summed
    assert merged["simulation_cache"] == {"hits": 4, "misses": 4}
    assert merged["simulation_hit_rate"] == 0.5  # recomputed, not averaged
    assert merged["solver_batch"]["samples"] == 4
    assert merged["batch_fusion_rate"] == 0.5
    assert aggregate_engine_stats([]) == {}


# ----------------------------------------------------------------------
# Harness integration: byte-identity with the sequential path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("pack", sorted(pack_names()))
def test_process_sweep_is_byte_identical_per_pack(pack):
    config = _sweep_config(pack)
    sequential = run_sweep(config, restriction_settings=(False, True))
    process = run_sweep(
        _sweep_config(pack, execution_mode="process", processes=2),
        restriction_settings=(False, True),
    )
    assert _canonical(process) == _canonical(sequential)
    assert process.engine_stats is not None
    assert process.engine_stats["simulation_cache"]["misses"] > 0


def test_process_sweep_counts_the_sequential_cache_traffic():
    """Workers hold whole problems, so no key is computed twice: the merged
    worker counters equal the sequential sweep's, hit for hit."""
    config = SweepConfig(samples_per_problem=1, num_wavelengths=TEST_NUM_WAVELENGTHS)
    engine = ExecutionEngine(config.engine_config())
    sequential = run_sweep(config, engine=engine)
    process = run_sweep(replace(config, execution_mode="process", processes=2))
    assert _canonical(process) == _canonical(sequential)
    expected = engine.stats()
    for tier in ("simulation_cache", "plan_cache"):
        for counter in ("hits", "misses"):
            assert process.engine_stats[tier][counter] == expected[tier][counter], (tier, counter)


def test_process_sweep_shares_disk_caches(tmp_path):
    config = _sweep_config(
        "core", execution_mode="process", processes=2, cache_dir=str(tmp_path)
    )
    result = run_sweep(config, restriction_settings=(False,))
    assert result.engine_stats is not None
    assert list(tmp_path.glob("sim-*.npz")), "workers must persist .npz entries"
    assert list((tmp_path / "plans").glob("plan-*.pkl")), "workers must spill plans"
    # A second run starts warm from the shared directory and stays identical.
    warm = run_sweep(config, restriction_settings=(False,))
    assert _canonical(warm) == _canonical(result)
    disk = warm.engine_stats["simulation_cache"]["disk_hits"]
    assert disk + warm.engine_stats["plan_cache"]["disk_hits"] > 0


def test_run_model_process_mode_matches_thread_mode():
    report_thread = run_model(
        SimulatedDesigner(DEFAULT_PROFILES[0]),
        include_restrictions=True,
        config=_sweep_config("core"),
    )
    report_process = run_model(
        SimulatedDesigner(DEFAULT_PROFILES[0]),
        include_restrictions=True,
        config=_sweep_config("core", execution_mode="process", processes=2),
    )
    assert json.dumps(report_process.to_dict(), sort_keys=True) == json.dumps(
        report_thread.to_dict(), sort_keys=True
    )


def test_live_clients_are_rejected_in_process_mode():
    class LiveClient:
        name = "live"

        def complete(self, messages, seed=None):
            return ""

    with pytest.raises(ValueError, match="spec-constructible"):
        run_sweep(
            _sweep_config("core", execution_mode="process"),
            clients=[LiveClient()],
        )


def test_unknown_execution_mode_rejected():
    with pytest.raises(ValueError, match="execution_mode"):
        SweepConfig(execution_mode="rocket")


def test_cli_threads_execution_flags():
    from repro.harness.cli import build_parser, _sweep_config

    args = build_parser().parse_args(
        ["sweep", "--execution-mode", "process", "--processes", "3"]
    )
    config = _sweep_config(args)
    assert config.execution_mode == "process"
    assert config.processes == 3
    defaults = _sweep_config(build_parser().parse_args(["sweep"]))
    assert defaults.execution_mode == "thread"
    assert defaults.processes == 0


# ----------------------------------------------------------------------
# Forked-worker solver hygiene
# ----------------------------------------------------------------------
def _child_default_solver_check(queue):
    from repro.sim import circuit

    inherited = circuit._DEFAULT_SOLVER  # kept alive: ids stay distinct
    rebuilt = circuit.default_solver()
    queue.put(
        (
            inherited is not None,
            rebuilt is not inherited,
            circuit._DEFAULT_SOLVER_PID == os.getpid(),
        )
    )


def test_default_solver_is_rebuilt_in_forked_workers():
    """The module-level default solver must not be shared across processes."""
    from repro.sim.circuit import default_solver

    default_solver()  # populate the parent-side singleton before forking
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    proc = ctx.Process(target=_child_default_solver_check, args=(queue,))
    proc.start()
    inherited_present, rebuilt_fresh, pid_stamped = queue.get(timeout=30)
    proc.join(timeout=30)
    assert proc.exitcode == 0
    assert inherited_present, "fork must inherit the parent-side singleton"
    assert rebuilt_fresh, "the child must rebuild its own default solver"
    assert pid_stamped
