"""Tests of the one stats mechanism: integer counter trees and one fold.

Every stats snapshot -- ``ExecutionEngine.stats()``, a sweep's
``engine_stats`` on either tier, a service job's stored ``engine_stats`` and
the service ``stats`` op's ``engine`` -- is a tree of integer counters.
``stats_delta`` and ``sum_stats`` subtract and add such trees leaf by leaf:
the thread tier takes the delta of its engine around the sweep, and the
process tier sums what each shard added, plus the parent's own fault
counters, so the two tiers report the same tree apart from ``procpool``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.engine import stats_delta, sum_stats
from repro.faults import FaultRule, clear_plan, inject
from repro.harness.runner import SweepConfig, run_sweep
from repro.llm.profiles import get_profile
from repro.service import EvalService, JobSpec, JobState

#: One model, one restriction setting, 2 problems x 10 samples: 20 trajectories.
SMALL = SweepConfig(
    problems=("mzi_ps", "mzm"),
    samples_per_problem=10,
    max_feedback_iterations=1,
    num_wavelengths=5,
)
PROFILES = [get_profile("GPT-4o")]

TIERS = {
    "thread": dict(),
    "process": dict(execution_mode="process", processes=2),
}


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    clear_plan()
    yield
    clear_plan()


def shape(tree: dict) -> dict:
    """The key tree of a stats snapshot: its nested keys, leaves as ``None``."""
    return {key: shape(value) if isinstance(value, dict) else None for key, value in tree.items()}


def leaves(tree: dict) -> list:
    """Every leaf value of a nested stats snapshot."""
    found = []
    for value in tree.values():
        found.extend(leaves(value) if isinstance(value, dict) else [value])
    return found


def assert_counter_tree(stats: dict) -> None:
    """Every leaf is an ``int`` (a bool or a float is not a counter)."""
    assert leaves(stats), "a stats snapshot has counters"
    assert all(type(value) is int for value in leaves(stats)), stats


def assert_tiers_agree(thread: dict, process: dict) -> None:
    """Both tiers report one counter tree; only the process tier adds ``procpool``."""
    assert_counter_tree(thread)
    assert_counter_tree(process)
    assert set(process) - set(thread) == {"procpool"}
    assert shape({key: value for key, value in process.items() if key != "procpool"}) == shape(
        thread
    )


def sweep(tier: str):
    """The ``SMALL`` sweep on one tier."""
    return run_sweep(replace(SMALL, **TIERS[tier]), profiles=PROFILES, restriction_settings=(False,))


# ----------------------------------------------------------------------
# The fold
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "a, b",
    [
        ({}, {"hits": 2, "misses": 1}),
        ({"hits": 3, "misses": 1}, {"hits": 0, "misses": 4}),
        (
            {"plan_cache": {"hits": 5, "misses": 2}, "cache_nonfinite_rejected": 1, "faults": {}},
            {
                "plan_cache": {"hits": 1, "misses": 0},
                "cache_nonfinite_rejected": 0,
                "faults": {"sweep.unit": {"evaluations": 20, "triggers": 0}},
            },
        ),
        (
            {"a": {"b": {"c": 7, "d": 1}}, "e": 2},
            {"a": {"b": {"c": 1, "d": 0}, "f": 3}, "e": 9, "g": {"h": 4}},
        ),
    ],
)
def test_delta_undoes_the_sum(a, b):
    assert stats_delta(a, sum_stats([a, b])) == b


def test_sum_of_no_snapshots_is_empty():
    assert sum_stats([]) == {}
    assert sum_stats([{"hits": 1}, {"hits": 2}, {"hits": 3}]) == {"hits": 6}


# ----------------------------------------------------------------------
# Both tiers report one counter tree
# ----------------------------------------------------------------------
def test_sweeps_on_both_tiers_report_one_counter_tree():
    assert_tiers_agree(sweep("thread").engine_stats, sweep("process").engine_stats)


def test_service_jobs_store_one_counter_tree_on_both_tiers(tmp_path):
    with EvalService(tmp_path / "results.db", job_workers=1) as service:
        records = {}
        for seed, tier in enumerate(TIERS):
            spec = JobSpec(
                models=("GPT-4o",),
                restrictions=(False,),
                samples_per_problem=2,
                max_feedback_iterations=1,
                num_wavelengths=5,
                problems=("mzi_ps",),
                base_seed=seed,
                **TIERS[tier],
            )
            records[tier] = service.wait(service.submit(spec), timeout=300.0)
            assert records[tier].state is JobState.DONE, records[tier].error
            stored = service.store.load_run(records[tier].run_id).engine_stats
            assert stored == records[tier].engine_stats
        service_stats = service.stats()
    assert_tiers_agree(records["thread"].engine_stats, records["process"].engine_stats)
    assert_counter_tree(service_stats["engine"])
    assert "faults" not in service_stats  # the engine snapshot carries them


# ----------------------------------------------------------------------
# Fault counters: each evaluation counted once
# ----------------------------------------------------------------------
def test_process_sweep_counts_its_own_fault_evaluations_once():
    """Forked workers inherit the parent's fault counters; a shard's delta
    drops them, and the parent's own ``sweep.unit`` visits join the sum."""
    with inject(FaultRule("sweep.unit", kind="delay", delay=0.0, probability=0.0)):
        thread = sweep("thread")
        process = sweep("process")
    assert process.engine_stats["faults"]["sweep.unit"] == {"evaluations": 20, "triggers": 0}
    assert thread.engine_stats["faults"]["sweep.unit"] == {"evaluations": 20, "triggers": 0}
