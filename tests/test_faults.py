"""Tests of the fault-injection framework and the retry policies.

Covers the :mod:`repro.faults` primitives (plans, rules, parsing,
determinism, retry/backoff) plus the cache seams they protect: transient
disk-read faults must be retried into misses, torn writes must be
quarantined, and injected write failures must degrade to cache-less
operation -- all without perturbing computed results.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.engine.cache import SimulationCache
from repro.faults import (
    FAULT_KINDS,
    FaultInjected,
    FaultPlan,
    FaultRule,
    INJECTION_POINTS,
    RetryPolicy,
    active_plan,
    clear_plan,
    fault_point,
    fault_stats,
    inject,
    install_plan,
    parse_plan,
    retry_call,
)
from repro.sim.sparams import SMatrix


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends with injection disabled."""
    clear_plan()
    yield
    clear_plan()


def _smatrix(value: complex = 1 + 2j) -> SMatrix:
    wavelengths = np.linspace(1.5, 1.6, 5)
    data = np.full((5, 2, 2), value, dtype=complex)
    return SMatrix(wavelengths, ("I1", "O1"), data)


# ----------------------------------------------------------------------
# Rules and plans
# ----------------------------------------------------------------------
def test_registry_covers_production_seams():
    for point in (
        "cache.disk_read",
        "cache.disk_write",
        "procpool.unit",
        "store.write",
        "daemon.request",
        "solver.evaluate",
        "sweep.unit",
    ):
        assert point in INJECTION_POINTS


def test_rule_validation():
    with pytest.raises(ValueError):
        FaultRule("x", kind="explode")
    with pytest.raises(ValueError):
        FaultRule("")
    with pytest.raises(ValueError):
        FaultRule("x", probability=1.5)
    with pytest.raises(ValueError):
        FaultRule("x", after=-1)
    assert FaultRule("x").kind in FAULT_KINDS


def test_fault_point_without_plan_is_noop():
    assert active_plan() is None
    fault_point("cache.disk_read", key="k")  # must not raise
    assert fault_stats() == {}


def test_raise_kind_is_transient_oserror():
    with inject(FaultRule("p")):
        with pytest.raises(FaultInjected) as excinfo:
            fault_point("p")
    assert isinstance(excinfo.value, OSError)


def test_after_skips_leading_evaluations():
    with inject(FaultRule("p", after=2)) as plan:
        fault_point("p")
        fault_point("p")
        with pytest.raises(FaultInjected):
            fault_point("p")
    assert plan.stats()["p"] == {"evaluations": 3, "triggers": 1}


def test_max_triggers_bounds_injections():
    with inject(FaultRule("p", max_triggers=2)) as plan:
        for _ in range(2):
            with pytest.raises(FaultInjected):
                fault_point("p")
        fault_point("p")  # budget exhausted: passes through
    assert plan.stats()["p"]["triggers"] == 2


def test_probability_decisions_are_key_deterministic():
    def verdicts(seed: int) -> list:
        outcomes = []
        with inject(FaultRule("p", probability=0.5), seed=seed):
            for index in range(32):
                try:
                    fault_point("p", key=f"unit-{index}")
                    outcomes.append(False)
                except FaultInjected:
                    outcomes.append(True)
        return outcomes

    first, second = verdicts(7), verdicts(7)
    assert first == second  # same seed + keys -> same verdicts
    assert any(first) and not all(first)  # a real mix at p=0.5
    assert verdicts(8) != first  # the seed participates


def test_delay_kind_sleeps():
    start = time.monotonic()
    with inject(FaultRule("p", kind="delay", delay=0.05)):
        fault_point("p")
    assert time.monotonic() - start >= 0.05


def test_corrupt_kind_overwrites_target_file(tmp_path):
    target = tmp_path / "entry.npz"
    target.write_bytes(b"A" * 256)
    with inject(FaultRule("p", kind="corrupt")):
        fault_point("p", path=target)
    assert target.read_bytes() != b"A" * 256
    # Deterministic: the same plan writes the same junk.
    second = tmp_path / "other.npz"
    second.write_bytes(b"A" * 256)
    with inject(FaultRule("p", kind="corrupt")):
        fault_point("p", path=second)
    assert target.read_bytes()[:64] == second.read_bytes()[:64]


def test_inject_restores_previous_plan():
    outer = FaultPlan([FaultRule("outer")])
    install_plan(outer)
    with inject(FaultRule("inner")):
        assert active_plan().points() == ["inner"]
    assert active_plan() is outer
    clear_plan()
    with inject(FaultRule("inner")):
        pass
    assert active_plan() is None


# ----------------------------------------------------------------------
# REPRO_FAULTS parsing
# ----------------------------------------------------------------------
def test_parse_json_plan():
    plan = parse_plan(
        json.dumps(
            {
                "seed": 9,
                "rules": [
                    {"point": "procpool.unit", "kind": "kill", "max_triggers": 2}
                ],
            }
        )
    )
    assert plan.seed == 9
    (rule,) = plan.rules["procpool.unit"]
    assert rule.kind == "kill" and rule.max_triggers == 2


def test_parse_compact_plan():
    plan = parse_plan("seed=7;cache.disk_read=raise@0.25x3+2;sweep.unit=delay~0.5")
    assert plan.seed == 7
    (read_rule,) = plan.rules["cache.disk_read"]
    assert read_rule.kind == "raise"
    assert read_rule.probability == 0.25
    assert read_rule.max_triggers == 3
    assert read_rule.after == 2
    (sweep_rule,) = plan.rules["sweep.unit"]
    assert sweep_rule.kind == "delay" and sweep_rule.delay == 0.5


@pytest.mark.parametrize("text", ["", "bogus", "p=notakind", "p=raise@banana"])
def test_parse_rejects_malformed_plans(text):
    with pytest.raises((ValueError, json.JSONDecodeError)):
        parse_plan(text)


def test_env_var_installs_plan(monkeypatch):
    from repro import faults

    monkeypatch.setenv(faults.FAULTS_ENV_VAR, "seed=3;p=raise")
    faults._install_from_env()
    assert active_plan().seed == 3
    monkeypatch.setenv(faults.FAULTS_ENV_VAR, "seed=;;;")
    with pytest.raises(ValueError):
        faults._install_from_env()


# ----------------------------------------------------------------------
# Retry policies
# ----------------------------------------------------------------------
def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-1.0)


def test_retry_policy_backoff_is_deterministic_and_bounded():
    policy = RetryPolicy(attempts=5, base_delay=0.1, max_delay=0.5, jitter=0.25)
    delays = [policy.delay(i, seed="unit-3") for i in range(5)]
    assert delays == [policy.delay(i, seed="unit-3") for i in range(5)]
    assert delays != [policy.delay(i, seed="unit-4") for i in range(5)]
    for index, delay in enumerate(delays):
        base = min(0.5, 0.1 * 2.0**index)
        assert base <= delay <= base * 1.25


def test_retry_call_recovers_from_transient_errors():
    calls = {"n": 0}
    retried = []

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise OSError("transient")
        return "done"

    result = retry_call(
        flaky,
        policy=RetryPolicy(attempts=3, base_delay=0.0),
        on_retry=lambda attempt, error: retried.append(attempt),
        sleep=lambda _: None,
    )
    assert result == "done"
    assert calls["n"] == 3
    assert retried == [0, 1]


def test_retry_call_exhausts_budget():
    def always_failing():
        raise OSError("still broken")

    with pytest.raises(OSError, match="still broken"):
        retry_call(
            always_failing,
            policy=RetryPolicy(attempts=3, base_delay=0.0),
            sleep=lambda _: None,
        )


def test_retry_call_never_retries_permanent_errors():
    calls = {"n": 0}

    def permanent():
        calls["n"] += 1
        raise KeyError("not transient")

    with pytest.raises(KeyError):
        retry_call(permanent, policy=RetryPolicy(attempts=5), sleep=lambda _: None)
    assert calls["n"] == 1


# ----------------------------------------------------------------------
# Cache seams under injection
# ----------------------------------------------------------------------
def test_transient_disk_read_is_retried_into_a_hit(tmp_path):
    writer = SimulationCache(max_entries=4, cache_dir=str(tmp_path))
    writer.put("k", _smatrix())
    reader = SimulationCache(max_entries=4, cache_dir=str(tmp_path))
    with inject(FaultRule("cache.disk_read", max_triggers=1)):
        entry = reader.get("k")
    assert entry is not None
    assert np.all(entry.data == _smatrix().data)
    assert reader.stats.disk_retries == 1
    assert reader.stats.disk_corrupt == 0


def test_exhausted_disk_read_retries_degrade_to_a_miss(tmp_path):
    writer = SimulationCache(max_entries=4, cache_dir=str(tmp_path))
    writer.put("k", _smatrix())
    reader = SimulationCache(max_entries=4, cache_dir=str(tmp_path))
    with inject(FaultRule("cache.disk_read")):
        assert reader.get("k") is None  # miss, not an exception
    # The entry itself was never harmed: a calm read still hits.
    assert SimulationCache(max_entries=4, cache_dir=str(tmp_path)).get("k") is not None


def test_torn_write_is_quarantined_on_read(tmp_path):
    writer = SimulationCache(max_entries=4, cache_dir=str(tmp_path))
    with inject(FaultRule("cache.disk_write", kind="corrupt")):
        writer.put("k", _smatrix())
    reader = SimulationCache(max_entries=4, cache_dir=str(tmp_path))
    assert reader.get("k") is None
    assert reader.stats.disk_corrupt == 1
    quarantined = list(tmp_path.glob("*.corrupt"))
    assert len(quarantined) == 1
    assert not list(tmp_path.glob("*.npz"))  # the bad entry was moved aside
    # A rewrite of the key repopulates the cache cleanly.
    writer.put("k", _smatrix(3 + 0j))
    fresh = SimulationCache(max_entries=4, cache_dir=str(tmp_path))
    entry = fresh.get("k")
    assert entry is not None and np.all(entry.data == 3 + 0j)


def test_injected_write_failure_degrades_to_cacheless(tmp_path):
    cache = SimulationCache(max_entries=4, cache_dir=str(tmp_path))
    with inject(FaultRule("cache.disk_write")):
        cache.put("k", _smatrix())  # must not raise
    assert not list(tmp_path.glob("*.npz"))
    assert cache.stats.disk_retries >= 1
    # Memory tier still serves the entry.
    assert cache.get("k") is not None


def test_transient_write_fault_is_retried_through(tmp_path):
    cache = SimulationCache(max_entries=4, cache_dir=str(tmp_path))
    with inject(FaultRule("cache.disk_write", max_triggers=1)):
        cache.put("k", _smatrix())
    assert cache.stats.disk_retries == 1
    assert SimulationCache(max_entries=4, cache_dir=str(tmp_path)).get("k") is not None
