"""Tests of the cross-process advisory file lock, and of the lock-free
concurrent writes of the simulation cache and the compiled-plan spill."""

from __future__ import annotations

import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro._locks import FileLock
from repro.bench import get_problem
from repro.engine.cache import SimulationCache
from repro.faults import FaultRule, clear_plan, inject
from repro.sim import CircuitSolver
from repro.sim.sparams import SMatrix


# ----------------------------------------------------------------------
# Single-process semantics
# ----------------------------------------------------------------------
def test_acquire_release_cycle(tmp_path):
    lock = FileLock(tmp_path / "x.lock")
    assert lock.acquire()
    assert lock.held
    assert (tmp_path / "x.lock").exists()
    lock.release()
    assert not lock.held
    assert not (tmp_path / "x.lock").exists()


def test_context_manager(tmp_path):
    path = tmp_path / "x.lock"
    with FileLock(path) as lock:
        assert lock.held
        assert path.exists()
    assert not path.exists()


def test_contended_acquire_times_out(tmp_path):
    path = tmp_path / "x.lock"
    holder = FileLock(path)
    assert holder.acquire()
    contender = FileLock(path, timeout=0.05)
    start = time.monotonic()
    assert not contender.acquire()
    assert time.monotonic() - start >= 0.05
    holder.release()
    assert contender.acquire()
    contender.release()


def test_reacquire_by_same_instance_raises(tmp_path):
    lock = FileLock(tmp_path / "x.lock")
    assert lock.acquire()
    with pytest.raises(RuntimeError):
        lock.acquire()
    lock.release()


def test_stale_lock_is_broken(tmp_path):
    """A lock file left by a dead process is taken over after stale_timeout."""
    path = tmp_path / "x.lock"
    path.write_text("99999999")
    old = time.time() - 3600.0
    os.utime(path, (old, old))
    lock = FileLock(path, timeout=1.0, stale_timeout=60.0)
    assert lock.acquire()
    lock.release()


def test_fresh_foreign_lock_is_respected(tmp_path):
    """A recent lock file (live writer) is not stolen before stale_timeout."""
    path = tmp_path / "x.lock"
    path.write_text("12345")
    lock = FileLock(path, timeout=0.05, stale_timeout=60.0)
    assert not lock.acquire()
    assert path.exists()


def test_release_without_acquire_is_noop(tmp_path):
    lock = FileLock(tmp_path / "x.lock")
    lock.release()  # must not raise
    assert not lock.held


def test_broken_stale_holder_cannot_release_successor(tmp_path):
    """Token-verified release: a holder broken as stale must not unlink the
    next owner's lockfile out from under it."""
    path = tmp_path / "x.lock"
    overstayer = FileLock(path, stale_timeout=60.0)
    assert overstayer.acquire()
    old = time.time() - 3600.0
    os.utime(path, (old, old))  # the holder "hangs" past stale_timeout
    successor = FileLock(path, timeout=1.0, stale_timeout=60.0)
    assert successor.acquire()
    overstayer.release()  # finds the successor's token: leaves it alone
    assert path.exists()
    successor.release()
    assert not path.exists()


def test_injected_acquire_faults_are_retried(tmp_path):
    """A transient acquisition fault degrades to another poll, not a crash."""
    clear_plan()
    lock = FileLock(tmp_path / "x.lock", timeout=5.0)
    with inject(FaultRule("lock.acquire", max_triggers=2)) as plan:
        assert lock.acquire()
    assert plan.stats()["lock.acquire"]["triggers"] == 2
    assert plan.stats()["lock.acquire"]["evaluations"] >= 3
    lock.release()
    clear_plan()


def test_injected_acquire_faults_exhaust_to_unacquired(tmp_path):
    """Acquisition stays best-effort under permanent faults: False, no raise."""
    clear_plan()
    lock = FileLock(tmp_path / "x.lock", timeout=0.05)
    with inject(FaultRule("lock.acquire")):
        assert not lock.acquire()
    assert not (tmp_path / "x.lock").exists()
    clear_plan()


# ----------------------------------------------------------------------
# Multi-process stress
# ----------------------------------------------------------------------
def _locked_increment(lock_path: str, counter_path: str, rounds: int) -> None:
    """Read-modify-write a counter file under the lock (racy without it)."""
    for _ in range(rounds):
        with FileLock(Path(lock_path), timeout=30.0):
            value = int(Path(counter_path).read_text())
            time.sleep(0.001)  # widen the race window
            Path(counter_path).write_text(str(value + 1))


def test_lock_serialises_processes(tmp_path):
    counter = tmp_path / "counter"
    counter.write_text("0")
    rounds, workers = 5, 4
    ctx = multiprocessing.get_context()
    procs = [
        ctx.Process(
            target=_locked_increment,
            args=(str(tmp_path / "c.lock"), str(counter), rounds),
        )
        for _ in range(workers)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    assert int(counter.read_text()) == rounds * workers


def _takeover_contender(lock_path: str, outcome_dir: str, index: int) -> None:
    """Race to break one stale lock; the winner holds longer than the losers
    are willing to wait, so at most one contender can ever report success."""
    # stale_timeout far above the hold time: only the pre-aged seed file is
    # ever breakable, never the winner's own fresh lock.
    lock = FileLock(Path(lock_path), timeout=0.4, stale_timeout=60.0)
    if lock.acquire():
        (Path(outcome_dir) / f"winner-{index}").write_text(lock._token)
        time.sleep(1.2)  # outlast every loser's acquire window
        lock.release()


def test_stale_takeover_yields_exactly_one_owner(tmp_path):
    """Contenders racing to break the same stale lock never both own it."""
    path = tmp_path / "x.lock"
    outcomes = tmp_path / "outcomes"
    outcomes.mkdir()
    path.write_text("99999:deadcafe")  # abandoned by a "crashed" holder
    old = time.time() - 3600.0
    os.utime(path, (old, old))
    ctx = multiprocessing.get_context()
    procs = [
        ctx.Process(
            target=_takeover_contender, args=(str(path), str(outcomes), index)
        )
        for index in range(2)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    winners = list(outcomes.iterdir())
    assert len(winners) == 1, f"expected one owner, got {winners!r}"
    assert not path.exists()  # the winner released cleanly
    assert not list(tmp_path.glob("*.stale-*"))  # takeover left no debris


def _cache_put_worker(cache_dir: str, worker_index: int, keys: int) -> None:
    """Hammer the shared on-disk cache with same-key writes from one process."""
    cache = SimulationCache(max_entries=4, cache_dir=cache_dir)
    wavelengths = np.linspace(1.51, 1.59, 5)
    for round_index in range(3):
        for key_index in range(keys):
            data = np.full((5, 2, 2), complex(key_index + 1), dtype=complex)
            cache.put(f"key{key_index}", SMatrix(wavelengths, ("I1", "O1"), data))


def test_concurrent_cache_puts_stay_consistent(tmp_path):
    """Concurrent same-key .npz writers never corrupt the entries."""
    workers, keys = 4, 3
    ctx = multiprocessing.get_context()
    procs = [
        ctx.Process(target=_cache_put_worker, args=(str(tmp_path), index, keys))
        for index in range(workers)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    # Every entry must be readable and carry the content its key implies.
    fresh = SimulationCache(max_entries=0, cache_dir=str(tmp_path))
    for key_index in range(keys):
        entry = fresh.get(f"key{key_index}")
        assert entry is not None
        assert np.all(entry.data == complex(key_index + 1))
    # No lock files are left behind once every writer has finished.
    assert not list(tmp_path.glob("*.lock"))


def _plan_store_worker(plan_dir: str, compiled) -> None:
    """Spill one compiled plan into the shared directory, repeatedly."""
    solver = CircuitSolver(plan_dir=plan_dir)
    for _ in range(3):
        solver._plan_store(compiled.fingerprint, compiled)


def test_concurrent_plan_spills_stay_consistent(tmp_path):
    """Concurrent same-topology plan writers leave one loadable spill."""
    compiled = CircuitSolver().compile(get_problem("clements_4x4").golden_netlist())
    ctx = multiprocessing.get_context()
    procs = [
        ctx.Process(target=_plan_store_worker, args=(str(tmp_path), compiled))
        for _ in range(4)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    loaded = CircuitSolver(plan_dir=tmp_path)._plan_lookup(compiled.fingerprint)
    assert loaded is not None
    assert loaded.fingerprint == compiled.fingerprint
    assert len(list(tmp_path.glob("plan-*.pkl"))) == 1
    assert not list(tmp_path.glob("*.tmp"))
    assert not list(tmp_path.glob("*.lock"))
