"""Tests of the lock-free concurrent writes of the simulation cache and the
compiled-plan spill."""

from __future__ import annotations

import multiprocessing

import numpy as np

from repro.bench import get_problem
from repro.engine.cache import SimulationCache
from repro.sim import CircuitSolver
from repro.sim.sparams import SMatrix


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
