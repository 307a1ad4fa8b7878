"""Deterministic, parallel, cache-backed execution engine.

The engine is the architectural seam between the evaluation pipeline
(:mod:`repro.evalkit`, :mod:`repro.harness`) and the simulator
(:mod:`repro.sim`): all circuit simulations and all sweep work units route
through an :class:`ExecutionEngine`, which provides

* a content-addressed :class:`SimulationCache` keyed on the canonical netlist,
  the wavelength grid and the registry fingerprint (in-memory LRU plus
  optional ``.npz`` persistence under a cache directory), and
* a :class:`TaskScheduler` running flattened ``(client, restrictions,
  problem, sample)`` work units on a thread pool with content-derived seeds,
  so parallel and sequential sweeps produce byte-identical reports.

This package only depends on :mod:`repro.sim` and :mod:`repro.netlist`;
higher layers depend on it, never the other way around.
"""

from .cache import CacheStats, LRUCache, SimulationCache
from .engine import (
    EngineConfig,
    ExecutionEngine,
    stats_delta,
    sum_stats,
)
from .fingerprint import (
    grid_fingerprint,
    netlist_fingerprint,
    registry_fingerprint,
    sample_seed,
    settings_fingerprint,
    stable_hash,
)
from .procpool import (
    ProcessScheduler,
    UnitFailure,
    WorkerSpec,
    resolve_processes,
)
from .scheduler import TaskScheduler, resolve_workers

__all__ = [
    "CacheStats",
    "LRUCache",
    "SimulationCache",
    "EngineConfig",
    "ExecutionEngine",
    "stats_delta",
    "sum_stats",
    "ProcessScheduler",
    "UnitFailure",
    "WorkerSpec",
    "resolve_processes",
    "TaskScheduler",
    "resolve_workers",
    "stable_hash",
    "netlist_fingerprint",
    "grid_fingerprint",
    "registry_fingerprint",
    "settings_fingerprint",
    "sample_seed",
]
