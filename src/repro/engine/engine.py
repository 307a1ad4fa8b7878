"""The execution engine: cache-backed simulation plus parallel scheduling.

:class:`ExecutionEngine` is the single seam the evaluation stack runs
through.  It owns

* one :class:`~repro.sim.circuit.CircuitSolver` (and therefore one model
  registry),
* one content-addressed :class:`~repro.engine.cache.SimulationCache`, and
* one :class:`~repro.engine.scheduler.TaskScheduler`.

``GoldenStore`` routes golden-design simulations through
:meth:`ExecutionEngine.evaluate`, ``Evaluator`` routes every candidate-draft
simulation through it, and ``run_sweep`` flattens its nested loops onto
:meth:`ExecutionEngine.map` -- so one engine instance deduplicates structurally
identical simulations across problems, samples, models and restriction
settings, sequential or parallel alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, TypeVar

import numpy as np

from ..constants import normalize_wavelengths
from ..faults import fault_point, fault_stats
from ..netlist.schema import Netlist
from ..netlist.validation import PortSpec
from ..sim.batch import SettingsBatch, apply_settings
from ..sim.circuit import CircuitSolver
from ..sim.registry import ModelRegistry
from ..sim.sparams import SMatrix
from .cache import SimulationCache
from .fingerprint import grid_fingerprint, netlist_fingerprint, registry_fingerprint, stable_hash
from .scheduler import TaskScheduler

__all__ = [
    "EngineConfig",
    "ExecutionEngine",
    "stats_delta",
    "sum_stats",
]

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class EngineConfig:
    """Where an :class:`ExecutionEngine` runs its work and keeps its caches.

    Everything else is fixed by the :class:`~repro.sim.circuit.CircuitSolver`
    and :class:`~repro.engine.cache.SimulationCache` defaults: the ``auto``
    backend, which sizes its own wavelength blocks, a 128-plan cache, and a
    2,048-entry simulation cache whose disk I/O gets two attempts 0.02 s
    apart.  A caller that needs another solver passes one to the engine.

    Attributes
    ----------
    workers:
        Size of the scheduler's thread pool; ``1`` (the default) runs every
        task inline, ``0`` or negative means one worker per CPU core.
    cache_dir:
        Optional directory for persistent ``.npz`` simulation artefacts.
    plan_dir:
        Optional directory for the solver's disk-backed compiled-plan spill
        (see :class:`repro.sim.circuit.CircuitSolver`).  Defaults to
        ``<cache_dir>/plans`` when ``cache_dir`` is set -- warm structure
        work is then shared across processes and runs exactly like ``.npz``
        simulation artefacts.  Pass an explicit path to relocate it; the
        spill is off when both are ``None``.
    """

    workers: int = 1
    cache_dir: Optional[Path | str] = None
    plan_dir: Optional[Path | str] = None

    def resolved_plan_dir(self) -> Optional[Path]:
        """The effective plan-spill directory (``cache_dir/plans`` default)."""
        if self.plan_dir is not None:
            return Path(self.plan_dir)
        if self.cache_dir is not None:
            return Path(self.cache_dir) / "plans"
        return None


class ExecutionEngine:
    """Deterministic, parallel, cache-backed execution of simulations."""

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        *,
        registry: Optional[ModelRegistry] = None,
        solver: Optional[CircuitSolver] = None,
    ) -> None:
        """Build the engine's solver, cache and scheduler from ``config``.

        ``solver`` replaces the default ``auto`` solver over ``registry``
        (which is then ignored).
        """
        self.config = config if config is not None else EngineConfig()
        self.solver = (
            solver
            if solver is not None
            else CircuitSolver(registry=registry, plan_dir=self.config.resolved_plan_dir())
        )
        self.cache = SimulationCache(cache_dir=self.config.cache_dir)
        self.scheduler = TaskScheduler(workers=self.config.workers)
        self._registry_fp = registry_fingerprint(self.solver.registry)
        self._registry_fp_version = self.solver.registry.version

    def _registry_fingerprint(self) -> str:
        """The registry fingerprint, memoised on the registry's mutation counter.

        Re-registering a model under an existing name changes the fingerprint,
        so cached results computed with the old model are never served.
        """
        version = self.solver.registry.version
        if version != self._registry_fp_version:
            self._registry_fp = registry_fingerprint(self.solver.registry)
            self._registry_fp_version = version
        return self._registry_fp

    @property
    def registry(self) -> ModelRegistry:
        """The model registry every simulation of this engine resolves against."""
        return self.solver.registry

    # ------------------------------------------------------------------
    # Cache-backed simulation
    # ------------------------------------------------------------------
    def simulation_key(
        self,
        netlist: Netlist,
        wavelengths: np.ndarray,
        port_spec: Optional[PortSpec] = None,
    ) -> str:
        """Content address of one simulation under this engine's registry.

        The solver backend is deliberately NOT part of the key: backends are
        numerically equivalent, so engines configured with different backends
        must share cache entries (and golden artefacts stay backend-invariant).
        """
        spec_part = (
            "none" if port_spec is None else f"{port_spec.num_inputs}x{port_spec.num_outputs}"
        )
        return stable_hash(
            netlist_fingerprint(netlist),
            grid_fingerprint(wavelengths),
            self._registry_fingerprint(),
            spec_part,
        )

    def evaluate(
        self,
        netlist: Netlist,
        wavelengths: Optional[np.ndarray] = None,
        *,
        port_spec: Optional[PortSpec] = None,
    ) -> SMatrix:
        """Simulate ``netlist``, serving repeats from the content cache.

        Semantics match :meth:`CircuitSolver.evaluate` exactly: only
        successful results are cached, so validation and model errors raise
        the same classified :class:`~repro.netlist.errors.PICBenchError`
        every time.
        """
        wavelengths = normalize_wavelengths(wavelengths)
        key = self.simulation_key(netlist, wavelengths, port_spec)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        fault_point("solver.evaluate", key=key)
        smatrix = self.solver.evaluate(netlist, wavelengths, port_spec=port_spec)
        self.cache.put(key, smatrix)
        return smatrix

    # ------------------------------------------------------------------
    # Batched simulation
    # ------------------------------------------------------------------
    def evaluate_batch(
        self,
        netlist: Netlist,
        settings_batch: Sequence[SettingsBatch],
        wavelengths: Optional[np.ndarray] = None,
        *,
        port_spec: Optional[PortSpec] = None,
    ) -> List[SMatrix]:
        """Evaluate ``S`` settings samples of one netlist, batching the misses.

        Cache keys are **batch-aware but per-sample**: each sample's key is
        the content address of its *derived* netlist (base plus overrides),
        exactly the key :meth:`evaluate` would compute for that netlist --
        so batched results hit (and seed) per-sample cache entries.  Samples
        already cached are served directly; the distinct misses fuse into
        one :meth:`CircuitSolver.evaluate_batch` call, which splits its
        executor passes for cache residency.
        """
        wavelengths = normalize_wavelengths(wavelengths)
        keys = [
            self.simulation_key(apply_settings(netlist, overrides), wavelengths, port_spec)
            for overrides in settings_batch
        ]
        results: List[Optional[SMatrix]] = [self.cache.get(key) for key in keys]
        # One solve per distinct missing key: identical samples share it.
        misses: Dict[str, int] = {}
        for index, key in enumerate(keys):
            if results[index] is None:
                misses.setdefault(key, index)
        if misses:
            solved = self.solver.evaluate_batch(
                netlist,
                [settings_batch[index] for index in misses.values()],
                wavelengths,
                port_spec=port_spec,
            )
            fresh = dict(zip(misses, solved))
            for key, smatrix in fresh.items():
                self.cache.put(key, smatrix)
            results = [fresh.get(key, result) for key, result in zip(keys, results)]
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Run independent work units on the engine's pool, preserving order."""
        return self.scheduler.map(fn, items)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Snapshot of the engine's counters: a tree of integers, no rates.

        A reader derives a rate from the counters it needs (hits over hits
        plus misses); :func:`stats_delta` and :func:`sum_stats` subtract and
        add snapshots leaf by leaf.
        """
        return {
            "simulation_cache": self.cache.stats.as_dict(),
            "instance_cache": self.solver.instance_cache_stats().as_dict(),
            "plan_cache": self.solver.plan_cache_stats().as_dict(),
            "solver_batch": self.solver.batch_stats().as_dict(),
            "solver_degradations": self.solver.degradation_stats(),
            "cache_nonfinite_rejected": self.cache.nonfinite_rejected,
            "faults": fault_stats(),
        }


def stats_delta(before: Dict[str, object], after: Dict[str, object]) -> Dict[str, object]:
    """What one slice of work added to a stats snapshot, leaf by leaf.

    Long-running services share one engine across many jobs, so absolute
    counters conflate every job that ever ran; the delta of two snapshots
    isolates a single job's (or a process shard's) cache behaviour.  Every
    leaf of ``after`` is an integer counter, absent leaves of ``before``
    count as zero, and a leaf only in ``before`` is dropped.
    """
    return {
        key: (
            stats_delta(before.get(key, {}), value)  # type: ignore[arg-type]
            if isinstance(value, dict)
            else value - before.get(key, 0)  # type: ignore[operator]
        )
        for key, value in after.items()
    }


def sum_stats(snapshots: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """The leaf-by-leaf sum of stats snapshots (``{}`` for none).

    Summing the deltas of several engines reads like one engine that did
    all of their work: the process tier adds its shards' deltas this way.
    """
    total: Dict[str, object] = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            if isinstance(value, dict):
                total[key] = sum_stats([total.get(key, {}), value])  # type: ignore[list-item]
            else:
                total[key] = total.get(key, 0) + value  # type: ignore[operator]
    return total
