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

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from ..constants import normalize_wavelengths
from ..faults import fault_point, fault_stats
from ..netlist.schema import Netlist
from ..netlist.validation import PortSpec
from ..sim.batch import SettingsBatch, apply_settings, structural_key
from ..sim.circuit import CircuitSolver
from ..sim.registry import ModelRegistry
from ..sim.sparams import SMatrix
from .cache import SimulationCache
from .fingerprint import grid_fingerprint, netlist_fingerprint, registry_fingerprint, stable_hash
from .scheduler import TaskScheduler

__all__ = [
    "EngineBatchStats",
    "EngineConfig",
    "ExecutionEngine",
    "stats_delta",
]

@dataclass
class EngineBatchStats:
    """Counters of the engine's batched-evaluation entry points.

    ``cache_hits`` counts samples served straight from the content-addressed
    simulation cache -- batch-aware keys are computed per *derived sample
    netlist*, so batched and per-sample evaluations share one entry space
    and hit each other's results.
    """

    calls: int = 0
    samples: int = 0
    cache_hits: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of batched samples served from the simulation cache."""
        return self.cache_hits / self.samples if self.samples else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict snapshot (for logs and benchmark tables)."""
        return {
            "calls": self.calls,
            "samples": self.samples,
            "cache_hits": self.cache_hits,
            "hit_rate": self.hit_rate,
        }

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
        self._batch_stats = EngineBatchStats()
        self._batch_stats_lock = threading.Lock()

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

    @property
    def workers(self) -> int:
        """Effective worker count of the scheduler."""
        return self.scheduler.workers

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
    def _count_batch(self, samples: int, hits: int) -> None:
        """Count one batched call of ``samples`` samples, ``hits`` of them cached."""
        with self._batch_stats_lock:
            self._batch_stats.calls += 1
            self._batch_stats.samples += samples
            self._batch_stats.cache_hits += hits

    def evaluate_batch(
        self,
        netlist: Netlist,
        settings_batch: Sequence[SettingsBatch],
        wavelengths: Optional[np.ndarray] = None,
        *,
        port_spec: Optional[PortSpec] = None,
        merge: bool = True,
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
            self.simulation_key(apply_settings(netlist, overrides, merge), wavelengths, port_spec)
            for overrides in settings_batch
        ]
        results: List[Optional[SMatrix]] = [self.cache.get(key) for key in keys]
        hits = sum(result is not None for result in results)
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
                merge=merge,
            )
            fresh = dict(zip(misses, solved))
            for key, smatrix in fresh.items():
                self.cache.put(key, smatrix)
            results = [fresh.get(key, result) for key, result in zip(keys, results)]
        self._count_batch(len(settings_batch), hits)
        return results  # type: ignore[return-value]

    def evaluate_many(
        self,
        netlists: Sequence[Netlist],
        wavelengths: Optional[np.ndarray] = None,
        *,
        batch_size: int,
        port_specs: Optional[Sequence[Optional[PortSpec]]] = None,
        return_exceptions: bool = False,
    ) -> List[Union[SMatrix, Exception]]:
        """Evaluate many (possibly unrelated) netlists, batching where possible.

        Netlists are grouped by settings-stripped structure (same instances,
        connections, ports and models -- see
        :func:`repro.sim.batch.structural_key`) and port spec; each group is
        re-expressed as one base netlist plus per-sample settings and
        dispatched through the fused batch path in chunks of ``batch_size``
        (values <= 1 fall back to per-item solves).  Per-item cache keys are
        unchanged, so results interoperate with individually evaluated
        netlists.  As in :meth:`evaluate`, each cache miss visits the
        ``solver.evaluate`` fault point once, with its key, before anything
        is solved.

        With ``return_exceptions=True`` a failing item contributes its
        exception (the same classified error :meth:`evaluate` would raise)
        instead of aborting the whole call; a group whose fused evaluation
        fails is retried item by item so one bad sample never poisons its
        group.
        """
        wavelengths = normalize_wavelengths(wavelengths)
        specs: List[Optional[PortSpec]] = (
            list(port_specs) if port_specs is not None else [None] * len(netlists)
        )
        if len(specs) != len(netlists):
            raise ValueError(
                f"port_specs length {len(specs)} does not match {len(netlists)} netlists"
            )
        keys = [
            self.simulation_key(netlist, wavelengths, spec)
            for netlist, spec in zip(netlists, specs)
        ]
        results: List[Optional[Union[SMatrix, Exception]]] = [self.cache.get(key) for key in keys]
        hits = sum(result is not None for result in results)

        def solve_item(index: int) -> None:
            """Per-item fallback replicating :meth:`evaluate` semantics."""
            try:
                smatrix = self.solver.evaluate(
                    netlists[index], wavelengths, port_spec=specs[index]
                )
            except Exception as error:  # noqa: BLE001 - classified by the caller
                if not return_exceptions:
                    raise
                results[index] = error
                return
            self.cache.put(keys[index], smatrix)
            results[index] = smatrix

        misses = []
        for index in range(len(netlists)):
            if results[index] is not None:
                continue
            try:
                fault_point("solver.evaluate", key=keys[index])
            except Exception as error:  # noqa: BLE001 - the item's own result
                if not return_exceptions:
                    raise
                results[index] = error
                continue
            misses.append(index)
        if batch_size <= 1:
            for index in misses:
                solve_item(index)
        else:
            groups: Dict[Tuple[str, Optional[Tuple[int, int]]], List[int]] = {}
            for index in misses:
                spec = specs[index]
                spec_key = (spec.num_inputs, spec.num_outputs) if spec is not None else None
                groups.setdefault(
                    (structural_key(netlists[index]), spec_key), []
                ).append(index)
            for members in groups.values():
                for start in range(0, len(members), batch_size):
                    chunk = members[start : start + batch_size]
                    # Settings dicts are passed by reference: the batch
                    # path treats overrides as read-only.
                    overrides = [
                        {
                            name: inst.settings
                            for name, inst in netlists[index].instances.items()
                        }
                        for index in chunk
                    ]
                    try:
                        solved = self.solver.evaluate_batch(
                            netlists[chunk[0]],
                            overrides,
                            wavelengths,
                            port_spec=specs[chunk[0]],
                            merge=False,
                        )
                    except Exception:  # noqa: BLE001 - isolate the failing item
                        for index in chunk:
                            solve_item(index)
                        continue
                    for index, smatrix in zip(chunk, solved):
                        results[index] = smatrix
                        self.cache.put(keys[index], smatrix)
        self._count_batch(len(netlists), hits)
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
    def batch_stats(self) -> EngineBatchStats:
        """Counters of the engine's batched entry points."""
        return self._batch_stats

    def stats(self) -> Dict[str, object]:
        """Snapshot of the engine's cache behaviour (for logs and benchmarks)."""
        solver_stats = self.solver.instance_cache_stats()
        plan_stats = self.solver.plan_cache_stats()
        solver_batch = self.solver.batch_stats()
        return {
            "workers": self.workers,
            "simulation_cache": self.cache.stats.as_dict(),
            "simulation_hit_rate": self.cache.stats.hit_rate,
            "instance_cache": solver_stats.as_dict(),
            "instance_hit_rate": solver_stats.hit_rate,
            "plan_cache": plan_stats.as_dict(),
            "plan_hit_rate": plan_stats.hit_rate,
            "batch": self._batch_stats.as_dict(),
            "batch_hit_rate": self._batch_stats.hit_rate,
            "solver_batch": solver_batch.as_dict(),
            "batch_fusion_rate": solver_batch.fusion_rate,
            "solver_degradations": self.solver.degradation_stats(),
            "cache_nonfinite_rejected": self.cache.nonfinite_rejected,
            "faults": fault_stats(),
        }


def stats_delta(
    before: Dict[str, object], after: Dict[str, object]
) -> Dict[str, object]:
    """What one slice of work added to an engine's :meth:`~ExecutionEngine.stats`.

    Long-running services share one engine across many jobs, so absolute
    counters conflate every job that ever ran; the delta of two snapshots
    isolates a single job's cache behaviour (e.g. "did job 2 get warm
    plan-cache hits?").  Numeric leaves are subtracted recursively; rate
    leaves (``*rate*`` keys) are recomputed from the sibling hit/miss
    deltas where possible and dropped otherwise (a rate of deltas is not
    the delta of rates); non-numeric leaves keep their ``after`` value.
    """
    delta: Dict[str, object] = {}
    for key, after_value in after.items():
        before_value = before.get(key)
        if isinstance(after_value, dict):
            delta[key] = stats_delta(
                before_value if isinstance(before_value, dict) else {}, after_value
            )
        elif (
            isinstance(after_value, bool)
            or not isinstance(after_value, (int, float))
            or key == "workers"
        ):
            # Configuration leaves are not counters: keep the current value.
            delta[key] = after_value
        elif "rate" in key:
            continue  # recomputed below when the numerators are present
        else:
            base = before_value if isinstance(before_value, (int, float)) else 0
            delta[key] = after_value - base
    for key, value in delta.items():
        if isinstance(value, dict) and "hits" in value and "misses" in value:
            hits, misses = value["hits"], value["misses"]
            total = (hits or 0) + (misses or 0)  # type: ignore[operator]
            value["hit_rate"] = (hits or 0) / total if total else 0.0  # type: ignore[operator]
    return delta
