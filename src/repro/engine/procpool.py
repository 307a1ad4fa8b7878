"""Process-sharded work-unit execution (the sweep's multi-core tier).

The thread scheduler (:mod:`repro.engine.scheduler`) parallelises I/O and
releases-the-GIL numpy sections, but a sweep dominated by pure-Python
evaluation code gains nothing from more threads.  This module adds the
process tier: work units are sharded across ``multiprocessing`` workers,
each of which rebuilds its execution context from a small picklable *spec*
-- never from live objects -- and the parent merges shard results back in
submission order, so process-sharded runs are byte-identical to sequential
ones whenever each unit's result is a pure function of its task spec.

Layering: this module knows nothing about the harness.  Callers describe
their worker-side code as dotted ``"module:function"`` references, which the
worker resolves by import -- the references travel as strings, so the spec
stays picklable under both ``fork`` and ``spawn`` start methods:

``builder_ref(payload) -> context``
    Runs once per worker process and builds whatever live state the units
    need (engine, caches, clients).
``runner_ref(context, task) -> result``
    Runs one task; a shard runs its tasks one after another.
``stats_ref(context) -> dict``
    Optional cumulative counters snapshot of one worker, taken after each
    shard; the parent keeps each worker process's latest snapshot, so
    :func:`aggregate_engine_stats` counts every worker once.

Failure isolation: an exception inside a unit is captured and returned as a
:class:`UnitFailure` for that unit only.  A worker *crash* (segfault,
``os._exit``, OOM kill) breaks the whole pool; the affected shards are
re-run one unit at a time on fresh single-worker pools under a budgeted
:class:`~repro.faults.RetryPolicy`, so exactly the units that exhaust their
retry budget come back as crashed :class:`UnitFailure` entries while every
other unit's result survives.  An optional per-unit timeout arms a watchdog:
a shard that stops making progress for ``unit_timeout`` seconds per
remaining unit is declared hung, its worker processes are terminated, and
its units go through the same single-unit retry path.  Retry / crash /
timeout counters are exposed on :attr:`ProcessScheduler.counters` and merged
into the sweep's engine stats.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import pickle
import signal
import time
import traceback
import uuid
from concurrent.futures import FIRST_COMPLETED, as_completed, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..faults import RetryPolicy, fault_point

__all__ = [
    "ProcessScheduler",
    "UnitFailure",
    "WorkerSpec",
    "aggregate_engine_stats",
    "resolve_processes",
    "resolve_ref",
]


def resolve_processes(processes: int) -> int:
    """Concrete worker-process count: ``> 0`` passes through, else one per core."""
    if processes > 0:
        return processes
    return os.cpu_count() or 1


def resolve_ref(ref: str) -> Callable:
    """Resolve a dotted ``"module:qualname"`` reference to a callable."""
    module_name, _, qualname = ref.partition(":")
    if not module_name or not qualname:
        raise ValueError(f"worker reference {ref!r} is not of the form 'module:function'")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise TypeError(f"worker reference {ref!r} resolved to a non-callable")
    return obj


@dataclass(frozen=True)
class WorkerSpec:
    """Picklable description of how a worker process builds its context.

    ``payload`` must contain only picklable values (names, parameters,
    seeds, configuration dataclasses) -- never engines, caches, locks or
    open handles.  The worker resolves ``builder_ref`` and calls it once
    with ``payload``; the returned context is process-local.
    """

    builder_ref: str
    payload: Any = None


@dataclass
class UnitFailure:
    """Outcome of a unit whose worker raised (``crashed=False``) or died.

    ``exception`` carries the original exception object when it survived
    pickling back to the parent; ``traceback_text`` always carries the
    worker-side traceback for diagnostics.  ``timed_out`` marks units whose
    worker was killed by the watchdog rather than dying on its own.
    """

    message: str
    crashed: bool = False
    traceback_text: str = ""
    exception: Optional[BaseException] = None
    timed_out: bool = False


#: Default per-unit retry budget of the crash/timeout recovery path: each
#: suspect unit gets two isolated attempts (plus its original shard run)
#: with a short backoff between them.
_DEFAULT_UNIT_RETRY = RetryPolicy(attempts=2, base_delay=0.1, max_delay=1.0)


# ----------------------------------------------------------------------
# Worker-side entry points (module-level: picklable under spawn)
# ----------------------------------------------------------------------
_WORKER_CONTEXT: Any = None

#: This worker process's identity (its pid plus a token, so a recycled pid is
#: a new worker) and how many shards it has run: the parent keeps only the
#: latest of a worker's cumulative stats snapshots.
_WORKER_ID: str = ""
_WORKER_SHARDS = 0


def _worker_init(builder_ref: str, payload: Any) -> None:
    """Pool initializer: build this process's context from the spec.

    SIGTERM gets its default action back first: a worker forked from a
    process with a SIGTERM handler (a ``serve`` daemon's graceful drain)
    would otherwise run that handler instead of stopping when the watchdog
    terminates it.
    """
    global _WORKER_CONTEXT, _WORKER_ID
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _WORKER_ID = f"{os.getpid()}:{uuid.uuid4().hex}"
    _WORKER_CONTEXT = resolve_ref(builder_ref)(payload)


def _capture_failure(exc: BaseException) -> UnitFailure:
    """Wrap a worker-side exception so it pickles back to the parent."""
    carried: Optional[BaseException] = exc
    try:
        pickle.dumps(exc)
    except Exception:  # noqa: BLE001 - any pickling trouble drops the object
        carried = None
    return UnitFailure(
        message=f"{type(exc).__name__}: {exc}",
        traceback_text=traceback.format_exc(),
        exception=carried,
    )


def _worker_run_shard(
    runner_ref: str,
    tasks: List[Any],
    stats_ref: Optional[str],
) -> Tuple[List[Any], Optional[Tuple[str, int, Dict[str, object]]]]:
    """Run one shard of tasks; each slot is a result or a UnitFailure.

    The stats entry is ``(worker id, shards run, snapshot)`` or ``None``.
    """
    global _WORKER_SHARDS
    _WORKER_SHARDS += 1
    runner = resolve_ref(runner_ref)
    results: List[Any] = []
    for task in tasks:
        try:
            fault_point("procpool.unit", key=repr(task))
            results.append(runner(_WORKER_CONTEXT, task))
        except Exception as exc:  # noqa: BLE001 - isolated per unit
            results.append(_capture_failure(exc))
    stats = None
    if stats_ref is not None:
        try:
            stats = (_WORKER_ID, _WORKER_SHARDS, resolve_ref(stats_ref)(_WORKER_CONTEXT))
        except Exception:  # noqa: BLE001 - stats are best-effort
            stats = None
    return results, stats


# ----------------------------------------------------------------------
# Parent-side scheduler
# ----------------------------------------------------------------------
def _keep_latest(
    latest: Dict[str, Tuple[int, Dict[str, object]]],
    stats: Optional[Tuple[str, int, Dict[str, object]]],
) -> None:
    """Record a shard's stats entry unless its worker already sent a later one."""
    if stats is None:
        return
    worker, shards, snapshot = stats
    if worker not in latest or latest[worker][0] < shards:
        latest[worker] = (shards, snapshot)


class ProcessScheduler:
    """Shards tasks over a process pool with order-preserving merge.

    Parameters
    ----------
    spec:
        How each worker builds its context (see :class:`WorkerSpec`).
    processes:
        Worker-process count; ``0`` means one per core.
    start_method:
        ``multiprocessing`` start method (``None`` = platform default,
        ``fork`` on Linux; pass ``"spawn"`` to exercise the stricter
        pickling path).
    shards_per_worker:
        Target number of shards per worker.  More shards give better load
        balancing and finer crash blast-radius; fewer amortise per-shard
        dispatch better.
    retry_policy:
        Per-unit retry budget of the crash/timeout recovery path (attempts
        count the *isolated* re-runs, not the original shard run).  Defaults
        to two isolated attempts with a short backoff.
    unit_timeout:
        Optional seconds one unit may run before its worker is presumed
        hung.  Arms the shard watchdog (budget: ``unit_timeout`` x units
        still pending in the shard) and bounds each isolated retry; the
        watchdog terminates the hung workers and routes their units through
        the retry path.  ``None`` (the default) disables timeouts.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        *,
        processes: int = 0,
        start_method: Optional[str] = None,
        shards_per_worker: int = 4,
        retry_policy: Optional[RetryPolicy] = None,
        unit_timeout: Optional[float] = None,
    ) -> None:
        self.spec = spec
        self.processes = resolve_processes(processes)
        self.start_method = start_method
        self.shards_per_worker = max(1, int(shards_per_worker))
        self.retry_policy = retry_policy or _DEFAULT_UNIT_RETRY
        self.unit_timeout = float(unit_timeout) if unit_timeout else None
        #: Robustness counters, accumulated across this scheduler's ``map``
        #: calls and merged into sweep engine stats under ``"procpool"``.
        self.counters: Dict[str, int] = {
            "unit_retries": 0,
            "unit_crashes": 0,
            "unit_timeouts": 0,
            "shard_timeouts": 0,
        }

    # ------------------------------------------------------------------
    def _context(self):
        if self.start_method is None:
            return multiprocessing.get_context()
        return multiprocessing.get_context(self.start_method)

    def _pool(self, mp_context, max_workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=mp_context,
            initializer=_worker_init,
            initargs=(self.spec.builder_ref, self.spec.payload),
        )

    @staticmethod
    def shard_bounds(count: int, shards: int) -> List[Tuple[int, int]]:
        """Split ``range(count)`` into at most ``shards`` contiguous spans.

        The equal-count split is :meth:`map`'s default.  A caller that knows
        its units' costs and shared work passes its own ``bounds`` instead:
        the sweep harness gives each shard one problem's units, costliest
        problem first.
        """
        shards = max(1, min(shards, count))
        base, extra = divmod(count, shards)
        bounds: List[Tuple[int, int]] = []
        lo = 0
        for index in range(shards):
            hi = lo + base + (1 if index < extra else 0)
            bounds.append((lo, hi))
            lo = hi
        return bounds

    # ------------------------------------------------------------------
    def map(
        self,
        runner_ref: str,
        tasks: Sequence[Any],
        *,
        stats_ref: Optional[str] = None,
        on_result: Optional[Callable[[int, Any], None]] = None,
        bounds: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> Tuple[List[Any], List[Dict[str, object]]]:
        """Run every task; slot ``i`` of the result is task ``i``'s outcome.

        Returns ``(results, stats)``: ``results[i]`` is the runner's return
        value or a :class:`UnitFailure`; ``stats`` holds the latest snapshot
        of each worker process when ``stats_ref`` is given (snapshots are
        cumulative, so summing them counts every worker once).  The merge is
        by task index, so the output order never depends on worker
        scheduling.

        ``bounds`` lists the shards as contiguous ``(lo, hi)`` spans covering
        every task once, in submission order; the default is
        :meth:`shard_bounds` over ``shards_per_worker`` shards per process.

        ``on_result(index, result)`` fires in the parent as each unit's
        outcome lands (shard completion order, not index order) -- the
        journalling hook: a checkpoint written there survives a parent
        kill even though ``map`` itself never returned.  An exception it
        raises ends the map: the shards still queued are dropped, those
        already running finish, and the exception propagates.
        """
        tasks = list(tasks)
        results: List[Any] = [None] * len(tasks)
        latest: Dict[str, Tuple[int, Dict[str, object]]] = {}
        if not tasks:
            return results, []
        processes = min(self.processes, len(tasks))
        if bounds is None:
            bounds = self.shard_bounds(len(tasks), processes * self.shards_per_worker)
        mp_context = self._context()
        retry_spans: List[Tuple[int, int]] = []
        pool = self._pool(mp_context, min(processes, len(bounds)))
        try:
            future_spans = {}
            for lo, hi in bounds:
                try:
                    future = pool.submit(_worker_run_shard, runner_ref, tasks[lo:hi], stats_ref)
                except BrokenProcessPool:
                    retry_spans.append((lo, hi))
                    continue
                future_spans[future] = (lo, hi)

            def merge(future) -> None:
                lo, hi = future_spans[future]
                try:
                    shard_results, stats = future.result()
                except BrokenProcessPool:
                    # A worker died mid-shard; every unit of the shard is
                    # suspect and gets retried in isolation below.
                    self.counters["unit_crashes"] += 1
                    retry_spans.append((lo, hi))
                else:
                    results[lo:hi] = shard_results
                    _keep_latest(latest, stats)
                    if on_result is not None:
                        for offset, value in enumerate(shard_results):
                            on_result(lo + offset, value)

            if self.unit_timeout is None:
                for future in as_completed(future_spans):
                    merge(future)
            else:
                self._watch(pool, future_spans, retry_spans, merge)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        if retry_spans:
            self._retry_units(
                retry_spans,
                runner_ref,
                tasks,
                stats_ref,
                results,
                latest,
                mp_context,
                on_result,
            )
        return results, [snapshot for _, snapshot in latest.values()]

    def _watch(self, pool, future_spans, retry_spans, merge) -> None:
        """Progress watchdog over the in-flight shards.

        The hang budget is ``unit_timeout`` x the largest pending shard:
        as long as *some* shard completes within that window the sweep is
        making progress and the clock resets.  On expiry every worker
        process is terminated (queued shards then surface as
        ``BrokenProcessPool``) and all still-pending spans go through the
        single-unit retry path, which enforces the per-unit deadline
        exactly.
        """
        pending = set(future_spans)
        while pending:
            largest = max(hi - lo for lo, hi in (future_spans[f] for f in pending))
            budget = self.unit_timeout * largest
            done, pending = wait(pending, timeout=budget, return_when=FIRST_COMPLETED)
            for future in done:
                merge(future)
            if not done and pending:
                self.counters["shard_timeouts"] += 1
                self._terminate_workers(pool)
                for future in pending:
                    future.cancel()
                    retry_spans.append(future_spans[future])
                return

    @staticmethod
    def _terminate_workers(pool: ProcessPoolExecutor) -> None:
        """Hard-stop a pool's worker processes (the watchdog's kill switch)."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except OSError:
                pass

    def _retry_units(
        self,
        spans: List[Tuple[int, int]],
        runner_ref: str,
        tasks: List[Any],
        stats_ref: Optional[str],
        results: List[Any],
        latest: Dict[str, Tuple[int, Dict[str, object]]],
        mp_context,
        on_result: Optional[Callable[[int, Any], None]] = None,
    ) -> None:
        """Re-run suspect shards one unit at a time under the retry budget.

        Each unit gets up to ``retry_policy.attempts`` isolated runs on
        fresh single-worker pools (with backoff between attempts and the
        per-unit timeout enforced on each), so only units that *keep*
        killing or hanging their worker are marked as crashed
        :class:`UnitFailure` entries; their shard-mates complete normally.
        """
        policy = self.retry_policy
        indices = sorted(i for lo, hi in spans for i in range(lo, hi))
        pool: Optional[ProcessPoolExecutor] = None
        try:
            for index in indices:
                failure: Optional[UnitFailure] = None
                for attempt in range(policy.attempts):
                    if attempt > 0:
                        self.counters["unit_retries"] += 1
                        time.sleep(policy.delay(attempt - 1, seed=f"procpool.unit:{index}"))
                    if pool is None:
                        pool = self._pool(mp_context, 1)
                    try:
                        future = pool.submit(
                            _worker_run_shard, runner_ref, [tasks[index]], stats_ref
                        )
                        shard_results, stats = future.result(timeout=self.unit_timeout)
                    except FuturesTimeoutError:
                        self.counters["unit_timeouts"] += 1
                        self._terminate_workers(pool)
                        pool.shutdown(wait=True)
                        pool = None
                        failure = UnitFailure(
                            message=(
                                f"unit timed out after {self.unit_timeout:g}s "
                                "and its worker was killed"
                            ),
                            crashed=True,
                            timed_out=True,
                        )
                        continue
                    except BrokenProcessPool:
                        self.counters["unit_crashes"] += 1
                        pool.shutdown(wait=True)
                        pool = None
                        failure = UnitFailure(
                            message=(
                                "worker process crashed while running this unit "
                                f"({attempt + 1} isolated attempt(s), plus the "
                                "original shard)"
                            ),
                            crashed=True,
                        )
                        continue
                    results[index] = shard_results[0]
                    _keep_latest(latest, stats)
                    if on_result is not None:
                        on_result(index, shard_results[0])
                    failure = None
                    break
                if failure is not None:
                    results[index] = failure
                    if on_result is not None:
                        on_result(index, failure)
        finally:
            if pool is not None:
                pool.shutdown(wait=True)


# ----------------------------------------------------------------------
# Stats aggregation
# ----------------------------------------------------------------------
#: Descriptive (non-counter) keys of ``ExecutionEngine.stats()`` snapshots:
#: identical across workers, kept as-is instead of summed.
_DESCRIPTIVE_KEYS = ("workers",)

#: Hit-rate keys and the counter sub-dict each is recomputed from.
_HIT_RATE_SOURCES = {
    "simulation_hit_rate": "simulation_cache",
    "instance_hit_rate": "instance_cache",
    "plan_hit_rate": "plan_cache",
    "batch_hit_rate": "batch",
}


def _merge_counters(dst: Dict[str, object], src: Dict[str, object]) -> None:
    for key, value in src.items():
        if isinstance(value, dict):
            node = dst.setdefault(key, {})
            if isinstance(node, dict):
                _merge_counters(node, value)
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            dst[key] = value
        elif key in _DESCRIPTIVE_KEYS or key.endswith("_rate"):
            dst[key] = value  # rates are recomputed from merged counters below
        else:
            dst[key] = dst.get(key, 0) + value


def aggregate_engine_stats(
    stats_list: Sequence[Dict[str, object]],
) -> Dict[str, object]:
    """Merge per-worker ``ExecutionEngine.stats()`` snapshots into one.

    Integer counters sum across workers (nested dicts recursively); the
    descriptive keys keep their per-worker value (identical everywhere);
    every derived rate is recomputed from the merged counters rather than
    averaged, so the aggregate reads exactly like a single engine that did
    all the work.
    """
    merged: Dict[str, object] = {}
    for stats in stats_list:
        if isinstance(stats, dict):
            _merge_counters(merged, stats)
    for rate_key, counters_key in _HIT_RATE_SOURCES.items():
        counters = merged.get(counters_key)
        if isinstance(counters, dict):
            hits = counters.get("hits", 0)
            lookups = hits + counters.get("misses", 0)
            merged[rate_key] = hits / lookups if lookups else 0.0
    solver_batch = merged.get("solver_batch")
    if isinstance(solver_batch, dict):
        samples = solver_batch.get("samples", 0)
        passes = solver_batch.get("executor_passes", 0)
        rate = 1.0 - passes / samples if samples else 0.0
        solver_batch["fusion_rate"] = rate
        merged["batch_fusion_rate"] = rate
    return merged
