"""The service's prioritised, cancellable job queue.

:class:`JobQueue` decouples job *submission* from job *execution*: `submit`
returns immediately with a job id and a bounded pool of worker threads
drains the queue in priority order (lower value first; equal priorities run
in strict submission order, so the queue is starvation-free and fair).

Failure containment follows the PR 6 ``UnitFailure`` pattern: a job whose
executor raises is recorded ``FAILED`` with the exception message and full
traceback on the job record, and the worker thread survives to run the next
job -- a crashed job never poisons the queue.  Cancellation is two-tier:
a still-queued job is cancelled instantly; a running job gets its
``cancel_event`` set and transitions to ``CANCELLED`` at the executor's
next checkpoint (executors raise :class:`JobCancelled` when they observe
the event).
"""

from __future__ import annotations

import enum
import heapq
import itertools
import threading
import time
import traceback
import uuid
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .spec import JobSpec

__all__ = ["JobCancelled", "JobQueue", "JobRecord", "JobState", "QueueFullError"]


class JobCancelled(Exception):
    """Raised by an executor observing its job's cancellation request."""


class QueueFullError(RuntimeError):
    """A submit was rejected because the queue is at its ``max_queued`` bound.

    Carries the rejection context (``depth``, ``max_queued``) so the daemon
    can answer with a structured ``queue_full`` error instead of a dropped
    connection or an opaque message.
    """

    def __init__(self, depth: int, max_queued: int) -> None:
        super().__init__(
            f"job queue is full ({depth} queued, max_queued={max_queued})"
        )
        self.depth = depth
        self.max_queued = max_queued


class JobState(str, enum.Enum):
    """Lifecycle of a job: ``queued -> running -> done/failed/cancelled``."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        """Whether the state is final (the job will never change again)."""
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


@dataclass
class JobRecord:
    """One job's full lifecycle record (live object; snapshot via `to_dict`).

    ``error``/``error_traceback`` carry a failed executor's exception text
    and formatted traceback (the ``UnitFailure`` containment pattern);
    ``run_id`` references the results store's run row once the job is done;
    ``engine_stats`` is the job's sweep ``engine_stats``: what *this* job
    added to the engine counters, on either tier (warm-cache regression
    tests read it).
    """

    job_id: str
    spec: JobSpec
    priority: int = 0
    state: JobState = JobState.QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    error_traceback: Optional[str] = None
    run_id: Optional[str] = None
    deduplicated: bool = False
    engine_stats: Optional[Dict[str, object]] = None
    result: Optional[object] = None
    cancel_event: threading.Event = field(default_factory=threading.Event, repr=False)
    done_event: threading.Event = field(default_factory=threading.Event, repr=False)

    def checkpoint(self) -> None:
        """Executor-side cancellation checkpoint.

        Executors call this between units of work; it raises
        :class:`JobCancelled` once cancellation has been requested.
        """
        if self.cancel_event.is_set():
            raise JobCancelled(self.job_id)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot (protocol `status` responses, store rows)."""
        return {
            "job_id": self.job_id,
            "spec": self.spec.to_dict(),
            "spec_fingerprint": self.spec.fingerprint(),
            "priority": self.priority,
            "state": self.state.value,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "error_traceback": self.error_traceback,
            "run_id": self.run_id,
            "deduplicated": self.deduplicated,
            "engine_stats": self.engine_stats,
        }


class JobQueue:
    """Priority job queue with bounded worker concurrency.

    Parameters
    ----------
    executor:
        Callable running one job: ``executor(record)``'s return value is
        stored on ``record.result``.  Raising :class:`JobCancelled` marks
        the job ``CANCELLED``; any other exception marks it ``FAILED`` and
        is contained to that job.
    workers:
        Number of worker threads draining the queue (>= 1).  At most this
        many jobs are ever RUNNING at once.
    on_update:
        Optional hook called (from queue/worker threads) after every state
        transition -- the service uses it to persist job metadata.  Hook
        exceptions are swallowed: persistence must never kill a worker.
        A record made runnable through :meth:`enqueue` (rather than
        :meth:`submit`) was persisted by its caller, so its QUEUED state is
        not reported again.
    max_queued:
        Backpressure bound: when set, a submit finding this many jobs
        already QUEUED raises :class:`QueueFullError` instead of accepting
        unbounded work.  Running jobs do not count against the bound, and
        recovery re-adoption deliberately bypasses it (a restart must never
        drop journaled work).  ``None`` (default) keeps the queue unbounded.
    """

    def __init__(
        self,
        executor: Callable[[JobRecord], object],
        *,
        workers: int = 1,
        on_update: Optional[Callable[[JobRecord], None]] = None,
        max_queued: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("JobQueue needs at least one worker")
        if max_queued is not None and max_queued < 1:
            raise ValueError("max_queued must be >= 1 (or None for unbounded)")
        self._executor = executor
        self._on_update = on_update
        self.max_queued = max_queued
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._heap: List[tuple] = []  # (priority, seq, job_id)
        self._seq = itertools.count()
        self._jobs: Dict[str, JobRecord] = {}
        self._order: List[str] = []  # submission order, for `list`
        self._queued = 0  # jobs currently in QUEUED state
        self._shutdown = False
        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"job-worker-{i}", daemon=True)
            for i in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec, *, priority: int = 0) -> str:
        """Enqueue a job; returns its id immediately.

        Lower ``priority`` values run first; ties run in submission order.
        Raises :class:`QueueFullError` when ``max_queued`` is set and
        reached.  Callers that must persist the accepted job *before* it can
        start running use the :meth:`prepare` / :meth:`enqueue` split
        instead; ``submit`` is ``enqueue(prepare(...))`` plus the QUEUED
        ``on_update`` notification.
        """
        record = self.prepare(spec, priority=priority)
        self.enqueue(record)
        self._notify(record)
        return record.job_id

    def prepare(self, spec: JobSpec, *, priority: int = 0) -> JobRecord:
        """Validate a spec and mint its job record WITHOUT queueing it.

        The record is not yet visible to :meth:`get`/:meth:`jobs` and no
        worker can pick it up -- the journal-before-acknowledge seam: the
        service persists the prepared record, then calls :meth:`enqueue`.
        """
        spec.validate()
        job_id = f"job-{uuid.uuid4().hex[:12]}"
        return JobRecord(job_id=job_id, spec=spec, priority=int(priority))

    def enqueue(self, record: JobRecord, *, enforce_bound: bool = True) -> str:
        """Make a prepared record runnable; returns its job id.

        With ``enforce_bound`` (the default) a full queue raises
        :class:`QueueFullError` before the record becomes visible.  The
        ``on_update`` hook is not called: the caller already persisted the
        QUEUED record (or, on recovery, read it from the store).
        """
        with self._not_empty:
            if self._shutdown:
                raise RuntimeError("the job queue is shut down")
            if (
                enforce_bound
                and self.max_queued is not None
                and self._queued >= self.max_queued
            ):
                raise QueueFullError(self._queued, self.max_queued)
            self._jobs[record.job_id] = record
            self._order.append(record.job_id)
            self._queued += 1
            heapq.heappush(self._heap, (record.priority, next(self._seq), record.job_id))
            self._not_empty.notify()
        return record.job_id

    def adopt(self, record: JobRecord, *, requeue: bool = False) -> None:
        """Register an externally-built job record.

        Without ``requeue`` (store-level dedup) the record must already be
        terminal; it becomes visible to :meth:`get`/:meth:`jobs` without
        ever entering the run queue.  With ``requeue`` (crash recovery) a
        non-terminal record is reset to QUEUED -- keeping its job id,
        priority and original submission time -- and enters the run queue,
        bypassing ``max_queued`` (a restart must never drop journaled work).
        """
        if requeue:
            if record.state.terminal:
                raise ValueError("adopt(requeue=True) needs a non-terminal record")
            record.state = JobState.QUEUED
            record.started_at = None
            self.enqueue(record, enforce_bound=False)
            return
        if not record.state.terminal:
            raise ValueError("adopt() only accepts terminal job records")
        with self._lock:
            self._jobs[record.job_id] = record
            self._order.append(record.job_id)
        self._notify(record)
        record.done_event.set()

    def depth(self) -> int:
        """How many jobs are currently QUEUED (the backpressure measure)."""
        with self._lock:
            return self._queued

    def worker_liveness(self) -> Dict[str, int]:
        """Worker-pool health: configured vs currently alive threads."""
        alive = sum(1 for worker in self._workers if worker.is_alive())
        return {"workers": len(self._workers), "alive": alive}

    def get(self, job_id: str) -> JobRecord:
        """Look up one job record (raises ``KeyError`` on unknown ids)."""
        with self._lock:
            return self._jobs[job_id]

    def jobs(self) -> List[JobRecord]:
        """Every known job, in submission order."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def cancel(self, job_id: str) -> bool:
        """Request cancellation of a job.

        A queued job is cancelled immediately; a running job is asked to
        stop at its next checkpoint (``True`` is returned for both).  Jobs
        already terminal return ``False``.
        """
        with self._lock:
            record = self._jobs[job_id]
            if record.state is JobState.QUEUED:
                # Instant cancellation; the heap entry becomes stale and is
                # skipped by the worker that eventually pops it.
                record.cancel_event.set()
                self._finish(record, JobState.CANCELLED)
                self._queued -= 1
                cancelled = True
            elif record.state is JobState.RUNNING:
                record.cancel_event.set()
                cancelled = True
            else:
                cancelled = False
        if cancelled and record.state is JobState.CANCELLED:
            self._notify(record)
            record.done_event.set()
        return cancelled

    def wait(self, job_id: str, timeout: Optional[float] = None) -> JobRecord:
        """Block until a job reaches a terminal state (or ``timeout`` runs out).

        Returns the record either way; check ``record.state.terminal``.
        """
        record = self.get(job_id)
        record.done_event.wait(timeout)
        return record

    def shutdown(self, *, wait: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting jobs; optionally wait for workers to drain.

        Queued jobs still run; submit() raises afterwards.  With
        ``wait=False`` workers finish in the background (they are daemons).
        """
        with self._not_empty:
            self._shutdown = True
            self._not_empty.notify_all()
        if wait:
            deadline = None if timeout is None else time.monotonic() + timeout
            for worker in self._workers:
                remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
                worker.join(remaining)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _next_job(self) -> Optional[JobRecord]:
        """Pop the next runnable job (None = shut down and drained)."""
        with self._not_empty:
            while True:
                while self._heap:
                    _, _, job_id = heapq.heappop(self._heap)
                    record = self._jobs[job_id]
                    if record.state is not JobState.QUEUED:
                        continue  # cancelled while queued: stale heap entry
                    record.state = JobState.RUNNING
                    record.started_at = time.time()
                    self._queued -= 1
                    return record
                if self._shutdown:
                    return None
                self._not_empty.wait()

    def _finish(self, record: JobRecord, state: JobState) -> None:
        """Transition a job to a terminal state.

        ``done_event`` is deliberately NOT set here: callers fire it only
        after the terminal-state `on_update` notification ran, so a
        returned :meth:`wait` guarantees the hook (the service's store
        write) already observed the terminal state.
        """
        record.state = state
        record.finished_at = time.time()

    def _notify(self, record: JobRecord) -> None:
        """Run the on_update hook, containing its failures."""
        if self._on_update is None:
            return
        try:
            self._on_update(record)
        except Exception:  # noqa: BLE001 - persistence must not kill workers
            pass

    def _worker_loop(self) -> None:
        """One worker thread: pop, run, contain, repeat."""
        while True:
            record = self._next_job()
            if record is None:
                return
            self._notify(record)
            try:
                record.result = self._executor(record)
            except JobCancelled:
                self._finish(record, JobState.CANCELLED)
            except Exception as error:  # noqa: BLE001 - UnitFailure containment
                record.error = f"{type(error).__name__}: {error}"
                record.error_traceback = traceback.format_exc()
                self._finish(record, JobState.FAILED)
            else:
                # A cancel request the executor never observed (it finished
                # first) does not un-do completed work: the job is DONE.
                self._finish(record, JobState.DONE)
            self._notify(record)
            record.done_event.set()
