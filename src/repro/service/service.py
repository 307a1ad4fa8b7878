"""The evaluation service: job queue + results store + one shared engine.

:class:`EvalService` is the in-process backend both the daemon and the
tests drive.  It fixes the CLI's one-shot assumption: a single
:class:`~repro.engine.engine.ExecutionEngine` (one compiled-plan cache, one
simulation cache, one golden store per pack) outlives every job, so the
second job on a structurally similar spec starts *warm* -- plan-cache and
simulation-cache hits instead of cold recompiles.  Each job's
``SweepResult.engine_stats`` (what the job added to the engine counters)
makes that observable and is persisted with its run.

Each job runs as one :func:`~repro.harness.runner.run_sweep` over its
models and restriction settings, journaled under the job's fingerprint.
Thread-mode jobs run on the shared engine; process-mode jobs shard the
sweep across a :class:`~repro.engine.procpool.ProcessScheduler` pool whose
workers share the service's ``cache_dir`` disk tiers instead of its
in-memory engine.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..bench.golden import GoldenStore
from ..engine.engine import EngineConfig, ExecutionEngine
from ..faults import fault_point
from ..evalkit.outcome import EvalReport
from ..harness import runner
from ..llm.profiles import get_profile
from .diff import RunDiff, diff_runs
from .queue import JobQueue, JobRecord, JobState, QueueFullError
from .spec import JobSpec
from .store import ResultsStore

__all__ = ["EvalService"]


class EvalService:
    """Long-running evaluation backend (queue + store + warm shared engine).

    Parameters
    ----------
    db_path:
        The SQLite results database (created on first open).
    cache_dir:
        Optional on-disk cache directory shared by every job -- thread-mode
        jobs persist ``.npz``/plan artefacts there, and process-mode jobs'
        workers start warm from what earlier jobs left there.
    job_workers:
        Worker threads of the job queue = maximum concurrently RUNNING jobs.
    engine_workers:
        Thread-pool width of the shared engine (parallelism *within* one
        thread-mode job).
    journal_dir:
        Where per-job sweep journals live (default: ``<cache_dir>/journals``
        when ``cache_dir`` is set, else off).  With a journal directory the
        service checkpoints every completed trajectory and *always* resumes:
        a job resubmitted after a crash -- same spec, any execution mode --
        recomputes only the samples its journal is missing.
    max_queued:
        Backpressure bound on QUEUED jobs; a submit beyond it raises
        :class:`~repro.service.queue.QueueFullError` (the daemon answers a
        structured ``queue_full`` error).  ``None`` = unbounded.
    recover:
        When true, non-terminal jobs persisted by a previous (crashed)
        process are re-adopted on startup: still-``queued`` rows re-enter
        the run queue and ``running``-at-crash rows re-run from scratch
        through their sweep journals, so already-checkpointed trajectories
        are not recomputed and the stored reports come out byte-identical.
    """

    def __init__(
        self,
        db_path: Path | str,
        *,
        cache_dir: Optional[Path | str] = None,
        job_workers: int = 2,
        engine_workers: int = 1,
        journal_dir: Optional[Path | str] = None,
        max_queued: Optional[int] = None,
        recover: bool = False,
    ) -> None:
        self.store = ResultsStore(db_path)
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        if journal_dir is not None:
            self.journal_dir: Optional[str] = str(journal_dir)
        elif self.cache_dir is not None:
            self.journal_dir = str(Path(self.cache_dir) / "journals")
        else:
            self.journal_dir = None
        self.engine = ExecutionEngine(
            EngineConfig(workers=engine_workers, cache_dir=self.cache_dir)
        )
        self._golden_stores: Dict[Tuple[str, str, int], GoldenStore] = {}
        self._golden_lock = threading.Lock()
        # Idempotent re-submission: client-supplied key -> accepted job id.
        # In-memory on purpose -- it protects against the *client's own
        # transport retries* of one logical submit, not cross-restart
        # duplicates (those dedupe at the store level via `dedupe=True`).
        self._idempotency_lock = threading.Lock()
        self._idempotency: Dict[str, str] = {}
        self.queue = JobQueue(
            self._execute,
            workers=job_workers,
            on_update=self._persist_job,
            max_queued=max_queued,
        )
        self.started_at = time.time()
        self._recovery: Dict[str, object] = {"enabled": bool(recover), "recovered": 0}
        if recover:
            self.recover()

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: JobSpec,
        *,
        priority: int = 0,
        dedupe: bool = False,
        idempotency_key: Optional[str] = None,
    ) -> str:
        """Accept one job durably; returns its id.

        The accepted spec is journaled through the results store *before*
        this method returns (journal-before-acknowledge): a daemon crash
        after a successful submit can never silently drop the job --
        ``recover`` finds the persisted row and re-queues it.

        With ``dedupe=True`` a spec whose fingerprint already has a stored
        run short-circuits: the job is recorded DONE immediately, pointing
        at the existing run, and no evaluation work happens.

        ``idempotency_key`` makes re-submission safe: a second submit
        carrying a key already accepted by this process returns the original
        job id instead of creating a duplicate job (the client's transport
        retries use a per-call key, so one logical submit runs exactly once
        no matter how often its socket write is retried).
        """
        spec.validate()
        if idempotency_key is not None:
            with self._idempotency_lock:
                existing_id = self._idempotency.get(idempotency_key)
            if existing_id is not None:
                return existing_id
        if dedupe:
            existing = self.store.latest_run(spec.fingerprint())
            if existing is not None:
                record = JobRecord(job_id=f"job-dedup-{existing[:12]}", spec=spec)
                record.state = JobState.DONE
                record.started_at = record.finished_at = time.time()
                record.run_id = existing
                record.deduplicated = True
                self.queue.adopt(record)
                self._persist_job(record)
                self._remember_idempotent(idempotency_key, record.job_id)
                return record.job_id
        record = self.queue.prepare(spec, priority=priority)
        # Journal before acknowledging: unlike the queue's on_update hook
        # (which swallows persistence errors to protect workers), this write
        # is synchronous and raise-capable -- an unjournalable job is
        # rejected, never half-accepted.  It is the job's only QUEUED write:
        # `enqueue` leaves the hook out.
        fault_point("service.journal", key=record.job_id)
        self.store.record_job(record.to_dict())
        try:
            self.queue.enqueue(record)
        except QueueFullError:
            # The row was journaled before the bound check; mark it terminal
            # so a later --recover does not resurrect a rejected job.
            record.state = JobState.CANCELLED
            record.error = "rejected: queue full"
            record.finished_at = time.time()
            self._persist_job(record)
            raise
        self._remember_idempotent(idempotency_key, record.job_id)
        return record.job_id

    def _remember_idempotent(self, key: Optional[str], job_id: str) -> None:
        if key is None:
            return
        with self._idempotency_lock:
            self._idempotency[key] = job_id

    def recover(self) -> Dict[str, object]:
        """Re-adopt every non-terminal job the previous process left behind.

        ``queued`` rows re-enter the run queue; ``running``-at-crash rows
        are re-queued and re-run -- their sweep journals (always on when the
        service has a journal directory) make the re-run cheap and the
        stored reports byte-identical, and the store's content-addressed
        ``save_run`` dedups the recomputed run onto the original run id.
        Returns the recovery summary also served by :meth:`health`.
        """
        requeued = []
        for row in self.store.pending_jobs():
            spec = JobSpec.from_dict(dict(row["spec"]))  # type: ignore[arg-type]
            record = JobRecord(
                job_id=str(row["job_id"]),
                spec=spec,
                priority=int(row["priority"]),  # type: ignore[arg-type]
                state=JobState(str(row["state"])),
                submitted_at=float(row["submitted_at"]),  # type: ignore[arg-type]
            )
            self.queue.adopt(record, requeue=True)
            requeued.append(record.job_id)
        self._recovery = {
            "enabled": True,
            "recovered": len(requeued),
            "requeued_jobs": requeued,
            "at": time.time(),
        }
        return dict(self._recovery)

    def health(self) -> Dict[str, object]:
        """Liveness/utilisation snapshot (the daemon's ``health`` op)."""
        liveness = self.queue.worker_liveness()
        return {
            "uptime": time.time() - self.started_at,
            "queue_depth": self.queue.depth(),
            "max_queued": self.queue.max_queued,
            "workers": liveness,
            "store_writable": self.store.check_writable(),
            "recovery": dict(self._recovery),
        }

    def ready(self) -> Dict[str, object]:
        """Readiness verdict: can this service accept and run work right now?"""
        health = self.health()
        workers = health["workers"]
        ready = bool(
            workers["alive"] > 0 and health["store_writable"]  # type: ignore[index]
        )
        if self.queue.max_queued is not None:
            ready = ready and health["queue_depth"] < self.queue.max_queued  # type: ignore[operator]
        return {"ready": ready, **health}

    def status(self, job_id: str) -> JobRecord:
        """Live job record (falls back to the store for persisted-only jobs).

        The fallback is what makes polling survive a restart: a job that
        finished before a crash is not re-adopted by ``recover`` (it is
        terminal), but its store row still answers ``status`` -- so a
        client that submitted before the crash and polled across the
        restart sees DONE, not "unknown job".
        """
        try:
            return self.queue.get(job_id)
        except KeyError:
            row = self.store.load_job(job_id)  # KeyError when truly unknown
            record = JobRecord(
                job_id=str(row["job_id"]),
                spec=JobSpec.from_dict(dict(row["spec"])),  # type: ignore[arg-type]
                priority=int(row["priority"]),  # type: ignore[arg-type]
                state=JobState(str(row["state"])),
                submitted_at=float(row["submitted_at"]),  # type: ignore[arg-type]
                started_at=row["started_at"],  # type: ignore[arg-type]
                finished_at=row["finished_at"],  # type: ignore[arg-type]
                error=row["error"],  # type: ignore[arg-type]
                run_id=row["run_id"],  # type: ignore[arg-type]
            )
            if record.state.terminal:
                record.done_event.set()
            return record

    def cancel(self, job_id: str) -> bool:
        """Request cancellation (see :meth:`JobQueue.cancel`)."""
        return self.queue.cancel(job_id)

    def wait(self, job_id: str, timeout: Optional[float] = None) -> JobRecord:
        """Block until the job is terminal (or timeout)."""
        return self.queue.wait(job_id, timeout)

    def diff(self, baseline_run: str, candidate_run: str, *, tolerance: float = 0.0) -> RunDiff:
        """Regression-diff two stored runs."""
        return diff_runs(self.store, baseline_run, candidate_run, tolerance=tolerance)

    def stats(self) -> Dict[str, object]:
        """Service-level snapshot: engine counters, queue sizes, store rows."""
        jobs = self.queue.jobs()
        return {
            "uptime": time.time() - self.started_at,
            "jobs": {
                state.value: sum(1 for j in jobs if j.state is state)
                for state in JobState
            },
            "engine": self.engine.stats(),
            "store": self.store.counts(),
            "store_write_retries": self.store.write_retries,
        }

    def close(self, *, wait: bool = True, timeout: Optional[float] = None) -> None:
        """Drain the queue and stop accepting work."""
        self.queue.shutdown(wait=wait, timeout=timeout)

    def __enter__(self) -> "EvalService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close(timeout=60.0)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _golden_store(self, spec: JobSpec) -> GoldenStore:
        """One golden store per (pack, params, grid), on the shared engine.

        Sharing the store across jobs keeps golden responses warm: job 2 of
        a pack never re-simulates the pack's reference designs.
        """
        key = (
            spec.pack,
            repr(sorted((spec.pack_params or {}).items())),
            spec.num_wavelengths,
        )
        with self._golden_lock:
            store = self._golden_stores.get(key)
            if store is None:
                store = GoldenStore(
                    num_wavelengths=spec.num_wavelengths,
                    engine=self.engine,
                    pack=spec.pack,
                    pack_params=spec.pack_params,
                )
                self._golden_stores[key] = store
            return store

    def _execute(self, job: JobRecord) -> Dict[Tuple[str, bool], EvalReport]:
        """Run one job as one sweep and persist its reports as a run.

        Every (model, restriction setting) pair of the job runs in one
        :func:`~repro.harness.runner.run_sweep`: one journal named by
        :meth:`JobSpec.fingerprint`, one evaluator on the shared engine and
        golden store (thread tier) or one process pool sharding the whole
        job by problem over the shared disk caches (process tier).
        ``job.checkpoint`` runs after each fresh trajectory, so a cancel
        request lands at the next finished trajectory.  The sweep's
        ``engine_stats`` are recorded on the job and with the stored run.
        """
        spec = job.spec
        result = runner.run_sweep(
            spec.sweep_config(
                cache_dir=self.cache_dir,
                workers=self.engine.config.workers,
                journal_dir=self.journal_dir,
                # Journals are keyed by the sweep's semantic fingerprint, so
                # resuming is always safe: a fresh spec simply finds no journal.
                resume=self.journal_dir is not None,
            ),
            profiles=[get_profile(model) for model in spec.models],
            restriction_settings=spec.restrictions,
            engine=self.engine,
            golden_store=self._golden_store(spec),
            on_unit=job.checkpoint,
        )
        job.engine_stats = result.engine_stats
        job.run_id, _created = self.store.save_run(
            spec, result.reports, engine_stats=job.engine_stats
        )
        return result.reports

    def _persist_job(self, job: JobRecord) -> None:
        """Queue hook: mirror every job state transition into the store."""
        self.store.record_job(job.to_dict())
