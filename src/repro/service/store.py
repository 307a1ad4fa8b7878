"""The SQLite results database of the evaluation service.

Every finished job lands here as a **run**: the job's spec, every
:class:`~repro.evalkit.outcome.EvalReport` it produced (stored as canonical
sorted-key JSON, so storage round trips are byte-identical), the pass@k
trajectory rows derived from those reports (per pack *and* per problem, over
the paper's k / feedback columns), and the engine stats snapshot of the job.

Runs are keyed by **content fingerprint** -- a hash of the spec's semantic
fingerprint (the one the sweep journal uses) plus every canonical report
document -- so re-submitting the same evaluation (which, by determinism,
produces identical reports, whatever its execution settings) maps to the
*same* run row: such re-submissions dedupe at the storage layer while
every job still records its own metadata in the ``jobs`` table.

The schema is versioned (``meta.schema_version``) with a forward-migration
hook: opening a database written by an older schema applies each migration
in sequence inside one transaction.  SQLite is the first backend; the SQL
sticks to the portable subset (TEXT/INTEGER/REAL columns, standard DML) so
the same statements -- and the same migration ladder -- can target Postgres
later.  Cross-process writers are serialised by SQLite's own lock: every
write transaction opens with ``BEGIN IMMEDIATE``.
"""

from __future__ import annotations

import json
import sqlite3
import time
from contextlib import closing, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..engine.fingerprint import stable_hash
from ..faults import RetryPolicy, fault_point, retry_call
from ..evalkit.outcome import EvalReport
from ..harness.runner import FEEDBACK_COLUMNS, PASS_AT
from .spec import JobSpec

__all__ = ["SCHEMA_VERSION", "ResultsStore", "StoredRun", "trajectory_rows"]

#: Current schema version (see the migration ladder in ``_MIGRATIONS``).
SCHEMA_VERSION = 3

#: Metrics the pass@k trajectory rows cover.
TRAJECTORY_METRICS: Tuple[str, ...] = ("syntax", "functional")

#: Sentinel `problem` value of a pack-aggregate trajectory row.
PACK_AGGREGATE = ""

#: Version-1 schema, kept verbatim: migration tests build legacy databases
#: from these statements, and the v1->v2 migration upgrades them in place.
_SCHEMA_V1: Tuple[str, ...] = (
    "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)",
    """
    CREATE TABLE runs (
        run_id TEXT PRIMARY KEY,
        spec_fingerprint TEXT NOT NULL,
        spec_json TEXT NOT NULL,
        created_at REAL NOT NULL,
        engine_stats_json TEXT
    )
    """,
    "CREATE INDEX idx_runs_spec ON runs(spec_fingerprint)",
    """
    CREATE TABLE reports (
        run_id TEXT NOT NULL,
        model TEXT NOT NULL,
        with_restrictions INTEGER NOT NULL,
        pack TEXT NOT NULL,
        report_json TEXT NOT NULL,
        PRIMARY KEY (run_id, model, with_restrictions)
    )
    """,
    """
    CREATE TABLE jobs (
        job_id TEXT PRIMARY KEY,
        spec_fingerprint TEXT NOT NULL,
        spec_json TEXT NOT NULL,
        priority INTEGER NOT NULL,
        state TEXT NOT NULL,
        submitted_at REAL,
        started_at REAL,
        finished_at REAL,
        error TEXT,
        run_id TEXT
    )
    """,
)

#: v2 adds the queryable pass@k trajectory table (one row per run, model,
#: restriction setting, pack, problem, metric, k and feedback budget; the
#: empty-string problem row is the pack aggregate).
_SCHEMA_V2_TRAJECTORIES = """
    CREATE TABLE trajectories (
        run_id TEXT NOT NULL,
        model TEXT NOT NULL,
        with_restrictions INTEGER NOT NULL,
        pack TEXT NOT NULL,
        problem TEXT NOT NULL,
        metric TEXT NOT NULL,
        k INTEGER NOT NULL,
        max_feedback INTEGER NOT NULL,
        value REAL NOT NULL,
        PRIMARY KEY (
            run_id, model, with_restrictions, pack,
            problem, metric, k, max_feedback
        )
    )
"""


def canonical_report_json(report: EvalReport) -> str:
    """The canonical stored form of a report: sorted keys, compact separators.

    Canonicalisation is what makes the store's round trip *byte*-identical:
    ``load -> to_dict -> canonical json`` reproduces the stored document
    exactly, and content fingerprints are stable across processes.
    """
    return json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))


def run_fingerprint(spec: JobSpec, reports: Dict[Tuple[str, bool], EvalReport]) -> str:
    """Content address of one run: spec fingerprint + every report document."""
    docs = [
        f"{model}|{int(with_restrictions)}|{canonical_report_json(report)}"
        for (model, with_restrictions), report in sorted(
            reports.items(), key=lambda item: (item[0][0], item[0][1])
        )
    ]
    return stable_hash("run", spec.fingerprint(), *docs)


def trajectory_rows(
    run_id: str, model: str, with_restrictions: bool, report: EvalReport
) -> Iterator[Tuple[str, str, int, str, str, str, int, int, float]]:
    """Yield the trajectory table rows of one stored report.

    Per-problem rows use :meth:`EvalReport.problem_pass_at_k`; the
    ``PACK_AGGREGATE`` row is the report-level mean (exactly the paper's
    table entries), over every (metric, k, feedback-budget) combination.
    """
    for metric in TRAJECTORY_METRICS:
        for k in PASS_AT:
            for max_feedback in FEEDBACK_COLUMNS:
                yield (
                    run_id, model, int(with_restrictions), report.pack, PACK_AGGREGATE,
                    metric, k, max_feedback,
                    report.pass_at_k(k, metric=metric, max_feedback=max_feedback),
                )
                for problem in report.results:
                    yield (
                        run_id, model, int(with_restrictions), report.pack, problem,
                        metric, k, max_feedback,
                        report.problem_pass_at_k(
                            problem, k, metric=metric, max_feedback=max_feedback
                        ),
                    )


@dataclass
class StoredRun:
    """One run row rehydrated from the database."""

    run_id: str
    spec: JobSpec
    created_at: float
    reports: Dict[Tuple[str, bool], EvalReport]
    engine_stats: Optional[Dict[str, object]]

    @property
    def spec_fingerprint(self) -> str:
        """Fingerprint of the run's spec (the dedup key for submissions)."""
        return self.spec.fingerprint()


def _migrate_v1_to_v2(conn: sqlite3.Connection) -> None:
    """v1 -> v2: add the trajectory table and backfill it from stored reports."""
    conn.execute(_SCHEMA_V2_TRAJECTORIES)
    rows = conn.execute(
        "SELECT run_id, model, with_restrictions, report_json FROM reports"
    ).fetchall()
    for run_id, model, with_restrictions, report_json in rows:
        report = EvalReport.from_dict(json.loads(report_json))
        conn.executemany(
            "INSERT OR REPLACE INTO trajectories VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            trajectory_rows(run_id, model, bool(with_restrictions), report),
        )


def _migrate_v2_to_v3(conn: sqlite3.Connection) -> None:
    """v2 -> v3: re-key every run and job row on the semantic fingerprint.

    v2 fingerprints hashed every spec field but the retry knobs, so specs
    differing only in, say, ``execution_mode`` never deduped.  Each row's
    ``spec_fingerprint`` is recomputed from its stored spec with
    :meth:`JobSpec.fingerprint`; run ids stay as stored.  Stored specs keep
    the fields retired since (``solver_backend``, ``batch_size``), which
    :meth:`JobSpec.from_dict` drops.  A spec today's field checks reject
    keeps its v2 fingerprint rather than blocking the upgrade.
    """
    for table, key in (("runs", "run_id"), ("jobs", "job_id")):
        for row_id, spec_json in conn.execute(f"SELECT {key}, spec_json FROM {table}").fetchall():
            try:
                fingerprint = JobSpec.from_dict(json.loads(spec_json)).fingerprint()
            except ValueError:
                continue
            conn.execute(
                f"UPDATE {table} SET spec_fingerprint = ? WHERE {key} = ?",
                (fingerprint, row_id),
            )


#: Forward migrations: ``_MIGRATIONS[v]`` upgrades a version-``v`` database
#: to version ``v + 1``.  Opening a store applies them in sequence.
_MIGRATIONS: Dict[int, Callable[[sqlite3.Connection], None]] = {
    1: _migrate_v1_to_v2,
    2: _migrate_v2_to_v3,
}


class ResultsStore:
    """Schema-versioned SQLite persistence for runs, reports and jobs.

    Thread- and process-safe by construction: every operation opens its own
    short-lived connection, and every write transaction takes SQLite's
    write lock with its first statement (:meth:`_write`), so concurrent
    service processes (or sweep workers) never interleave
    partially-written runs.
    """

    #: Transient write trouble worth retrying: I/O errors (including
    #: injected ``store.write`` faults) and SQLite's "database is locked" /
    #: busy conditions, which surface as OperationalError.
    _WRITE_RETRY = RetryPolicy(
        attempts=3,
        base_delay=0.05,
        max_delay=1.0,
        transient=(OSError, sqlite3.OperationalError),
    )

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: How many write transactions needed at least one retry attempt.
        self.write_retries = 0
        with self._write() as conn:
            self._ensure_schema(conn)

    def _retried_write(self, label: str, write: Callable[[], None]) -> None:
        """Run one write transaction under the store's retry policy.

        ``write`` must be a self-contained transaction (one :meth:`_write`
        inside), so a retried attempt starts from scratch and can never
        observe -- or leave behind -- a partial write.
        """

        def _count(_attempt: int, _error: BaseException) -> None:
            self.write_retries += 1

        retry_call(write, policy=self._WRITE_RETRY, seed=f"store.write:{label}", on_retry=_count)

    # ------------------------------------------------------------------
    # Connection / schema plumbing
    # ------------------------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        """A fresh autocommit connection with a generous busy timeout."""
        conn = sqlite3.connect(self.path, timeout=30.0, isolation_level=None)
        conn.execute("PRAGMA foreign_keys = ON")
        return conn

    @contextmanager
    def _write(self) -> Iterator[sqlite3.Connection]:
        """One write transaction, committed on success and rolled back on error.

        ``BEGIN IMMEDIATE`` takes SQLite's write lock before the first read,
        so a read-check-write sequence never interleaves with another
        writer; a contended writer waits out the busy timeout.  The lock
        dies with its process: a killed writer never stalls the next one.
        """
        with closing(self._connect()) as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                yield conn
            except BaseException:
                conn.rollback()
                raise
            conn.commit()

    def _ensure_schema(self, conn: sqlite3.Connection) -> None:
        """Create a fresh schema or migrate an existing one forward."""
        tables = {
            row[0]
            for row in conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
        }
        if "meta" not in tables:
            for statement in _SCHEMA_V1:
                conn.execute(statement)
            conn.execute(_SCHEMA_V2_TRAJECTORIES)
            conn.execute(
                "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
            return
        version = self._read_version(conn)
        if version > SCHEMA_VERSION:
            raise RuntimeError(
                f"results database {self.path} has schema version {version}, "
                f"newer than this code's {SCHEMA_VERSION}; refusing to open"
            )
        while version < SCHEMA_VERSION:
            _MIGRATIONS[version](conn)
            version += 1
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(version),),
            )

    @staticmethod
    def _read_version(conn: sqlite3.Connection) -> int:
        """The database's recorded schema version."""
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            raise RuntimeError("results database has a meta table but no schema_version")
        return int(row[0])

    @property
    def schema_version(self) -> int:
        """Schema version of the on-disk database."""
        with closing(self._connect()) as conn:
            return self._read_version(conn)

    # ------------------------------------------------------------------
    # Runs and reports
    # ------------------------------------------------------------------
    def save_run(
        self,
        spec: JobSpec,
        reports: Dict[Tuple[str, bool], EvalReport],
        *,
        engine_stats: Optional[Dict[str, object]] = None,
        created_at: Optional[float] = None,
    ) -> Tuple[str, bool]:
        """Persist one run; returns ``(run_id, created)``.

        ``run_id`` is the content fingerprint of (spec, reports).  When a
        run with the same fingerprint already exists the call is a no-op
        dedup hit (``created=False``): identical re-submissions converge on
        one stored run.  So does a run stored before the v2 -> v3 re-key,
        which kept its old id: one with the same spec fingerprint and the
        same report documents is returned instead of a new run.
        """
        if not reports:
            raise ValueError("a run must contain at least one report")
        run_id = run_fingerprint(spec, reports)
        fingerprint = spec.fingerprint()
        documents = {
            (model, int(with_restrictions)): canonical_report_json(report)
            for (model, with_restrictions), report in reports.items()
        }
        created = False

        def write() -> None:
            nonlocal created, run_id
            fault_point("store.write", key=run_id)
            with self._write() as conn:
                exists = conn.execute(
                    "SELECT 1 FROM runs WHERE run_id = ?", (run_id,)
                ).fetchone()
                if exists:
                    created = False
                    return
                for (legacy_id,) in conn.execute(
                    "SELECT run_id FROM runs WHERE spec_fingerprint = ?", (fingerprint,)
                ).fetchall():
                    stored = conn.execute(
                        "SELECT model, with_restrictions, report_json FROM reports "
                        "WHERE run_id = ?",
                        (legacy_id,),
                    )
                    if {(model, flag): doc for model, flag, doc in stored} == documents:
                        run_id = legacy_id
                        return
                conn.execute(
                    "INSERT INTO runs VALUES (?, ?, ?, ?, ?)",
                    (
                        run_id,
                        fingerprint,
                        spec.canonical_json(),
                        time.time() if created_at is None else float(created_at),
                        json.dumps(engine_stats, sort_keys=True, default=repr)
                        if engine_stats is not None
                        else None,
                    ),
                )
                for (model, with_restrictions), report in reports.items():
                    conn.execute(
                        "INSERT INTO reports VALUES (?, ?, ?, ?, ?)",
                        (
                            run_id,
                            model,
                            int(with_restrictions),
                            report.pack,
                            documents[(model, int(with_restrictions))],
                        ),
                    )
                    conn.executemany(
                        "INSERT INTO trajectories VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                        trajectory_rows(run_id, model, with_restrictions, report),
                    )
                created = True

        self._retried_write(run_id, write)
        return run_id, created

    def load_run(self, run_id: str) -> StoredRun:
        """Rehydrate one run (spec, every report, engine stats)."""
        with closing(self._connect()) as conn:
            row = conn.execute(
                "SELECT spec_json, created_at, engine_stats_json FROM runs WHERE run_id = ?",
                (run_id,),
            ).fetchone()
            if row is None:
                raise KeyError(f"unknown run {run_id!r}")
            spec_json, created_at, engine_stats_json = row
            reports: Dict[Tuple[str, bool], EvalReport] = {}
            for model, with_restrictions, report_json in conn.execute(
                "SELECT model, with_restrictions, report_json FROM reports "
                "WHERE run_id = ? ORDER BY model, with_restrictions",
                (run_id,),
            ):
                reports[(model, bool(with_restrictions))] = EvalReport.from_dict(
                    json.loads(report_json)
                )
        return StoredRun(
            run_id=run_id,
            spec=JobSpec.from_dict(json.loads(spec_json)),
            created_at=float(created_at),
            reports=reports,
            engine_stats=(
                json.loads(engine_stats_json) if engine_stats_json is not None else None
            ),
        )

    def load_report_json(self, run_id: str, model: str, with_restrictions: bool) -> str:
        """The exact stored (canonical) JSON document of one report."""
        with closing(self._connect()) as conn:
            row = conn.execute(
                "SELECT report_json FROM reports "
                "WHERE run_id = ? AND model = ? AND with_restrictions = ?",
                (run_id, model, int(with_restrictions)),
            ).fetchone()
        if row is None:
            raise KeyError(f"no report ({model!r}, {with_restrictions}) in run {run_id!r}")
        return row[0]

    def find_runs(self, spec_fingerprint: Optional[str] = None) -> List[Dict[str, object]]:
        """Run summaries, newest first (optionally filtered by spec)."""
        query = "SELECT run_id, spec_fingerprint, created_at FROM runs"
        params: Tuple[object, ...] = ()
        if spec_fingerprint is not None:
            query += " WHERE spec_fingerprint = ?"
            params = (spec_fingerprint,)
        query += " ORDER BY created_at DESC, run_id"
        with closing(self._connect()) as conn:
            return [
                {"run_id": run_id, "spec_fingerprint": fingerprint, "created_at": created}
                for run_id, fingerprint, created in conn.execute(query, params)
            ]

    def latest_run(self, spec_fingerprint: str) -> Optional[str]:
        """Newest run id recorded for a spec fingerprint (None when absent)."""
        runs = self.find_runs(spec_fingerprint)
        return runs[0]["run_id"] if runs else None  # type: ignore[return-value]

    def trajectories(self, run_id: str) -> List[Tuple[str, bool, str, str, str, int, int, float]]:
        """Every trajectory row of a run, deterministically ordered."""
        with closing(self._connect()) as conn:
            return [
                (model, bool(with_restrictions), pack, problem, metric, k, max_feedback, value)
                for model, with_restrictions, pack, problem, metric, k, max_feedback, value
                in conn.execute(
                    "SELECT model, with_restrictions, pack, problem, metric, k, "
                    "max_feedback, value FROM trajectories WHERE run_id = ? "
                    "ORDER BY model, with_restrictions, pack, problem, metric, k, max_feedback",
                    (run_id,),
                )
            ]

    # ------------------------------------------------------------------
    # Job metadata
    # ------------------------------------------------------------------
    #: Lifecycle rank of each job state; `record_job` never lets a
    #: lower-ranked (earlier-lifecycle) snapshot overwrite a higher one.
    _STATE_RANK = {"queued": 0, "running": 1, "done": 2, "failed": 2, "cancelled": 2}

    def record_job(self, job: Dict[str, object]) -> None:
        """Insert-or-update one job metadata row (snapshot of `JobRecord.to_dict`).

        Writes are *monotonic* in the job lifecycle: the queue's update hook
        runs from both the submitting thread and the worker thread, so a
        stale ``queued`` snapshot can reach the store after the worker
        already persisted ``done`` -- such out-of-order snapshots are
        dropped instead of rolling the row back.
        """
        def write() -> None:
            fault_point("store.write", key=str(job["job_id"]))
            with self._write() as conn:
                existing = conn.execute(
                    "SELECT state FROM jobs WHERE job_id = ?", (job["job_id"],)
                ).fetchone()
                if existing is not None:
                    old_rank = self._STATE_RANK.get(str(existing[0]), 0)
                    new_rank = self._STATE_RANK.get(str(job["state"]), 0)
                    if new_rank < old_rank:
                        return
                conn.execute(
                    "INSERT OR REPLACE INTO jobs VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        job["job_id"],
                        job["spec_fingerprint"],
                        json.dumps(job["spec"], sort_keys=True, separators=(",", ":")),
                        int(job["priority"]),  # type: ignore[arg-type]
                        job["state"],
                        job["submitted_at"],
                        job["started_at"],
                        job["finished_at"],
                        job["error"],
                        job["run_id"],
                    ),
                )

        self._retried_write(str(job["job_id"]), write)

    def load_job(self, job_id: str) -> Dict[str, object]:
        """One persisted job row as a plain dict."""
        with closing(self._connect()) as conn:
            row = conn.execute(
                "SELECT job_id, spec_fingerprint, spec_json, priority, state, "
                "submitted_at, started_at, finished_at, error, run_id "
                "FROM jobs WHERE job_id = ?",
                (job_id,),
            ).fetchone()
        if row is None:
            raise KeyError(f"unknown job {job_id!r}")
        keys = (
            "job_id", "spec_fingerprint", "spec_json", "priority", "state",
            "submitted_at", "started_at", "finished_at", "error", "run_id",
        )
        payload = dict(zip(keys, row))
        payload["spec"] = json.loads(payload.pop("spec_json"))  # type: ignore[arg-type]
        return payload

    def jobs(self) -> List[Dict[str, object]]:
        """Every persisted job row, oldest submission first."""
        with closing(self._connect()) as conn:
            ids = [
                row[0]
                for row in conn.execute(
                    "SELECT job_id FROM jobs ORDER BY submitted_at, job_id"
                )
            ]
        return [self.load_job(job_id) for job_id in ids]

    def pending_jobs(self) -> List[Dict[str, object]]:
        """Non-terminal job rows (queued/running), oldest submission first.

        These are the jobs a crashed daemon left behind: every accepted
        submit is journaled before acknowledgement, so a row still
        ``queued``/``running`` on startup is work the previous process
        never finished.  ``EvalService.recover`` re-adopts them.
        """
        with closing(self._connect()) as conn:
            ids = [
                row[0]
                for row in conn.execute(
                    "SELECT job_id FROM jobs WHERE state IN ('queued', 'running') "
                    "ORDER BY submitted_at, job_id"
                )
            ]
        return [self.load_job(job_id) for job_id in ids]

    def check_writable(self) -> bool:
        """Probe that the database accepts writes (the `health` op's signal).

        Runs a no-op write transaction; any sqlite/OS failure reports
        ``False`` instead of raising.
        """
        try:
            with self._write() as conn:
                conn.execute("UPDATE meta SET value = value WHERE key = 'schema_version'")
        except Exception:  # noqa: BLE001 - a health probe never raises
            return False
        return True

    def counts(self) -> Dict[str, int]:
        """Row counts per table (service `stats` responses, tests)."""
        with closing(self._connect()) as conn:
            return {
                table: conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
                for table in ("runs", "reports", "trajectories", "jobs")
            }
