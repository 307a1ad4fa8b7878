"""Evaluation-as-a-service: job queue, results database, regression diff.

The package turns the one-shot sweep CLI into a long-running backend:

:mod:`repro.service.spec`
    :class:`JobSpec` -- the JSON-serialisable, content-fingerprinted
    description of one sweep/evaluate job.
:mod:`repro.service.queue`
    :class:`JobQueue` -- a prioritised, cancellable job queue with bounded
    worker concurrency and per-job crash containment.
:mod:`repro.service.store`
    :class:`ResultsStore` -- the SQLite results database (schema-versioned,
    migration-ready, ``BEGIN IMMEDIATE`` writers) persisting every
    :class:`~repro.evalkit.outcome.EvalReport`, pass@k trajectory, engine
    stats snapshot and job record.
:mod:`repro.service.diff` / :mod:`repro.service.report`
    Pass@k regression diffing between stored runs and the CI-style
    markdown/JSON regression report.
:mod:`repro.service.service`
    :class:`EvalService` -- queue + store + one shared
    :class:`~repro.engine.engine.ExecutionEngine`, so cache tiers stay warm
    across jobs.
:mod:`repro.service.daemon` / :mod:`repro.service.client` / :mod:`repro.service.cli`
    The line-delimited-JSON daemon, its client, and the
    ``python -m repro.service serve`` / ``... jobs`` front door.
"""

from .diff import DiffEntry, RunDiff, diff_reports, diff_runs
from .queue import JobCancelled, JobQueue, JobRecord, JobState, QueueFullError
from .report import json_report, markdown_report
from .service import EvalService
from .spec import JobSpec
from .store import SCHEMA_VERSION, ResultsStore, StoredRun

__all__ = [
    "DiffEntry",
    "EvalService",
    "JobCancelled",
    "JobQueue",
    "JobRecord",
    "JobSpec",
    "JobState",
    "QueueFullError",
    "ResultsStore",
    "RunDiff",
    "SCHEMA_VERSION",
    "StoredRun",
    "diff_reports",
    "diff_runs",
    "json_report",
    "markdown_report",
]
