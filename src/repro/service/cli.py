"""Command-line front door of the evaluation service.

Examples
--------
Start the daemon (prints one JSON line with the bound address, then serves)::

    python -m repro.service serve --db results.db --cache-dir .simcache --port 7341

Submit, inspect and diff jobs against a running daemon::

    python -m repro.service jobs --port 7341 submit --pack core \
        --models GPT-4o --samples 2 --wavelengths 11 --wait
    python -m repro.service jobs --port 7341 status JOB_ID
    python -m repro.service jobs --port 7341 cancel JOB_ID
    python -m repro.service jobs --port 7341 list
    python -m repro.service jobs --port 7341 diff RUN_A RUN_B --tolerance 0.5

The same verbs are reachable through the harness CLI
(``python -m repro.harness serve ...`` / ``... jobs ...``).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import Dict, Optional, Sequence

from ..engine.engine import EXECUTION_MODES
from ..faults import RetryPolicy
from ..harness.cli import _parse_pack_params
from ..sim.circuit import SOLVER_BACKENDS
from .client import ServiceClient, ServiceError
from .daemon import ServiceDaemon
from .service import EvalService
from .spec import JobSpec

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.service`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run and drive the PICBench evaluation service.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="start the evaluation daemon")
    serve.add_argument("--db", required=True, help="path of the SQLite results database")
    serve.add_argument("--cache-dir", default=None, help="shared on-disk cache directory")
    serve.add_argument("--host", default="127.0.0.1", help="bind host (local only)")
    serve.add_argument("--port", type=int, default=0, help="bind port (0 = ephemeral)")
    serve.add_argument(
        "--job-workers", type=int, default=2, help="concurrently running jobs"
    )
    serve.add_argument(
        "--engine-workers", type=int, default=1,
        help="engine thread-pool width within one job",
    )
    serve.add_argument(
        "--journal-dir", default=None,
        help="sweep-journal directory for checkpoint/resume "
        "(default: <cache-dir>/journals when --cache-dir is set)",
    )
    serve.add_argument(
        "--max-queued", type=int, default=None, metavar="N",
        help="backpressure bound: reject submits beyond N queued jobs "
        "with a structured queue_full error (default: unbounded)",
    )
    serve.add_argument(
        "--recover", action="store_true",
        help="re-adopt non-terminal jobs persisted by a previous (crashed) "
        "process: queued jobs re-enter the queue, running-at-crash jobs "
        "re-run journal-warm",
    )
    serve.add_argument(
        "--idle-timeout", type=float, default=None, metavar="SECONDS",
        help="close a connection idle for this long (0 = never; "
        "default: 300s)",
    )
    serve.add_argument(
        "--max-request-bytes", type=int, default=None, metavar="BYTES",
        help="reject request lines longer than this (default: 10MB)",
    )

    jobs = sub.add_parser("jobs", help="talk to a running daemon")
    jobs.add_argument("--host", default="127.0.0.1", help="daemon host")
    jobs.add_argument("--port", type=int, required=True, help="daemon port")
    jobs.add_argument(
        "--connect-retries", type=int, default=3, metavar="N",
        help="total transport tries per request (1 = no retry; default: 3)",
    )
    jobs.add_argument(
        "--connect-backoff", type=float, default=0.05, metavar="SECONDS",
        help="base seconds of the client's exponential connect backoff",
    )
    verbs = jobs.add_subparsers(dest="verb", required=True)

    submit = verbs.add_parser("submit", help="submit a sweep/evaluate job")
    submit.add_argument("--kind", default="sweep", choices=["sweep", "evaluate"])
    submit.add_argument(
        "--models", nargs="*", default=None,
        help="designer profiles to run (default: all five paper profiles)",
    )
    submit.add_argument(
        "--restrictions", default="both", choices=["both", "with", "without"],
        help="prompt restriction settings to run",
    )
    submit.add_argument("--samples", type=int, default=5)
    submit.add_argument("--feedback", type=int, default=3)
    submit.add_argument("--wavelengths", type=int, default=41)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--problems", nargs="*", default=None)
    submit.add_argument("--pack", default="core")
    submit.add_argument(
        "--pack-param", action="append", default=None, metavar="KEY=VALUE",
        help="pack generation parameter (VALUE parsed as JSON; repeatable)",
    )
    submit.add_argument("--solver-backend", default="auto", choices=list(SOLVER_BACKENDS))
    submit.add_argument("--batch-size", type=int, default=1)
    submit.add_argument(
        "--execution-mode", default="thread", choices=list(EXECUTION_MODES)
    )
    submit.add_argument("--processes", type=int, default=0)
    submit.add_argument(
        "--retry-attempts", type=int, default=2,
        help="total tries per transiently failing work unit",
    )
    submit.add_argument(
        "--retry-backoff", type=float, default=0.1,
        help="base seconds of the exponential retry backoff",
    )
    submit.add_argument(
        "--unit-timeout", type=float, default=None, metavar="SECONDS",
        help="per-unit watchdog timeout in process mode (default: none)",
    )
    submit.add_argument("--priority", type=int, default=0, help="lower runs first")
    submit.add_argument(
        "--dedupe", action="store_true",
        help="reuse an existing stored run for an identical spec",
    )
    submit.add_argument(
        "--idempotent", action="store_true",
        help="key the submit purely on spec content: a later identical "
        "submit returns this job's id instead of a new job",
    )
    submit.add_argument(
        "--wait", action="store_true", help="poll until the job is terminal"
    )

    for verb in ("status", "cancel", "result"):
        v = verbs.add_parser(verb, help=f"{verb} one job")
        v.add_argument("job_id")

    verbs.add_parser("list", help="list every job")
    verbs.add_parser("runs", help="list stored runs")
    verbs.add_parser("stats", help="service counters")
    verbs.add_parser("health", help="queue depth, workers, store, recovery")
    verbs.add_parser("ready", help="readiness verdict (exit 1 when not ready)")
    verbs.add_parser("shutdown", help="stop the daemon")

    diff = verbs.add_parser("diff", help="regression-diff two stored runs")
    diff.add_argument("baseline", help="baseline run id")
    diff.add_argument("candidate", help="candidate run id")
    diff.add_argument(
        "--tolerance", type=float, default=0.0,
        help="pass@k drift (percentage points) still counted as unchanged",
    )
    diff.add_argument("--format", default="markdown", choices=["markdown", "json"])
    diff.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit 1 when the candidate regresses (the CI gate)",
    )
    return parser


def _spec_from_args(args: argparse.Namespace) -> JobSpec:
    """Build the submitted :class:`JobSpec` from ``jobs submit`` flags."""
    restrictions = {
        "both": (False, True),
        "with": (True,),
        "without": (False,),
    }[args.restrictions]
    fields: Dict[str, object] = {
        "kind": args.kind,
        "restrictions": restrictions,
        "samples_per_problem": args.samples,
        "max_feedback_iterations": args.feedback,
        "num_wavelengths": args.wavelengths,
        "base_seed": args.seed,
        "problems": tuple(args.problems) if args.problems else None,
        "pack": args.pack,
        "pack_params": _parse_pack_params(args.pack_param),
        "solver_backend": args.solver_backend,
        "batch_size": args.batch_size,
        "execution_mode": args.execution_mode,
        "processes": args.processes,
        "retry_attempts": args.retry_attempts,
        "retry_backoff": args.retry_backoff,
        "unit_timeout": args.unit_timeout,
    }
    if args.models:
        fields["models"] = tuple(args.models)
    return JobSpec(**fields)  # type: ignore[arg-type]


def _serve(args: argparse.Namespace) -> int:
    """The ``serve`` command: run the daemon until interrupted.

    SIGTERM triggers a graceful drain: the daemon stops accepting requests
    and the service finishes (or checkpoints, via sweep journals) its
    running jobs before the process exits -- the supervisor-friendly
    counterpart of the ``shutdown`` protocol op.
    """
    service = EvalService(
        args.db,
        cache_dir=args.cache_dir,
        job_workers=args.job_workers,
        engine_workers=args.engine_workers,
        journal_dir=args.journal_dir,
        max_queued=args.max_queued,
        recover=args.recover,
    )
    daemon_kwargs: Dict[str, object] = {}
    if args.idle_timeout is not None:
        daemon_kwargs["idle_timeout"] = args.idle_timeout or None
    if args.max_request_bytes is not None:
        daemon_kwargs["max_request_bytes"] = args.max_request_bytes
    daemon = ServiceDaemon(
        service, host=args.host, port=args.port, **daemon_kwargs  # type: ignore[arg-type]
    )
    signal.signal(signal.SIGTERM, lambda *_: daemon.stop_async())
    host, port = daemon.start()
    # One machine-readable line so wrappers can discover the ephemeral port.
    print(
        json.dumps(
            {
                "host": host,
                "port": port,
                "db": str(args.db),
                "recovery": service.health()["recovery"],
            }
        ),
        flush=True,
    )
    try:
        daemon.serve_forever()
    finally:
        daemon.stop()
        service.close(timeout=60.0)
    return 0


def _jobs(args: argparse.Namespace) -> int:
    """The ``jobs`` command family: client verbs against a running daemon."""
    client = ServiceClient(
        args.host,
        args.port,
        retry=RetryPolicy(
            attempts=args.connect_retries,
            base_delay=args.connect_backoff,
            transient=ServiceClient.TRANSIENT,
        ),
    )
    if args.verb == "submit":
        spec = _spec_from_args(args)
        job_id = client.submit(
            spec,
            priority=args.priority,
            dedupe=args.dedupe,
            idempotent=args.idempotent,
        )
        if args.wait:
            job = client.poll(job_id)
            print(json.dumps(job, indent=2))
            return 0 if job["state"] == "done" else 1
        print(json.dumps({"job_id": job_id, "spec_fingerprint": spec.fingerprint()}))
        return 0
    if args.verb == "status":
        print(json.dumps(client.status(args.job_id), indent=2))
        return 0
    if args.verb == "cancel":
        print(json.dumps({"cancelled": client.cancel(args.job_id)}))
        return 0
    if args.verb == "result":
        print(json.dumps(client.result(args.job_id), indent=2))
        return 0
    if args.verb == "list":
        print(json.dumps(client.jobs(), indent=2))
        return 0
    if args.verb == "runs":
        print(json.dumps(client.runs(), indent=2))
        return 0
    if args.verb == "stats":
        print(json.dumps(client.stats(), indent=2))
        return 0
    if args.verb == "health":
        print(json.dumps(client.health(), indent=2))
        return 0
    if args.verb == "ready":
        response = client.ready()
        print(json.dumps(response, indent=2))
        return 0 if response.get("ready") else 1
    if args.verb == "shutdown":
        client.shutdown()
        print(json.dumps({"stopping": True}))
        return 0
    # diff
    response = client.diff(args.baseline, args.candidate, tolerance=args.tolerance)
    report = response["report"]
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(response["markdown"])
    if args.fail_on_regression and report["is_regression"]:  # type: ignore[index]
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro.service``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "serve":
            return _serve(args)
        return _jobs(args)
    except ServiceError as error:
        print(f"service error: {error}", file=sys.stderr)
        return 2
    except ConnectionError as error:
        print(f"cannot reach the daemon: {error}", file=sys.stderr)
        return 2
