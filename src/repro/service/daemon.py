"""The service daemon: a line-delimited-JSON protocol over a local socket.

One request per line, one JSON response per line; a connection may pipeline
any number of requests.  Every response carries ``"ok"``; errors come back
as ``{"ok": false, "error": "..."}`` and never kill the connection (a
malformed line is answered and the handler keeps reading).

Operations
----------
``ping``                     liveness probe (returns the protocol version).
``submit``                   ``{spec, priority?, dedupe?, idempotency_key?}``
                             -> ``{job_id}``; a full queue answers a
                             structured ``queue_full`` error with the
                             current depth and bound.
``status``                   ``{job_id}`` -> the job record snapshot.
``health``                   queue depth, worker liveness, store
                             writability, recovery summary.
``ready``                    ``{ready}`` + the health snapshot (readiness
                             gate for orchestration).
``cancel``                   ``{job_id}`` -> ``{cancelled}``.
``jobs``                     every job record, submission order.
``result``                   ``{job_id}`` -> the job's stored run (reports inline).
``runs``                     ``{spec_fingerprint?}`` -> stored run summaries.
``diff``                     ``{baseline, candidate, tolerance?}`` -> JSON report
                             (+ rendered markdown).
``stats``                    service/engine/store counters.
``shutdown``                 stop the daemon after responding.

The daemon binds ``127.0.0.1`` (an ephemeral port by default) -- it is a
*local* service front door, not an internet-facing server.  Two per-
connection guards keep one misbehaving client from tying the daemon up: a
connection silent for longer than ``idle_timeout`` seconds is answered with
a structured ``idle timeout`` error and closed, and a request line longer
than ``max_request_bytes`` is answered with a structured ``request too
large`` error (the oversized line is drained, bounded, and the connection
keeps serving).
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from typing import Dict, Optional, Tuple

from ..faults import fault_point
from .queue import JobState, QueueFullError
from .report import json_report, markdown_report
from .service import EvalService
from .spec import JobSpec

__all__ = ["PROTOCOL_VERSION", "ServiceDaemon"]

#: Version tag answered by ``ping`` (bump on incompatible protocol changes).
PROTOCOL_VERSION = 1

#: Default seconds a connection may sit idle between requests.
DEFAULT_IDLE_TIMEOUT = 300.0

#: Default cap on one request line (10 MB -- far above any legitimate spec).
DEFAULT_MAX_REQUEST_BYTES = 10_000_000


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read JSON lines, answer JSON lines."""

    def _respond(self, response: Dict[str, object]) -> None:
        self.wfile.write((json.dumps(response, default=repr) + "\n").encode("utf-8"))
        self.wfile.flush()

    def _read_line(self, limit: int) -> Optional[bytes]:
        """One request line of at most ``limit`` bytes, or ``None`` at EOF.

        A longer line raises ``ValueError`` after draining the remainder
        (still bounded by the limit per read) up to its terminating newline,
        so the connection can keep serving subsequent requests.
        """
        raw = self.rfile.readline(limit + 1)
        if not raw:
            return None
        if len(raw) <= limit or raw.endswith(b"\n"):
            if len(raw) > limit:
                raise ValueError(f"request exceeds {limit} bytes")
            return raw
        # Oversized line: drain to its end, then report.
        while True:
            chunk = self.rfile.readline(limit + 1)
            if not chunk or chunk.endswith(b"\n"):
                break
        raise ValueError(f"request exceeds {limit} bytes")

    def handle(self) -> None:  # noqa: D102 - socketserver plumbing
        daemon: "ServiceDaemon" = self.server.daemon  # type: ignore[attr-defined]
        if daemon.idle_timeout is not None:
            self.connection.settimeout(daemon.idle_timeout)
        while True:
            try:
                raw = self._read_line(daemon.max_request_bytes)
            except socket.timeout:
                # Structured farewell instead of a silently dropped socket.
                try:
                    self._respond(
                        {
                            "ok": False,
                            "error": (
                                "idle timeout: no request within "
                                f"{daemon.idle_timeout:g}s; closing connection"
                            ),
                        }
                    )
                except OSError:
                    pass
                return
            except ValueError as error:
                try:
                    self._respond({"ok": False, "error": str(error)})
                except OSError:
                    return
                continue
            if raw is None:
                return
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("a request must be a JSON object")
                response = daemon.dispatch(request)
            except Exception as error:  # noqa: BLE001 - protocol error surface
                response = {"ok": False, "error": f"{type(error).__name__}: {error}"}
            stopping = bool(response.pop("_shutdown", False))
            try:
                self._respond(response)
            except OSError:
                return  # client went away mid-response
            if stopping:
                daemon.stop_async()
                return


class _Server(socketserver.ThreadingTCPServer):
    """Threading TCP server with fast restart and daemonic handlers."""

    allow_reuse_address = True
    daemon_threads = True


class ServiceDaemon:
    """Serve an :class:`EvalService` over the line-JSON protocol.

    ``start()`` binds and serves in a background thread and returns the
    bound ``(host, port)``; ``stop()`` shuts the socket down.  The daemon
    does not own the service's lifecycle -- callers close the service after
    stopping the daemon (the CLI and tests use both as context managers).
    """

    def __init__(
        self,
        service: EvalService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        idle_timeout: Optional[float] = DEFAULT_IDLE_TIMEOUT,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
    ) -> None:
        self.service = service
        self.idle_timeout = float(idle_timeout) if idle_timeout else None
        self.max_request_bytes = int(max_request_bytes)
        if self.max_request_bytes < 1:
            raise ValueError("max_request_bytes must be >= 1")
        self._host = host
        self._port = port
        self._server: Optional[_Server] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port); raises until :meth:`start` has run."""
        if self._server is None:
            raise RuntimeError("the daemon is not running")
        return self._server.server_address[:2]  # type: ignore[return-value]

    def start(self) -> Tuple[str, int]:
        """Bind and serve in a background thread; returns the bound address."""
        if self._server is not None:
            raise RuntimeError("the daemon is already running")
        self._server = _Server((self._host, self._port), _Handler)
        self._server.daemon = self  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-service-daemon", daemon=True
        )
        self._thread.start()
        return self.address

    def stop(self) -> None:
        """Stop serving (idempotent; concurrent calls are safe)."""
        # Locals: the shutdown op's stop() runs on its own thread and may
        # clear the attributes while this call is still using them.
        server, thread = self._server, self._thread
        if server is None:
            return
        server.shutdown()
        server.server_close()
        if thread is not None:
            thread.join(timeout=10.0)
        self._server = None
        self._thread = None

    def stop_async(self) -> None:
        """Stop from inside a handler thread (used by the ``shutdown`` op)."""
        threading.Thread(target=self.stop, daemon=True).start()

    def serve_forever(self) -> None:
        """Foreground serve (the CLI's ``serve`` loop): start, then block."""
        if self._server is None:
            self.start()
        # A local for the same reason as in stop(): the shutdown op clears
        # ``_thread`` while this loop is still waiting on it.
        thread = self._thread
        assert thread is not None
        try:
            while thread.is_alive():
                thread.join(timeout=0.5)
        except KeyboardInterrupt:
            self.stop()

    def __enter__(self) -> "ServiceDaemon":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Protocol dispatch
    # ------------------------------------------------------------------
    def dispatch(self, request: Dict[str, object]) -> Dict[str, object]:
        """Answer one protocol request (exceptions become error responses)."""
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None)
        if not isinstance(op, str) or handler is None:
            raise ValueError(f"unknown op {op!r}")
        fault_point("daemon.request", key=op)
        return handler(request)

    def _op_ping(self, request: Dict[str, object]) -> Dict[str, object]:
        """Liveness + protocol version."""
        return {"ok": True, "protocol": PROTOCOL_VERSION}

    def _op_submit(self, request: Dict[str, object]) -> Dict[str, object]:
        """Submit a job spec; returns its job id."""
        spec_payload = request.get("spec")
        if not isinstance(spec_payload, dict):
            raise ValueError("submit needs a 'spec' object")
        spec = JobSpec.from_dict(spec_payload)
        idempotency_key = request.get("idempotency_key")
        try:
            job_id = self.service.submit(
                spec,
                priority=int(request.get("priority", 0)),  # type: ignore[arg-type]
                dedupe=bool(request.get("dedupe", False)),
                idempotency_key=(
                    str(idempotency_key) if idempotency_key is not None else None
                ),
            )
        except QueueFullError as error:
            # Backpressure is an expected protocol outcome, not a crash:
            # reject with structured context so clients can shed or retry.
            return {
                "ok": False,
                "error": str(error),
                "error_code": "queue_full",
                "queue_depth": error.depth,
                "max_queued": error.max_queued,
            }
        return {"ok": True, "job_id": job_id, "spec_fingerprint": spec.fingerprint()}

    def _op_health(self, request: Dict[str, object]) -> Dict[str, object]:
        """Queue depth, worker liveness, store writability, recovery state."""
        return {"ok": True, "health": self.service.health()}

    def _op_ready(self, request: Dict[str, object]) -> Dict[str, object]:
        """Readiness verdict (accepting and able to run work right now)."""
        return {"ok": True, **self.service.ready()}

    def _op_status(self, request: Dict[str, object]) -> Dict[str, object]:
        """Snapshot one job record."""
        record = self.service.status(str(request["job_id"]))
        return {"ok": True, "job": record.to_dict()}

    def _op_cancel(self, request: Dict[str, object]) -> Dict[str, object]:
        """Request job cancellation."""
        cancelled = self.service.cancel(str(request["job_id"]))
        return {"ok": True, "cancelled": cancelled}

    def _op_jobs(self, request: Dict[str, object]) -> Dict[str, object]:
        """List every known job."""
        return {"ok": True, "jobs": [job.to_dict() for job in self.service.queue.jobs()]}

    def _op_result(self, request: Dict[str, object]) -> Dict[str, object]:
        """The stored run of a finished job (reports inline)."""
        record = self.service.status(str(request["job_id"]))
        if record.state is not JobState.DONE or record.run_id is None:
            raise ValueError(
                f"job {record.job_id} has no result (state: {record.state.value})"
            )
        run = self.service.store.load_run(record.run_id)
        return {
            "ok": True,
            "run_id": run.run_id,
            "spec": run.spec.to_dict(),
            "engine_stats": run.engine_stats,
            "reports": {
                f"{model}|{'with' if restrictions else 'without'}_restrictions": (
                    report.to_dict()
                )
                for (model, restrictions), report in run.reports.items()
            },
        }

    def _op_runs(self, request: Dict[str, object]) -> Dict[str, object]:
        """Stored run summaries (optionally filtered by spec fingerprint)."""
        fingerprint = request.get("spec_fingerprint")
        runs = self.service.store.find_runs(
            str(fingerprint) if fingerprint is not None else None
        )
        return {"ok": True, "runs": runs}

    def _op_diff(self, request: Dict[str, object]) -> Dict[str, object]:
        """Regression-diff two stored runs."""
        diff = self.service.diff(
            str(request["baseline"]),
            str(request["candidate"]),
            tolerance=float(request.get("tolerance", 0.0)),  # type: ignore[arg-type]
        )
        return {
            "ok": True,
            "report": json_report(diff),
            "markdown": markdown_report(diff),
        }

    def _op_stats(self, request: Dict[str, object]) -> Dict[str, object]:
        """Service/engine/store counters."""
        return {"ok": True, "stats": self.service.stats()}

    def _op_shutdown(self, request: Dict[str, object]) -> Dict[str, object]:
        """Stop the daemon (after this response is written)."""
        return {"ok": True, "stopping": True, "_shutdown": True}


def connect(host: str, port: int, timeout: float = 30.0) -> socket.socket:
    """Open one client connection to a running daemon."""
    return socket.create_connection((host, port), timeout=timeout)
