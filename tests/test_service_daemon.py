"""End-to-end tests of the service daemon, its protocol, and the CLIs.

The daemon fixture runs in-process (real sockets on 127.0.0.1, ephemeral
port) against a real :class:`EvalService` on a temp database, so these
tests exercise the full acceptance path: submit over the wire -> job queue
-> shared engine sweep -> SQLite run -> result/diff ops -> CLI verbs.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.faults import RetryPolicy
from repro.harness.cli import main as harness_main
from repro.service import EvalService, JobSpec
from repro.service.cli import main as service_main
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import PROTOCOL_VERSION, ServiceDaemon

TINY = dict(
    models=("GPT-4o",),
    restrictions=(False,),
    samples_per_problem=1,
    max_feedback_iterations=1,
    num_wavelengths=5,
    problems=("mzi_ps",),
)


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    """One shared in-process daemon (module-scoped: jobs accumulate)."""
    db = tmp_path_factory.mktemp("service") / "results.db"
    with EvalService(db, job_workers=4) as service:
        with ServiceDaemon(service) as running:
            yield running


@pytest.fixture(scope="module")
def client(daemon):
    host, port = daemon.address
    return ServiceClient(host, port)


# ======================================================================
# Protocol basics
# ======================================================================
def test_ping(client):
    response = client.ping()
    assert response["ok"] is True
    assert response["protocol"] == PROTOCOL_VERSION


def test_submit_status_poll_result(client, daemon):
    spec = JobSpec(**TINY)
    job_id = client.submit(spec)
    job = client.poll(job_id, timeout=120.0)
    assert job["state"] == "done"
    assert job["spec_fingerprint"] == spec.fingerprint()
    result = client.result(job_id)
    assert result["run_id"] == job["run_id"]
    assert result["spec"] == spec.to_dict()
    report = result["reports"]["GPT-4o|without_restrictions"]
    # The wire payload is the store's exact document.
    stored = daemon.service.store.load_report_json(job["run_id"], "GPT-4o", False)
    assert report == json.loads(stored)


def test_result_before_done_is_an_error(client):
    spec = JobSpec(**dict(TINY, samples_per_problem=2))
    job_id = client.submit(spec)
    try:
        client.result(job_id)
    except ServiceError as error:
        assert "no result" in str(error)
    finally:
        client.poll(job_id, timeout=120.0)  # leave the fixture drained


def test_cancel_queued_job_via_protocol(tmp_path):
    # A dedicated single-worker daemon so the second job is reliably queued.
    release = threading.Event()
    with EvalService(tmp_path / "cancel.db", job_workers=1) as service:
        original = service.queue._executor

        def gated(job):
            release.wait(30.0)
            return original(job)

        service.queue._executor = gated
        with ServiceDaemon(service) as daemon:
            client = ServiceClient(*daemon.address)
            blocker = client.submit(JobSpec(**TINY))
            victim = client.submit(JobSpec(**TINY, base_seed=1))
            assert client.cancel(victim) is True
            assert client.status(victim)["state"] == "cancelled"
            assert client.cancel(victim) is False, "already terminal"
            release.set()
            assert client.poll(blocker, timeout=120.0)["state"] == "done"


def test_concurrent_submitters_all_jobs_persisted(client, daemon):
    """Acceptance: >= 4 concurrent sweep jobs, every report lands in SQLite."""
    ids, errors = [], []
    lock = threading.Lock()

    def submitter(seed):
        try:
            job_id = client.submit(JobSpec(**TINY, base_seed=100 + seed))
            with lock:
                ids.append(job_id)
        except Exception as error:  # noqa: BLE001 - surfaced via the list
            errors.append(error)

    threads = [threading.Thread(target=submitter, args=(n,)) for n in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == [] and len(ids) == 4
    jobs = [client.poll(job_id, timeout=300.0) for job_id in ids]
    assert all(job["state"] == "done" for job in jobs)
    store = daemon.service.store
    for job in jobs:
        run = store.load_run(job["run_id"])  # raises if the run is missing
        assert ("GPT-4o", False) in run.reports
        assert store.load_job(job["job_id"])["state"] == "done"


def test_self_diff_is_empty_via_protocol(client):
    job = client.poll(client.submit(JobSpec(**TINY, base_seed=42)), timeout=120.0)
    response = client.diff(job["run_id"], job["run_id"])
    assert response["report"]["is_empty"] is True
    assert response["report"]["is_regression"] is False
    assert "✅ No differences" in response["markdown"]


def test_runs_listing_and_fingerprint_filter(client):
    spec = JobSpec(**TINY, base_seed=77)
    job = client.poll(client.submit(spec), timeout=120.0)
    runs = client.runs()
    assert any(run["run_id"] == job["run_id"] for run in runs)
    filtered = client.runs(spec.fingerprint())
    assert [run["run_id"] for run in filtered] == [job["run_id"]]


def test_stats_op(client):
    stats = client.stats()
    assert stats["jobs"]["done"] >= 1
    assert stats["store"]["runs"] >= 1
    assert "plan_cache" in stats["engine"]
    assert stats["uptime"] > 0


# ======================================================================
# Protocol robustness
# ======================================================================
def raw_exchange(daemon, lines):
    """Send raw lines on one socket, return one parsed response per line."""
    with socket.create_connection(daemon.address, timeout=30.0) as sock:
        sock.sendall("".join(line + "\n" for line in lines).encode("utf-8"))
        handle = sock.makefile("r", encoding="utf-8")
        return [json.loads(handle.readline()) for _ in lines]


def test_unknown_op_is_an_error_not_a_disconnect(daemon):
    responses = raw_exchange(
        daemon, [json.dumps({"op": "frobnicate"}), json.dumps({"op": "ping"})]
    )
    assert responses[0]["ok"] is False
    assert "unknown op" in responses[0]["error"]
    assert responses[1]["ok"] is True, "the connection survives an unknown op"


def test_malformed_json_line_is_contained(daemon):
    responses = raw_exchange(daemon, ["this is not json", json.dumps({"op": "ping"})])
    assert responses[0]["ok"] is False
    assert responses[1]["ok"] is True, "the connection survives a bad line"


def test_non_object_request_rejected(daemon):
    responses = raw_exchange(daemon, [json.dumps(["op", "ping"])])
    assert responses[0]["ok"] is False


def test_unknown_job_id_is_an_error(client):
    with pytest.raises(ServiceError, match="job-missing"):
        client.status("job-missing")
    with pytest.raises(ServiceError):
        client.result("job-missing")


def test_pipelined_requests_one_socket(daemon):
    responses = raw_exchange(
        daemon, [json.dumps({"op": "ping"}), json.dumps({"op": "stats"}), json.dumps({"op": "ping"})]
    )
    assert [response["ok"] for response in responses] == [True, True, True]


def test_invalid_spec_in_submit_is_an_error(client):
    with pytest.raises(ServiceError, match="cache_dir"):
        client.request("submit", spec={"cache_dir": "/tmp/x"})


def test_idle_connection_gets_structured_timeout(tmp_path):
    """A silent connection is answered with an idle-timeout error, then closed."""
    with EvalService(tmp_path / "idle.db", job_workers=1) as service:
        with ServiceDaemon(service, idle_timeout=0.2) as daemon:
            with socket.create_connection(daemon.address, timeout=30.0) as sock:
                handle = sock.makefile("r", encoding="utf-8")
                start = time.monotonic()
                response = json.loads(handle.readline())
                assert time.monotonic() - start >= 0.2
                assert response["ok"] is False
                assert "idle timeout" in response["error"]
                assert handle.readline() == ""  # the daemon closed the socket


def test_active_connection_is_not_idle_timed_out(tmp_path):
    with EvalService(tmp_path / "busy.db", job_workers=1) as service:
        with ServiceDaemon(service, idle_timeout=0.5) as daemon:
            with socket.create_connection(daemon.address, timeout=30.0) as sock:
                handle = sock.makefile("r", encoding="utf-8")
                for _ in range(3):
                    time.sleep(0.2)  # under the limit every time
                    sock.sendall(b'{"op": "ping"}\n')
                    assert json.loads(handle.readline())["ok"] is True


def test_oversized_request_is_rejected_but_connection_survives(tmp_path):
    with EvalService(tmp_path / "big.db", job_workers=1) as service:
        with ServiceDaemon(service, max_request_bytes=256) as daemon:
            huge = json.dumps({"op": "ping", "padding": "x" * 4096})
            responses = raw_exchange(daemon, [huge, json.dumps({"op": "ping"})])
            assert responses[0]["ok"] is False
            assert "exceeds 256 bytes" in responses[0]["error"]
            assert responses[1]["ok"] is True, "the connection keeps serving"


def test_request_size_cap_validation(tmp_path):
    with EvalService(tmp_path / "cap.db", job_workers=1) as service:
        with pytest.raises(ValueError, match="max_request_bytes"):
            ServiceDaemon(service, max_request_bytes=0)


def test_injected_request_fault_is_a_structured_error(tmp_path):
    """A `daemon.request` fault surfaces as an error response, not a hangup."""
    from repro.faults import FaultRule, clear_plan, inject

    clear_plan()
    with EvalService(tmp_path / "chaos.db", job_workers=1) as service:
        with ServiceDaemon(service) as daemon:
            with inject(FaultRule("daemon.request", max_triggers=1)):
                responses = raw_exchange(
                    daemon, [json.dumps({"op": "ping"}), json.dumps({"op": "ping"})]
                )
    clear_plan()
    assert responses[0]["ok"] is False
    assert "FaultInjected" in responses[0]["error"]
    assert responses[1]["ok"] is True, "the connection survives the injection"


def test_shutdown_op_stops_daemon(tmp_path):
    with EvalService(tmp_path / "stop.db", job_workers=1) as service:
        daemon = ServiceDaemon(service)
        host, port = daemon.start()
        # attempts=1: the probe loop must see the refusal, not retry past it.
        client = ServiceClient(host, port, retry=RetryPolicy(attempts=1))
        client.shutdown()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                client.ping()
                time.sleep(0.05)
            except ServiceError as error:
                assert error.transport  # wrapped ConnectionError, not a daemon reply
                break
        else:
            pytest.fail("the daemon kept serving after the shutdown op")
        daemon.stop()  # idempotent


class _StubServer:
    """Socket-server stand-in: shutdown and close return at once."""

    def shutdown(self):
        pass

    def server_close(self):
        pass


class _RacingThread:
    """Server-thread stand-in that exits during the foreground loop's join,
    letting the shutdown op's ``stop()`` finish before the loop looks again."""

    def __init__(self, daemon):
        self.daemon = daemon
        self.alive = True

    def is_alive(self):
        return self.alive

    def join(self, timeout=None):
        if self.alive:
            self.alive = False
            self.daemon.stop()


def test_serve_forever_returns_when_stop_finishes_first(tmp_path):
    with EvalService(tmp_path / "race.db", job_workers=1) as service:
        daemon = ServiceDaemon(service)
        daemon._server, daemon._thread = _StubServer(), _RacingThread(daemon)
        daemon.serve_forever()
        assert daemon._thread is None


def test_stop_survives_a_concurrent_stop(tmp_path):
    class ReentrantServer(_StubServer):
        """A second stop() runs to completion inside the first one's shutdown."""

        def __init__(self, daemon):
            self.daemon = daemon
            self.calls = 0

        def shutdown(self):
            self.calls += 1
            if self.calls == 1:
                self.daemon.stop()

    with EvalService(tmp_path / "restop.db", job_workers=1) as service:
        daemon = ServiceDaemon(service)
        daemon._server = ReentrantServer(daemon)
        daemon.stop()
        assert daemon._server is None


# ======================================================================
# CLI front doors (in-process)
# ======================================================================
def cli_port(daemon) -> str:
    return str(daemon.address[1])


def test_cli_submit_wait_and_status(daemon, capsys):
    exit_code = service_main(
        [
            "jobs", "--port", cli_port(daemon), "submit",
            "--models", "GPT-4o", "--restrictions", "without",
            "--samples", "1", "--feedback", "1", "--wavelengths", "5",
            "--problems", "mzi_ps", "--seed", "55", "--wait",
        ]
    )
    assert exit_code == 0
    job = json.loads(capsys.readouterr().out)
    assert job["state"] == "done"
    assert service_main(["jobs", "--port", cli_port(daemon), "status", job["job_id"]]) == 0
    assert json.loads(capsys.readouterr().out)["state"] == "done"


def test_cli_list_runs_stats(daemon, capsys):
    for verb in ("list", "runs", "stats"):
        assert service_main(["jobs", "--port", cli_port(daemon), verb]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload, f"'{verb}' must print a non-empty JSON payload"


def test_cli_diff_self_passes_regression_gate(daemon, client, capsys):
    job = client.poll(client.submit(JobSpec(**TINY, base_seed=66)), timeout=120.0)
    exit_code = service_main(
        [
            "jobs", "--port", cli_port(daemon), "diff",
            job["run_id"], job["run_id"], "--fail-on-regression",
        ]
    )
    assert exit_code == 0
    assert "✅ No differences" in capsys.readouterr().out
    assert (
        service_main(
            [
                "jobs", "--port", cli_port(daemon), "diff",
                job["run_id"], job["run_id"], "--format", "json",
            ]
        )
        == 0
    )
    assert json.loads(capsys.readouterr().out)["is_empty"] is True


def test_cli_unreachable_daemon_exits_2(capsys):
    with socket.socket() as probe:  # grab a port that is then closed again
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
    assert (
        service_main(
            ["jobs", "--port", str(dead_port), "--connect-retries", "1", "list"]
        )
        == 2
    )
    assert "could not reach the service daemon" in capsys.readouterr().err


def test_harness_cli_forwards_service_verbs(daemon, capsys):
    assert harness_main(["jobs", "--port", cli_port(daemon), "stats"]) == 0
    assert json.loads(capsys.readouterr().out)["store"]["runs"] >= 1


# ======================================================================
# Acceptance end-to-end + process mode
# ======================================================================
def test_end_to_end_acceptance(tmp_path):
    """ISSUE acceptance: daemon -> tiny core sweep -> poll -> fetch -> self-diff."""
    with EvalService(tmp_path / "e2e.db", job_workers=2) as service:
        with ServiceDaemon(service) as daemon:
            client = ServiceClient(*daemon.address)
            spec = JobSpec(
                models=("GPT-4o",),
                restrictions=(False,),
                samples_per_problem=2,
                max_feedback_iterations=1,
                num_wavelengths=5,
                problems=("mzi_ps", "mzm"),
            )
            job = client.poll(client.submit(spec), timeout=300.0)
            assert job["state"] == "done"
            result = client.result(job["job_id"])
            report = result["reports"]["GPT-4o|without_restrictions"]
            assert set(report["results"]) == {"mzi_ps", "mzm"}
            diff = client.diff(job["run_id"], job["run_id"])
            assert diff["report"]["is_empty"] is True
            counts = service.store.counts()
            assert counts["runs"] == 1 and counts["reports"] == 1
            assert counts["trajectories"] == 2 * 2 * 3 * (1 + 2)


def test_process_mode_job_through_service(tmp_path):
    """A process-mode spec dispatches onto the PR 6 procpool path."""
    with EvalService(
        tmp_path / "proc.db", cache_dir=tmp_path / "cache", job_workers=1
    ) as service:
        spec = JobSpec(**TINY, execution_mode="process", processes=2)
        job_id = service.submit(spec)
        record = service.wait(job_id, timeout=300.0)
        assert record.state.value == "done"
        run = service.store.load_run(record.run_id)
        # Process mode must produce the same bytes as a thread-mode job.
        thread_job = service.submit(JobSpec(**TINY))
        thread_record = service.wait(thread_job, timeout=300.0)
        assert record.run_id != thread_record.run_id, "different specs, different runs"
        thread_run = service.store.load_run(thread_record.run_id)
        assert (
            run.reports[("GPT-4o", False)] == thread_run.reports[("GPT-4o", False)]
        ), "execution mode must not change results"
