"""Durability tests: crash-safe recovery, backpressure, resilient clients.

Three layers are exercised here:

* In-process: journal-before-acknowledge submits, ``max_queued``
  backpressure with structured ``queue_full`` rejection, idempotent
  re-submission, and ``EvalService(recover=True)`` re-adopting the
  non-terminal jobs an abandoned service left in the store.
* Over the wire: the client's transport retries, ``ServiceError``
  wrapping (original exception as ``__cause__``), and a ``poll`` that
  rides out a daemon restart.
* Subprocess: the acceptance scenario -- SIGKILL a real ``serve``
  daemon with queued/running/done jobs in flight, restart it with
  ``--recover``, and require every pre-crash submission to reach DONE
  with byte-identical stored reports (thread and process modes).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.faults import FaultInjected, FaultRule, RetryPolicy, inject
from repro.service import EvalService, JobSpec, JobState, QueueFullError
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import ServiceDaemon
from repro.service.store import ResultsStore

SRC = Path(__file__).resolve().parent.parent / "src"

TINY = dict(
    models=("GPT-4o",),
    restrictions=(False,),
    samples_per_problem=1,
    max_feedback_iterations=1,
    num_wavelengths=5,
    problems=("mzi_ps",),
)


def gate_executor(service: EvalService) -> threading.Event:
    """Block the service's workers until the returned event is set."""
    release = threading.Event()
    original = service.queue._executor

    def gated(job):
        release.wait()
        return original(job)

    service.queue._executor = gated
    return release


def wait_for_state(service: EvalService, job_id: str, state: JobState, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if service.status(job_id).state is state:
            return
        time.sleep(0.02)
    pytest.fail(f"job {job_id} never reached {state}")


# ======================================================================
# Journal-before-acknowledge
# ======================================================================
def test_submit_persists_job_before_acknowledging(tmp_path):
    service = EvalService(tmp_path / "ack.db", job_workers=1)
    release = gate_executor(service)
    try:
        job_id = service.submit(JobSpec(**TINY))
        # The store row exists the moment submit returned -- a crash right
        # now loses nothing.
        row = service.store.load_job(job_id)
        assert row["state"] in ("queued", "running")
        assert JobSpec.from_dict(row["spec"]).fingerprint() == JobSpec(**TINY).fingerprint()
    finally:
        release.set()
        service.close(timeout=60.0)


def test_submit_writes_its_queued_row_once(tmp_path):
    service = EvalService(tmp_path / "once.db", job_workers=1)
    states = []
    record_job = service.store.record_job

    def recording(job):
        states.append(job["state"])
        record_job(job)

    service.store.record_job = recording
    try:
        job_id = service.submit(JobSpec(**TINY))
        assert service.queue.wait(job_id, timeout=60.0).state is JobState.DONE
    finally:
        service.close(timeout=60.0)
    # The journal-before-acknowledge write is the only QUEUED row; the
    # worker then records the two transitions it makes.
    assert states == ["queued", "running", "done"]


def test_unjournalable_submit_is_fully_rejected(tmp_path):
    service = EvalService(tmp_path / "rej.db", job_workers=1)
    release = gate_executor(service)
    try:
        with inject(FaultRule(point="service.journal")):
            with pytest.raises(FaultInjected):
                service.submit(JobSpec(**TINY))
        # Nothing half-accepted: no queued job, no store row to recover.
        assert service.queue.jobs() == []
        assert service.store.pending_jobs() == []
    finally:
        release.set()
        service.close(timeout=60.0)


# ======================================================================
# Backpressure
# ======================================================================
def test_queue_full_rejects_with_context(tmp_path):
    service = EvalService(tmp_path / "full.db", job_workers=1, max_queued=1)
    release = gate_executor(service)
    try:
        blocker = service.submit(JobSpec(**TINY))
        wait_for_state(service, blocker, JobState.RUNNING)  # off the queue
        queued = service.submit(JobSpec(**TINY, base_seed=1))
        with pytest.raises(QueueFullError) as excinfo:
            service.submit(JobSpec(**TINY, base_seed=2))
        assert excinfo.value.depth == 1
        assert excinfo.value.max_queued == 1
        # The rejected job was journaled first, then terminally cancelled:
        # a later --recover must not resurrect it.
        rejected = [
            row for row in service.store.jobs()
            if row["error"] == "rejected: queue full"
        ]
        assert len(rejected) == 1
        assert rejected[0]["state"] == "cancelled"
        assert {row["job_id"] for row in service.store.pending_jobs()} == {
            blocker,  # running at "crash time" is still recoverable work
            queued,
        }
        # Health/readiness reflect the saturated queue.
        health = service.health()
        assert health["queue_depth"] == 1
        assert health["max_queued"] == 1
        assert health["store_writable"] is True
        assert health["workers"]["alive"] == 1
        assert service.ready()["ready"] is False
        release.set()
        for job_id in (blocker, queued):
            assert service.wait(job_id, timeout=120.0).state is JobState.DONE
        assert service.ready()["ready"] is True
    finally:
        release.set()
        service.close(timeout=60.0)


def test_daemon_answers_structured_queue_full(tmp_path):
    service = EvalService(tmp_path / "wire.db", job_workers=1, max_queued=1)
    release = gate_executor(service)
    try:
        daemon = ServiceDaemon(service)
        blocker = service.submit(JobSpec(**TINY))
        wait_for_state(service, blocker, JobState.RUNNING)
        service.submit(JobSpec(**TINY, base_seed=1))
        response = daemon.dispatch(
            {"op": "submit", "spec": JobSpec(**TINY, base_seed=2).to_dict()}
        )
        assert response["ok"] is False
        assert response["error_code"] == "queue_full"
        assert response["queue_depth"] == 1
        assert response["max_queued"] == 1
        assert "full" in response["error"]
    finally:
        release.set()
        service.close(timeout=60.0)


# ======================================================================
# Idempotent re-submission
# ======================================================================
def test_idempotency_key_never_double_runs(tmp_path):
    service = EvalService(tmp_path / "idem.db", job_workers=1)
    release = gate_executor(service)
    try:
        spec = JobSpec(**TINY)
        first = service.submit(spec, idempotency_key="key-1")
        retried = service.submit(spec, idempotency_key="key-1")
        assert retried == first  # a transport retry re-lands on the same job
        fresh = service.submit(spec, idempotency_key="key-2")
        assert fresh != first  # a deliberate second submit is a second job
        assert len(service.queue.jobs()) == 2
    finally:
        release.set()
        service.close(timeout=60.0)


def test_client_submit_retry_is_idempotent(tmp_path):
    with EvalService(tmp_path / "cidem.db", job_workers=2) as service:
        with ServiceDaemon(service) as daemon:
            client = ServiceClient(*daemon.address)
            spec = JobSpec(**TINY)
            # Plain submits are separate logical calls: distinct jobs.
            a = client.submit(spec)
            b = client.submit(spec)
            assert a != b
            # Content-keyed submits collapse onto the first job.
            c = client.submit(spec, idempotent=True)
            d = client.submit(spec, idempotent=True)
            assert c == d
            for job_id in (a, b, c):
                assert client.poll(job_id, timeout=120.0)["state"] == "done"


# ======================================================================
# Crash recovery (in-process)
# ======================================================================
def test_recover_readopts_pending_jobs_byte_identically(tmp_path):
    specs = [JobSpec(**TINY, base_seed=seed) for seed in (10, 11)]
    # A reference service computes the expected stored-report bytes.
    with EvalService(tmp_path / "ref.db", cache_dir=tmp_path / "refcache") as ref:
        expected = {}
        for spec in specs:
            record = ref.wait(ref.submit(spec), timeout=120.0)
            assert record.state is JobState.DONE
            expected[spec.fingerprint()] = ref.store.load_report_json(
                record.run_id, "GPT-4o", False
            )

    # "Crash" a service mid-flight: one job RUNNING, one QUEUED, then the
    # process is abandoned (its gated workers never finish anything).
    crashed = EvalService(
        tmp_path / "crash.db", job_workers=1, cache_dir=tmp_path / "cache"
    )
    gate_executor(crashed)  # never released: the crash leaves both jobs live
    running = crashed.submit(specs[0])
    queued = crashed.submit(specs[1])
    wait_for_state(crashed, running, JobState.RUNNING)
    # No close(): a SIGKILL'd process does not get to drain.

    recovered = EvalService(
        tmp_path / "crash.db",
        job_workers=2,
        cache_dir=tmp_path / "cache",
        recover=True,
    )
    try:
        summary = recovered.health()["recovery"]
        assert summary["enabled"] is True
        assert summary["recovered"] == 2
        assert set(summary["requeued_jobs"]) == {running, queued}
        for spec, job_id in zip(specs, (running, queued)):
            record = recovered.wait(job_id, timeout=120.0)
            assert record.state is JobState.DONE
            stored = recovered.store.load_report_json(record.run_id, "GPT-4o", False)
            assert stored == expected[spec.fingerprint()]
    finally:
        recovered.close(timeout=60.0)


def test_status_falls_back_to_the_store_after_restart(tmp_path):
    db = tmp_path / "fallback.db"
    with EvalService(db) as service:
        job_id = service.submit(JobSpec(**TINY))
        assert service.wait(job_id, timeout=120.0).state is JobState.DONE
    # A fresh process: the queue never heard of the job, the store did.
    with EvalService(db, recover=True) as fresh:
        assert fresh.health()["recovery"]["recovered"] == 0  # terminal: not re-run
        record = fresh.status(job_id)
        assert record.state is JobState.DONE
        assert record.run_id is not None
        with pytest.raises(KeyError):
            fresh.status("job-truly-unknown")


# ======================================================================
# Resilient client
# ======================================================================
def test_client_wraps_transport_failures_in_service_error():
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
    client = ServiceClient("127.0.0.1", dead_port, retry=RetryPolicy(attempts=1))
    with pytest.raises(ServiceError) as excinfo:
        client.ping()
    assert isinstance(excinfo.value.__cause__, ConnectionError)
    assert excinfo.value.transport is True


def test_client_retries_transient_connect_failures(tmp_path):
    with EvalService(tmp_path / "retry.db") as service:
        with ServiceDaemon(service) as daemon:
            # FaultInjected subclasses OSError -- transient under the default
            # policy -- and fires twice, so the third attempt succeeds.
            client = ServiceClient(*daemon.address, retry=RetryPolicy(attempts=3))
            with inject(FaultRule(point="client.connect", max_triggers=2)):
                assert client.ping()["ok"] is True
            # Retries exhausted: the transport failure surfaces as
            # ServiceError with the injected fault as its cause.
            impatient = ServiceClient(*daemon.address, retry=RetryPolicy(attempts=2))
            with inject(FaultRule(point="client.connect", max_triggers=2)):
                with pytest.raises(ServiceError) as excinfo:
                    impatient.ping()
            assert isinstance(excinfo.value.__cause__, FaultInjected)


def test_poll_survives_a_daemon_restart(tmp_path):
    service = EvalService(tmp_path / "restart.db", job_workers=1)
    release = gate_executor(service)
    try:
        first = ServiceDaemon(service)
        host, port = first.start()
        client = ServiceClient(host, port)
        job_id = client.submit(JobSpec(**TINY))

        outcome = {}

        def poll():
            try:
                outcome["job"] = client.poll(job_id, timeout=60.0, interval=0.05)
            except Exception as error:  # noqa: BLE001 - surfaced by the assert
                outcome["error"] = error

        poller = threading.Thread(target=poll)
        poller.start()
        time.sleep(0.3)  # let at least one status probe land
        first.stop()  # daemon gone: polls now hit connection refused
        time.sleep(0.5)
        second = ServiceDaemon(service, port=port)  # "restart" on the same port
        second.start()
        release.set()
        poller.join(timeout=90.0)
        second.stop()
        assert not poller.is_alive()
        assert outcome.get("error") is None, outcome
        assert outcome["job"]["state"] == "done"
    finally:
        release.set()
        service.close(timeout=60.0)


def test_poll_backoff_grows_and_caps():
    policy = RetryPolicy(attempts=2**31 - 1, base_delay=0.1, max_delay=2.0)
    delays = [policy.delay(i, seed="job-x") for i in range(8)]
    # Exponential growth until the cap (jitter stays within 25%)...
    assert delays[0] < delays[2] < delays[4]
    assert delays[0] < 0.2
    # ...then bounded at max_delay plus jitter headroom.
    assert all(d <= 2.0 * 1.25 for d in delays)
    assert min(delays[5:]) >= 2.0
    # Determinism: the same job id always sleeps the same schedule.
    assert delays == [policy.delay(i, seed="job-x") for i in range(8)]


# ======================================================================
# Acceptance: SIGKILL a real daemon, restart with --recover
# ======================================================================
#: Holds every trajectory after a daemon's first two (one two-sample job),
#: so the jobs submitted after it are still in flight when it is killed.
HOLD_AFTER_FIRST_JOB = "sweep.unit=delay+2~30"


def serve_daemon(db, cache, *extra, faults=None):
    """A ``serve`` subprocess in its own session, and its address line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.setdefault("PYTHONHASHSEED", "0")
    if faults is not None:
        env["REPRO_FAULTS"] = faults
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service", "serve",
            "--db", str(db), "--cache-dir", str(cache), "--job-workers", "1",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        start_new_session=True,
    )
    line = proc.stdout.readline()
    if not line:
        kill_session(proc)
        raise AssertionError(f"daemon died on startup: {proc.stderr.read()}")
    return proc, json.loads(line)


def kill_session(proc) -> None:
    """SIGKILL a daemon's whole session: the daemon and any pool workers it left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait(timeout=30.0)


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_sigkilled_daemon_recovers_all_jobs(tmp_path, mode):
    base = dict(
        TINY,
        samples_per_problem=2,
        max_feedback_iterations=2,
        execution_mode=mode,
        processes=2 if mode == "process" else 0,
    )
    specs = [JobSpec(**base, base_seed=seed) for seed in (0, 1, 2)]

    # Reference bytes from an uninterrupted in-process run.
    with EvalService(tmp_path / "ref.db", cache_dir=tmp_path / "refcache") as ref:
        expected = {}
        for spec in specs:
            record = ref.wait(ref.submit(spec), timeout=300.0)
            assert record.state is JobState.DONE
            expected[spec.fingerprint()] = ref.store.load_report_json(
                record.run_id, "GPT-4o", False
            )

    db, cache = tmp_path / "results.db", tmp_path / "cache"
    daemons = []
    try:
        proc, addr = serve_daemon(db, cache, faults=HOLD_AFTER_FIRST_JOB)
        daemons.append(proc)
        client = ServiceClient(addr["host"], addr["port"])
        job_ids = [client.submit(specs[0])]
        first = client.poll(
            job_ids[0], timeout=300.0, interval=0.02, max_interval=0.05
        )
        assert first["state"] == "done"
        # Submit the rest and SIGKILL while the fault plan holds them: the
        # crash deterministically leaves done + in-flight + queued jobs behind.
        job_ids += [client.submit(spec) for spec in specs[1:]]
        proc.kill()  # SIGKILL: no drain, no goodbye
        proc.wait(timeout=30.0)

        restarted, addr = serve_daemon(db, cache, "--recover")
        daemons.append(restarted)
        assert addr["recovery"]["enabled"] is True
        assert addr["recovery"]["recovered"] >= 2  # the in-flight jobs
        client = ServiceClient(addr["host"], addr["port"])
        # Every pre-crash submission reaches DONE: jobs 1/2 re-adopted and
        # re-run journal-warm, job 0 answered from the store fallback.
        for job_id in job_ids:
            assert client.poll(job_id, timeout=300.0)["state"] == "done"
        statuses = {job_id: client.status(job_id) for job_id in job_ids}
        client.shutdown()
        restarted.wait(timeout=60.0)

        store = ResultsStore(db)
        for spec, job_id in zip(specs, job_ids):
            stored = store.load_report_json(
                str(statuses[job_id]["run_id"]), "GPT-4o", False
            )
            assert stored == expected[spec.fingerprint()], (
                f"recovered report of {job_id} is not byte-identical"
            )
    finally:
        for daemon in daemons:
            kill_session(daemon)
