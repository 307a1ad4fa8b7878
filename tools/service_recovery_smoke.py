"""Service durability smoke: SIGKILL, recover, byte-identical results.

The CI-facing end-to-end check of the evaluation service's crash story:

1. Reference: an uninterrupted in-process service computes the expected
   stored-report bytes for three job specs.
2. Crash: a real ``python -m repro.service serve`` daemon takes the same
   three submissions (one worker: done / running / queued) and is
   SIGKILLed the moment the first job finishes -- no drain, no goodbye.
3. Recover: the daemon restarts on the same database and cache with
   ``--recover``; every pre-crash submission must reach DONE -- the
   re-adopted jobs resume journal-warm -- and every stored report must be
   byte-identical to the reference.
4. Backpressure: a daemon started with ``--max-queued 1`` must answer the
   overflowing submit with a structured ``queue_full`` error carrying the
   queue depth, while still completing the accepted jobs.

Exits non-zero on the first violation.

Usage::

    PYTHONPATH=src python tools/service_recovery_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)

from repro.service import EvalService, JobSpec, JobState  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.store import ResultsStore  # noqa: E402

BASE = dict(
    models=("GPT-4o",),
    restrictions=(False,),
    samples_per_problem=2,
    max_feedback_iterations=2,
    num_wavelengths=5,
    problems=("mzi_ps",),
)


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


#: Holds every trajectory after a daemon's first two (one two-sample job),
#: so the jobs submitted after it are still in flight when it is killed.
HOLD_AFTER_FIRST_JOB = "sweep.unit=delay+2~30"


def serve(
    daemons: List[subprocess.Popen], db: Path, cache: Path, *extra: str, faults: Optional[str] = None
):
    """Start a daemon subprocess in its own session, appended to ``daemons``;
    returns (process, parsed address line)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
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
    daemons.append(proc)
    line = proc.stdout.readline()
    if not line:
        fail(f"daemon died on startup: {proc.stderr.read()}")
    return proc, json.loads(line)


def kill_sessions(daemons: List[subprocess.Popen]) -> None:
    """SIGKILL every started daemon's session, with any pool workers it left."""
    for proc in daemons:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=30.0)


def main() -> int:
    """Run the smoke, then SIGKILL every daemon session it started."""
    daemons: List[subprocess.Popen] = []
    try:
        return smoke(daemons)
    finally:
        kill_sessions(daemons)


def smoke(daemons: List[subprocess.Popen]) -> int:
    """Run the four checks, recording every daemon started in ``daemons``."""
    specs = [JobSpec(**BASE, base_seed=seed) for seed in (0, 1, 2)]
    with tempfile.TemporaryDirectory(prefix="recovery-smoke-") as raw:
        root = Path(raw)

        # -- 1. reference bytes from an uninterrupted run --------------
        expected = {}
        with EvalService(root / "ref.db", cache_dir=root / "refcache") as ref:
            for spec in specs:
                record = ref.wait(ref.submit(spec), timeout=300.0)
                if record.state is not JobState.DONE:
                    fail(f"reference job ended {record.state.value}: {record.error}")
                expected[spec.fingerprint()] = ref.store.load_report_json(
                    record.run_id, "GPT-4o", False
                )
        print(f"ok: reference run stored {len(expected)} reports")

        # -- 2. SIGKILL a live daemon mid-flight -----------------------
        db, cache = root / "results.db", root / "cache"
        proc, addr = serve(daemons, db, cache, faults=HOLD_AFTER_FIRST_JOB)
        client = ServiceClient(addr["host"], addr["port"])
        job_ids = [client.submit(specs[0])]
        first = client.poll(job_ids[0], timeout=300.0, interval=0.02, max_interval=0.05)
        if first["state"] != "done":
            fail(f"first job ended {first['state']} before the crash")
        # Submit the remaining jobs and kill while the fault plan holds
        # them: the crash deterministically leaves one DONE, one
        # RUNNING-or-QUEUED, one QUEUED job behind.
        job_ids += [client.submit(spec) for spec in specs[1:]]
        proc.kill()
        proc.wait(timeout=30.0)
        print("ok: daemon SIGKILLed with one job done and two jobs in flight")

        # -- 3. restart with --recover: nothing may be lost ------------
        proc, addr = serve(daemons, db, cache, "--recover")
        recovery = addr["recovery"]
        if not recovery["enabled"]:
            fail("restarted daemon did not report recovery enabled")
        if recovery["recovered"] < 2:
            fail(
                "the in-flight jobs were not re-adopted "
                f"(recovered={recovery['recovered']})"
            )
        client = ServiceClient(addr["host"], addr["port"])
        run_ids = {}
        for job_id in job_ids:
            record = client.poll(job_id, timeout=300.0)
            if record["state"] != "done":
                fail(f"job {job_id} ended {record['state']} after recovery")
            run_ids[job_id] = str(record["run_id"])
        client.shutdown()
        proc.wait(timeout=60.0)
        store = ResultsStore(db)
        for spec, job_id in zip(specs, job_ids):
            stored = store.load_report_json(run_ids[job_id], "GPT-4o", False)
            if stored != expected[spec.fingerprint()]:
                fail(f"recovered report of {job_id} is not byte-identical")
        print(
            f"ok: --recover re-adopted {recovery['recovered']} jobs, all "
            f"{len(job_ids)} pre-crash submissions DONE, reports byte-identical"
        )

        # -- 4. backpressure: structured queue_full rejection ----------
        proc, addr = serve(daemons, root / "bp.db", root / "bpcache", "--max-queued", "1")
        client = ServiceClient(addr["host"], addr["port"])
        running = client.submit(specs[0])
        # Wait for the worker to pick the first job up, so the second
        # deterministically occupies the whole max_queued=1 budget.
        deadline = time.monotonic() + 60.0
        while client.status(running)["state"] == "queued":
            if time.monotonic() > deadline:
                fail("first backpressure job never started running")
            time.sleep(0.02)
        accepted = [running, client.submit(specs[1])]
        # Raw request: the structured error fields, not the client's raise.
        payload = json.dumps({"op": "submit", "spec": specs[2].to_dict()}) + "\n"
        with socket.create_connection((addr["host"], addr["port"]), timeout=30.0) as sock:
            sock.sendall(payload.encode("utf-8"))
            response = json.loads(sock.makefile("r").readline())
        if response.get("ok") is not False:
            fail(f"overflow submit was not rejected: {response!r}")
        if response.get("error_code") != "queue_full":
            fail(f"rejection is not structured: {response!r}")
        if "queue_depth" not in response or "max_queued" not in response:
            fail(f"queue_full error lacks context: {response!r}")
        for job_id in accepted:
            if client.poll(job_id, timeout=300.0)["state"] != "done":
                fail(f"accepted job {job_id} did not finish under backpressure")
        client.shutdown()
        proc.wait(timeout=60.0)
        print(
            "ok: overflow submit rejected with structured queue_full "
            f"(depth={response['queue_depth']}, max={response['max_queued']}), "
            "accepted jobs finished"
        )

    print("service recovery smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
