"""End-to-end smoke of the evaluation service (the CI `service` gate).

Starts an in-process daemon on a temp database, then drives the whole
acceptance path over the real socket protocol:

1. >= 4 concurrent sweep jobs submitted from concurrent threads; every
   job must finish ``done`` and every report must land in SQLite.
2. A seed-varied job re-using the first job's compiled plans (plan-cache
   hits > 0 in its per-job engine-stats delta) -- the one-shot regression.
3. An identical re-submission that is fully warm: simulation-cache hits
   with zero misses and zero plan compiles.  A re-submission that differs
   only in batch size, with ``dedupe``, is the same evaluation: it comes
   back deduplicated onto the stored run.
4. A self-diff of a stored run through the ``diff`` op: must be empty and
   must not trip the regression gate.

Exits non-zero with a message on the first violated invariant.

Usage::

    PYTHONPATH=src python tools/service_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service import EvalService, JobSpec  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.daemon import ServiceDaemon  # noqa: E402

#: Small but engine-exercising spec (several structure-sharing candidates).
BASE = dict(
    models=("GPT-4o",),
    restrictions=(False,),
    samples_per_problem=4,
    max_feedback_iterations=2,
    num_wavelengths=5,
)


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="service-smoke-") as workdir:
        db = Path(workdir) / "results.db"
        with EvalService(db, job_workers=4) as service:
            with ServiceDaemon(service) as daemon:
                client = ServiceClient(*daemon.address)
                if client.ping()["ok"] is not True:
                    fail("ping did not answer ok")

                # -- 1. concurrent submissions ------------------------------
                ids: list = []
                errors: list = []
                lock = threading.Lock()

                # The concurrent batch runs a *different* problem than the
                # warm-cache steps below, so those start with a clean
                # simulation-content space for their problem.
                def submit(seed: int) -> None:
                    try:
                        job_id = client.submit(
                            JobSpec(**BASE, problems=("mzm",), base_seed=seed)
                        )
                        with lock:
                            ids.append(job_id)
                    except Exception as error:  # noqa: BLE001
                        errors.append(error)

                threads = [
                    threading.Thread(target=submit, args=(seed,)) for seed in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                if errors or len(ids) != 4:
                    fail(f"concurrent submission broke: {errors!r}, ids={ids!r}")
                jobs = [client.poll(job_id, timeout=600.0) for job_id in ids]
                for job in jobs:
                    if job["state"] != "done":
                        fail(f"job {job['job_id']} ended {job['state']}: {job['error']}")
                    service.store.load_run(job["run_id"])  # raises when missing
                print(f"ok: {len(jobs)} concurrent jobs done and persisted")

                # -- 2. warm plan cache on a seed-varied job ----------------
                # Job 1 on mzi_ps compiles its plans; job 2 differs only in
                # seed (same topologies, new settings), so a service that
                # kept the engine warm must serve plan-cache hits.
                mzi = dict(BASE, problems=("mzi_ps",))
                first_id = client.submit(JobSpec(**mzi, base_seed=0))
                first = client.poll(first_id, timeout=600.0)
                if first["state"] != "done":
                    fail(f"mzi_ps baseline job ended {first['state']}")
                warm_id = client.submit(JobSpec(**mzi, base_seed=7))
                warm = client.poll(warm_id, timeout=600.0)
                plan = warm["engine_stats"]["plan_cache"]
                if not plan["hits"] > 0:
                    fail(f"seed-varied job saw no plan-cache hits: {plan!r}")
                if plan["misses"] != 0:
                    fail(f"seed-varied job recompiled plans: {plan!r}")
                print(f"ok: seed-varied job warm ({plan['hits']} plan-cache hits)")

                # -- 3. identical re-submission is fully warm ---------------
                rerun_id = client.submit(JobSpec(**mzi, base_seed=0))
                rerun = client.poll(rerun_id, timeout=600.0)
                delta = rerun["engine_stats"]
                sim = delta["simulation_cache"]
                if not (sim["hits"] > 0 and sim["misses"] == 0):
                    fail(f"identical re-submission re-simulated: {sim!r}")
                if delta["plan_cache"]["misses"] != 0:
                    fail(f"identical re-submission recompiled plans: {delta!r}")
                if rerun["run_id"] != first["run_id"]:
                    fail("identical re-submission did not dedupe to the same run")
                print(f"ok: identical re-submission fully warm ({sim['hits']} sim hits)")
                batched_id = client.submit(
                    JobSpec(**mzi, base_seed=0, batch_size=4), dedupe=True
                )
                batched = client.poll(batched_id, timeout=600.0)
                if not (batched["deduplicated"] and batched["run_id"] == first["run_id"]):
                    fail(f"batch-size re-submission was not deduplicated: {batched!r}")
                print("ok: batch-size re-submission deduplicated onto the stored run")

                # -- 4. self-diff is empty ----------------------------------
                diff = client.diff(rerun["run_id"], rerun["run_id"])
                if diff["report"]["is_empty"] is not True:
                    fail(f"self-diff is not empty: {diff['report']!r}")
                if diff["report"]["is_regression"] is not False:
                    fail("self-diff tripped the regression gate")
                print("ok: self-diff empty, regression gate clean")

                counts = service.store.counts()
                print(
                    f"ok: store has {counts['runs']} runs, {counts['reports']} reports, "
                    f"{counts['trajectories']} trajectory rows, {counts['jobs']} jobs"
                )
    print("service smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
