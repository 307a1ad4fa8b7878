"""Service-grade tests of the job queue, job specs and the EvalService.

Three layers:

* :class:`repro.service.queue.JobQueue` mechanics with a synthetic
  executor -- ordering/fairness, priorities, bounded concurrency, N
  concurrent submitters, cancellation (queued and mid-run), and the
  ``UnitFailure``-style crash containment (a failed job never poisons the
  queue).
* :class:`repro.service.spec.JobSpec` validation, JSON round trips and
  content fingerprints.
* :class:`repro.service.service.EvalService` integration on tiny sweeps:
  byte-identity with the direct ``run_model`` path, persisted job
  metadata, store-level dedup, and the warm-cache regression tests (job 2
  through one service sees warm plan/simulation caches).
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import pytest

from repro.faults import FaultRule, inject
from repro.harness.runner import SweepConfig, run_model
from repro.llm.profiles import get_profile
from repro.llm.simulated import SimulatedDesigner
from repro.service import EvalService, JobCancelled, JobQueue, JobSpec, JobState
from repro.service.store import canonical_report_json

#: Spec small enough for sub-second jobs but rich enough to exercise the
#: solver (4 samples x 2 feedback iterations produce several structurally
#: identical candidate netlists -> real plan-cache traffic).
TINY = dict(
    models=("GPT-4o",),
    restrictions=(False,),
    samples_per_problem=1,
    max_feedback_iterations=1,
    num_wavelengths=5,
    problems=("mzi_ps",),
)
WARM = dict(TINY, samples_per_problem=4, max_feedback_iterations=2)


def drain(queue: JobQueue) -> None:
    """Shut a queue down, draining whatever is still queued."""
    queue.shutdown(wait=True, timeout=30.0)


# ======================================================================
# JobQueue mechanics (synthetic executor)
# ======================================================================
class Recorder:
    """Synthetic executor recording execution order and concurrency."""

    def __init__(self, delay: float = 0.0):
        self.delay = delay
        self.lock = threading.Lock()
        self.order = []
        self.active = 0
        self.max_active = 0

    def __call__(self, job):
        with self.lock:
            self.active += 1
            self.max_active = max(self.max_active, self.active)
            self.order.append(job.job_id)
        if self.delay:
            time.sleep(self.delay)
        with self.lock:
            self.active -= 1
        return f"result:{job.job_id}"


def test_submit_runs_to_done():
    recorder = Recorder()
    queue = JobQueue(recorder, workers=1)
    job_id = queue.submit(JobSpec(**TINY))
    record = queue.wait(job_id, timeout=10.0)
    assert record.state is JobState.DONE
    assert record.state.terminal
    assert record.result == f"result:{job_id}"
    assert record.started_at is not None and record.finished_at is not None
    drain(queue)


def test_fifo_order_with_single_worker():
    recorder = Recorder()
    gate = threading.Event()

    def gated(job):
        gate.wait(10.0)
        return recorder(job)

    queue = JobQueue(gated, workers=1)
    ids = [queue.submit(JobSpec(**TINY, base_seed=i)) for i in range(6)]
    gate.set()
    for job_id in ids:
        assert queue.wait(job_id, timeout=10.0).state is JobState.DONE
    assert recorder.order == ids
    drain(queue)


def test_priority_orders_execution():
    recorder = Recorder()
    started = threading.Event()
    gate = threading.Event()

    def gated(job):
        # The blocker parks the single worker so the prioritised jobs all
        # sit in the heap together before any of them is popped.
        if job.spec.base_seed == 99:
            started.set()
            gate.wait(10.0)
            return "blocker"
        return recorder(job)

    queue = JobQueue(gated, workers=1)
    blocker = queue.submit(JobSpec(**TINY, base_seed=99))
    assert started.wait(10.0)
    low = queue.submit(JobSpec(**TINY, base_seed=1), priority=10)
    high = queue.submit(JobSpec(**TINY, base_seed=2), priority=-10)
    mid = queue.submit(JobSpec(**TINY, base_seed=3), priority=0)
    gate.set()
    for job_id in (blocker, low, high, mid):
        queue.wait(job_id, timeout=10.0)
    assert recorder.order == [high, mid, low]
    drain(queue)


def test_equal_priority_is_submission_order():
    recorder = Recorder()
    gate = threading.Event()

    def gated(job):
        gate.wait(10.0)
        return recorder(job)

    queue = JobQueue(gated, workers=1)
    ids = [queue.submit(JobSpec(**TINY, base_seed=i), priority=5) for i in range(8)]
    gate.set()
    for job_id in ids:
        queue.wait(job_id, timeout=10.0)
    assert recorder.order == ids
    drain(queue)


def test_concurrent_submitters_no_lost_or_duplicated_jobs():
    recorder = Recorder()
    queue = JobQueue(recorder, workers=4)
    submitted = []
    submitted_lock = threading.Lock()

    def submitter(seed_base):
        for i in range(5):
            job_id = queue.submit(JobSpec(**TINY, base_seed=seed_base * 100 + i))
            with submitted_lock:
                submitted.append(job_id)

    threads = [threading.Thread(target=submitter, args=(n,)) for n in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(submitted) == 40
    assert len(set(submitted)) == 40, "job ids must be unique"
    for job_id in submitted:
        assert queue.wait(job_id, timeout=30.0).state is JobState.DONE
    # Executed exactly once each: no lost and no duplicated jobs.
    assert sorted(recorder.order) == sorted(submitted)
    drain(queue)


def test_bounded_worker_concurrency():
    recorder = Recorder(delay=0.05)
    queue = JobQueue(recorder, workers=2)
    ids = [queue.submit(JobSpec(**TINY, base_seed=i)) for i in range(8)]
    for job_id in ids:
        queue.wait(job_id, timeout=30.0)
    assert recorder.max_active <= 2
    drain(queue)


def test_cancel_queued_job_never_runs():
    recorder = Recorder()
    release = threading.Event()

    def blocking(job):
        release.wait(10.0)
        return recorder(job)

    queue = JobQueue(blocking, workers=1)
    blocker = queue.submit(JobSpec(**TINY, base_seed=0))
    victim = queue.submit(JobSpec(**TINY, base_seed=1))
    assert queue.cancel(victim) is True
    record = queue.get(victim)
    assert record.state is JobState.CANCELLED
    release.set()
    queue.wait(blocker, timeout=10.0)
    drain(queue)
    assert victim not in recorder.order, "a cancelled queued job must never execute"


def test_cancel_running_job_mid_run():
    started = threading.Event()

    def cancellable(job):
        started.set()
        for _ in range(200):
            job.checkpoint()  # raises JobCancelled once requested
            time.sleep(0.01)
        return "finished"

    queue = JobQueue(cancellable, workers=1)
    job_id = queue.submit(JobSpec(**TINY))
    assert started.wait(10.0)
    assert queue.cancel(job_id) is True
    record = queue.wait(job_id, timeout=10.0)
    assert record.state is JobState.CANCELLED
    assert record.result is None
    drain(queue)


def test_cancel_terminal_job_returns_false():
    queue = JobQueue(Recorder(), workers=1)
    job_id = queue.submit(JobSpec(**TINY))
    queue.wait(job_id, timeout=10.0)
    assert queue.cancel(job_id) is False
    drain(queue)


def test_late_cancel_after_completion_stays_done():
    finishing = threading.Event()

    def fast(job):
        finishing.set()
        return "ok"

    queue = JobQueue(fast, workers=1)
    job_id = queue.submit(JobSpec(**TINY))
    record = queue.wait(job_id, timeout=10.0)
    assert record.state is JobState.DONE
    # A cancel request that lands after completion cannot un-do the work.
    assert queue.cancel(job_id) is False
    assert queue.get(job_id).state is JobState.DONE
    drain(queue)


def test_failed_job_records_error_and_traceback():
    def exploding(job):
        raise RuntimeError("boom in the executor")

    queue = JobQueue(exploding, workers=1)
    job_id = queue.submit(JobSpec(**TINY))
    record = queue.wait(job_id, timeout=10.0)
    assert record.state is JobState.FAILED
    assert "RuntimeError" in record.error and "boom in the executor" in record.error
    assert "Traceback" in record.error_traceback
    drain(queue)


def test_crashed_job_never_poisons_the_queue():
    calls = []

    def flaky(job):
        calls.append(job.job_id)
        if job.spec.base_seed % 2 == 0:
            raise ValueError(f"synthetic crash for {job.job_id}")
        return "ok"

    queue = JobQueue(flaky, workers=2)
    ids = [queue.submit(JobSpec(**TINY, base_seed=i)) for i in range(10)]
    states = [queue.wait(job_id, timeout=30.0).state for job_id in ids]
    assert states == [
        JobState.FAILED if i % 2 == 0 else JobState.DONE for i in range(10)
    ]
    assert len(calls) == 10, "every job ran exactly once despite the crashes"
    drain(queue)


def test_unknown_job_id_raises_keyerror():
    queue = JobQueue(Recorder(), workers=1)
    with pytest.raises(KeyError):
        queue.get("job-does-not-exist")
    with pytest.raises(KeyError):
        queue.cancel("job-does-not-exist")
    drain(queue)


def test_submit_after_shutdown_raises():
    queue = JobQueue(Recorder(), workers=1)
    drain(queue)
    with pytest.raises(RuntimeError):
        queue.submit(JobSpec(**TINY))


def test_shutdown_drains_queued_jobs():
    recorder = Recorder(delay=0.01)
    queue = JobQueue(recorder, workers=1)
    ids = [queue.submit(JobSpec(**TINY, base_seed=i)) for i in range(5)]
    queue.shutdown(wait=True, timeout=30.0)
    assert [queue.get(job_id).state for job_id in ids] == [JobState.DONE] * 5


def test_wait_timeout_returns_live_record():
    release = threading.Event()

    def blocking(job):
        release.wait(10.0)
        return "ok"

    queue = JobQueue(blocking, workers=1)
    job_id = queue.submit(JobSpec(**TINY))
    record = queue.wait(job_id, timeout=0.05)
    assert not record.state.terminal
    release.set()
    assert queue.wait(job_id, timeout=10.0).state is JobState.DONE
    drain(queue)


def test_on_update_hook_sees_every_transition():
    seen = []
    queue = JobQueue(
        Recorder(), workers=1, on_update=lambda record: seen.append(record.state)
    )
    job_id = queue.submit(JobSpec(**TINY))
    queue.wait(job_id, timeout=10.0)
    drain(queue)
    assert seen[0] is JobState.QUEUED
    assert JobState.RUNNING in seen
    assert seen[-1] is JobState.DONE


def test_submit_reports_queued_and_enqueue_leaves_it_to_the_caller():
    gate = threading.Event()
    seen = []
    queue = JobQueue(
        lambda job: gate.wait(10.0),
        workers=1,
        on_update=lambda record: seen.append((record.job_id, record.state)),
    )
    blocker = queue.submit(JobSpec(**TINY))
    deadline = time.monotonic() + 10.0
    while queue.get(blocker).state is not JobState.RUNNING:
        assert time.monotonic() < deadline, "the blocker never started"
        time.sleep(0.01)
    submitted = queue.submit(JobSpec(**TINY, base_seed=1))
    prepared = queue.enqueue(queue.prepare(JobSpec(**TINY, base_seed=2)))
    assert [state for job_id, state in seen if job_id == submitted] == [JobState.QUEUED]
    assert [state for job_id, state in seen if job_id == prepared] == []
    gate.set()
    drain(queue)
    assert [state for job_id, state in seen if job_id == prepared] == [
        JobState.RUNNING,
        JobState.DONE,
    ]


def test_on_update_hook_failure_is_contained():
    def hostile_hook(record):
        raise OSError("the store is down")

    queue = JobQueue(Recorder(), workers=1, on_update=hostile_hook)
    job_id = queue.submit(JobSpec(**TINY))
    assert queue.wait(job_id, timeout=10.0).state is JobState.DONE
    drain(queue)


def test_adopt_rejects_live_records():
    from repro.service.queue import JobRecord

    queue = JobQueue(Recorder(), workers=1)
    with pytest.raises(ValueError):
        queue.adopt(JobRecord(job_id="job-x", spec=JobSpec(**TINY)))
    drain(queue)


def test_jobs_listing_preserves_submission_order():
    gate = threading.Event()
    queue = JobQueue(lambda job: gate.wait(10.0), workers=1)
    ids = [queue.submit(JobSpec(**TINY, base_seed=i)) for i in range(4)]
    assert [record.job_id for record in queue.jobs()] == ids
    gate.set()
    drain(queue)


# ======================================================================
# JobSpec
# ======================================================================
def test_spec_json_roundtrip():
    spec = JobSpec(
        models=("GPT-4o", "GPT-4"),
        restrictions=(True,),
        pack="wdm-links",
        pack_params={"channels": [2]},
        problems=("wdm_mux_2ch",),
        retry_attempts=3,
    )
    assert JobSpec.from_dict(spec.to_dict()) == spec


def test_spec_fingerprint_stable_and_content_sensitive():
    spec = JobSpec(**TINY)
    assert spec.fingerprint() == JobSpec(**TINY).fingerprint()
    assert spec.fingerprint() != replace(spec, base_seed=1).fingerprint()
    assert spec.fingerprint() != replace(spec, samples_per_problem=2).fingerprint()


def test_spec_rejects_unknown_kind_and_mode():
    with pytest.raises(ValueError):
        JobSpec(kind="nonsense")
    with pytest.raises(ValueError):
        JobSpec(execution_mode="quantum")


def test_spec_evaluate_kind_is_single_model_single_restriction():
    JobSpec(kind="evaluate", models=("GPT-4o",), restrictions=(False,))
    with pytest.raises(ValueError):
        JobSpec(kind="evaluate", models=("GPT-4o", "GPT-4"), restrictions=(False,))
    with pytest.raises(ValueError):
        JobSpec(kind="evaluate", models=("GPT-4o",), restrictions=(False, True))


def test_spec_rejects_empty_models_and_restrictions():
    with pytest.raises(ValueError):
        JobSpec(models=())
    with pytest.raises(ValueError):
        JobSpec(restrictions=())


def test_spec_validate_rejects_unknown_model_and_pack():
    # Model names resolve on construction, the problem selection on validate().
    with pytest.raises(ValueError, match="GPT-99"):
        JobSpec(models=("GPT-99",))
    with pytest.raises(KeyError):
        JobSpec(pack="no-such-pack").validate()
    with pytest.raises(KeyError, match="no_such_problem"):
        JobSpec(problems=("no_such_problem",)).validate()


def test_spec_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError):
        JobSpec.from_dict({"cache_dir": "/tmp/x"})


@pytest.mark.parametrize("backend", ["auto", "dense", "cascade"])
def test_spec_from_dict_drops_the_retired_solver_backend(backend):
    # Specs stored while the solver backend was a job field still load, and
    # dedupe with today's spec of the same evaluation.
    spec = JobSpec(**TINY)
    stored = JobSpec.from_dict({**spec.to_dict(), "solver_backend": backend})
    assert stored == spec
    assert stored.fingerprint() == spec.fingerprint()
    assert "solver_backend" not in stored.to_dict()


def test_queue_submit_validates_spec():
    queue = JobQueue(Recorder(), workers=1)
    with pytest.raises(KeyError):
        queue.submit(JobSpec(**dict(TINY, problems=("no_such_problem",))))
    drain(queue)


# ======================================================================
# EvalService integration
# ======================================================================
@pytest.fixture()
def service(tmp_path):
    """A small service on a temp database (one queue worker: deterministic)."""
    with EvalService(tmp_path / "results.db", job_workers=1) as svc:
        yield svc


def test_service_job_matches_direct_run_model(service):
    spec = JobSpec(**TINY)
    job_id = service.submit(spec)
    record = service.wait(job_id, timeout=120.0)
    assert record.state is JobState.DONE
    direct = run_model(
        SimulatedDesigner(get_profile("GPT-4o"), base_seed=spec.base_seed),
        include_restrictions=False,
        config=spec.sweep_config(),
    )
    via_service = record.result[("GPT-4o", False)]
    assert canonical_report_json(via_service) == canonical_report_json(direct)


def test_service_persists_run_and_job_metadata(service):
    spec = JobSpec(**TINY)
    job_id = service.submit(spec)
    record = service.wait(job_id, timeout=120.0)
    stored_job = service.store.load_job(job_id)
    assert stored_job["state"] == "done"
    assert stored_job["run_id"] == record.run_id
    run = service.store.load_run(record.run_id)
    assert run.spec == spec
    assert set(run.reports) == {("GPT-4o", False)}


def test_sequential_jobs_share_plan_cache(service):
    """THE one-shot regression test: job 2 hits job 1's compiled plans.

    The second job differs only in its base seed, so its candidate
    netlists share topology (but not content) with job 1's -- exactly the
    case the topology-keyed plan cache serves.  A one-shot CLI would
    recompile from scratch; the service's shared engine must not.
    """
    first = service.submit(JobSpec(**WARM))
    assert service.wait(first, timeout=300.0).state is JobState.DONE
    second = service.submit(JobSpec(**WARM, base_seed=7))
    record = service.wait(second, timeout=300.0)
    assert record.state is JobState.DONE
    plan = record.engine_stats["plan_cache"]
    assert plan["hits"] > 0, "job 2 must get warm plan-cache hits"


def test_identical_resubmission_is_fully_warm(service):
    spec = JobSpec(**WARM)
    first = service.submit(spec)
    assert service.wait(first, timeout=300.0).state is JobState.DONE
    second = service.submit(spec)
    record = service.wait(second, timeout=300.0)
    assert record.state is JobState.DONE
    delta = record.engine_stats
    assert delta["simulation_cache"]["hits"] > 0, "job 2 must hit the simulation cache"
    assert delta["simulation_cache"]["misses"] == 0, "nothing should be re-simulated"
    assert delta["plan_cache"]["misses"] == 0, "nothing should be re-compiled"
    # Identical specs produce identical reports -> the same stored run.
    assert record.run_id == service.status(first).run_id


def test_dedupe_submission_reuses_stored_run(service):
    spec = JobSpec(**TINY)
    first = service.submit(spec)
    service.wait(first, timeout=120.0)
    before = service.store.counts()
    second = service.submit(spec, dedupe=True)
    record = service.wait(second, timeout=10.0)
    assert record.state is JobState.DONE
    assert record.deduplicated is True
    assert record.run_id == service.status(first).run_id
    after = service.store.counts()
    assert after["runs"] == before["runs"], "dedup must not create a new run"
    assert after["jobs"] == before["jobs"] + 1, "but the job itself is recorded"


def test_failed_job_is_contained_and_queue_survives(service):
    with inject(FaultRule("sweep.unit", max_triggers=1)):
        bad = service.submit(JobSpec(**TINY))
        record = service.wait(bad, timeout=120.0)
    assert record.state is JobState.FAILED
    assert "injected fault at sweep.unit" in record.error
    assert service.store.load_job(bad)["state"] == "failed"
    good = service.submit(JobSpec(**TINY))
    assert service.wait(good, timeout=120.0).state is JobState.DONE


def test_model_spellings_are_one_evaluation(service):
    lower, canonical = (JobSpec(**dict(TINY, models=(name,))) for name in ("gpt-4o", "GPT-4o"))
    assert lower.models == ("GPT-4o",)
    assert lower == canonical and lower.fingerprint() == canonical.fingerprint()
    records = [service.wait(service.submit(spec), timeout=120.0) for spec in (lower, canonical)]
    assert records[0].run_id == records[1].run_id
    assert set(service.store.load_run(records[0].run_id).reports) == {("GPT-4o", False)}
    assert service.store.counts()["runs"] == 1


def test_submit_rejects_unknown_problems_and_packs(service):
    for spec in (JobSpec(**dict(TINY, problems=("no_such_problem",))), JobSpec(pack="nosuch")):
        with pytest.raises(KeyError):
            service.submit(spec)
    assert service.queue.jobs() == []
    assert service.store.counts()["jobs"] == 0, "a rejected submit is never journaled"


def test_concurrent_service_jobs_all_complete(tmp_path):
    with EvalService(tmp_path / "results.db", job_workers=2) as svc:
        ids = [svc.submit(JobSpec(**TINY, base_seed=seed)) for seed in range(4)]
        records = [svc.wait(job_id, timeout=300.0) for job_id in ids]
        assert all(record.state is JobState.DONE for record in records)
        assert svc.store.counts()["runs"] == len({record.run_id for record in records})
        stats = svc.stats()
        assert stats["jobs"]["done"] == 4
