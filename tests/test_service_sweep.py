"""Tests of a service job run as one sweep.

``EvalService`` runs every job -- whatever its models and restriction
settings -- as one ``run_sweep``.  On both execution tiers a multi-pair
job must store the reports ``run_model`` computes per (model, restriction)
pair, byte for byte and under the same run id, journal into the single
file its ``JobSpec.fingerprint()`` names, stop at the next finished
trajectory when cancelled, and resume from that journal after a failure.
"""

from __future__ import annotations

import time

import pytest

from repro.faults import FaultRule, clear_plan, inject
from repro.harness.runner import run_model
from repro.llm.profiles import get_profile
from repro.llm.simulated import SimulatedDesigner
from repro.service import EvalService, JobSpec, JobState
from repro.service.store import canonical_report_json, run_fingerprint

#: Two models under both restriction settings: 2 x 2 x 2 problems x 2
#: samples = 16 trajectories.
PAIRS = dict(
    models=("GPT-4o", "Gemini 1.5 pro"),
    restrictions=(False, True),
    samples_per_problem=2,
    max_feedback_iterations=1,
    num_wavelengths=5,
    problems=("mzi_ps", "mzm"),
)
TRAJECTORIES = 16

TIERS = {
    "thread": dict(),
    "process": dict(execution_mode="process", processes=2),
}


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    clear_plan()
    yield
    clear_plan()


def journal_lines(journal_dir, spec: JobSpec) -> list:
    """The journal of ``spec``, after checking it is the directory's only file."""
    assert [path.name for path in journal_dir.iterdir()] == [
        f"sweep-{spec.fingerprint()}.jsonl"
    ]
    return (journal_dir / f"sweep-{spec.fingerprint()}.jsonl").read_text().splitlines()


def per_pair_reports(spec: JobSpec) -> dict:
    """The reports of ``spec``, one ``run_model`` per (model, restriction) pair."""
    return {
        (model, restrictions): run_model(
            SimulatedDesigner(get_profile(model), base_seed=spec.base_seed),
            include_restrictions=restrictions,
            config=spec.sweep_config(),
        )
        for restrictions in spec.restrictions
        for model in spec.models
    }


@pytest.fixture(scope="module")
def reference():
    """The per-pair reports of the thread-tier ``PAIRS`` spec."""
    return per_pair_reports(JobSpec(**PAIRS))


@pytest.mark.parametrize("tier", TIERS)
def test_multi_pair_job_stores_the_per_pair_reports_from_one_journal(tmp_path, reference, tier):
    spec = JobSpec(**PAIRS, **TIERS[tier])
    journals = tmp_path / "journals"
    with EvalService(tmp_path / "results.db", job_workers=1, journal_dir=journals) as service:
        record = service.wait(service.submit(spec), timeout=300.0)
        assert record.state is JobState.DONE, record.error
        assert record.run_id == run_fingerprint(spec, reference)
        for (model, restrictions), report in reference.items():
            stored = service.store.load_report_json(record.run_id, model, restrictions)
            assert stored == canonical_report_json(report), (model, restrictions)
    assert len(journal_lines(journals, spec)) == TRAJECTORIES
    if tier == "process":
        assert record.engine_stats["simulation_cache"]["misses"] > 0, (
            "process-tier jobs record their workers' engine stats"
        )


def test_a_thread_tier_job_runs_its_batch_size_in_lockstep(tmp_path, reference):
    """The shared engine runs a thread-tier job at the job's batch size."""
    with EvalService(tmp_path / "results.db", job_workers=1) as service:
        record = service.wait(service.submit(JobSpec(**PAIRS, batch_size=4)), timeout=300.0)
        assert record.state is JobState.DONE, record.error
        assert record.engine_stats["batch"]["calls"] > 0
        # The run id and bytes of the batch-size-1 job.
        assert record.run_id == run_fingerprint(JobSpec(**PAIRS), reference)
        for (model, restrictions), report in reference.items():
            stored = service.store.load_report_json(record.run_id, model, restrictions)
            assert stored == canonical_report_json(report), (model, restrictions)


@pytest.mark.parametrize("tier", TIERS)
def test_cancel_lands_at_the_next_finished_trajectory(tmp_path, tier):
    spec = JobSpec(**PAIRS, **TIERS[tier])
    journals = tmp_path / "journals"
    journal = journals / f"sweep-{spec.fingerprint()}.jsonl"
    with EvalService(tmp_path / "results.db", job_workers=1, journal_dir=journals) as service:
        with inject(FaultRule("sweep.unit", kind="delay", delay=0.1)):
            job_id = service.submit(spec)
            deadline = time.monotonic() + 120.0
            while not (journal.exists() and journal.read_text()):
                assert time.monotonic() < deadline, "no trajectory was journaled"
                time.sleep(0.005)
            assert service.cancel(job_id) is True
            record = service.wait(job_id, timeout=120.0)
        assert record.state is JobState.CANCELLED
        assert service.store.counts()["runs"] == 0
    assert 1 <= len(journal_lines(journals, spec)) < TRAJECTORIES


@pytest.mark.parametrize("tier", TIERS)
def test_failed_job_resumes_only_the_missing_trajectories(tmp_path, reference, tier):
    spec = JobSpec(**PAIRS, **TIERS[tier])
    journals = tmp_path / "journals"
    done = 5
    with EvalService(tmp_path / "results.db", job_workers=1, journal_dir=journals) as service:
        with inject(FaultRule("sweep.unit", after=done, max_triggers=1)):
            failed = service.wait(service.submit(spec), timeout=300.0)
        assert failed.state is JobState.FAILED
        assert len(journal_lines(journals, spec)) == done
        record = service.wait(service.submit(spec), timeout=300.0)
        assert record.state is JobState.DONE, record.error
        assert record.run_id == run_fingerprint(spec, reference)
        for (model, restrictions), report in reference.items():
            stored = service.store.load_report_json(record.run_id, model, restrictions)
            assert stored == canonical_report_json(report), (model, restrictions)
    # Each trajectory is journaled once: the resumed job computed only the
    # trajectories the failed one had not finished.
    assert len(journal_lines(journals, spec)) == TRAJECTORIES
