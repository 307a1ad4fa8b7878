"""Tests of the service's SQLite results store.

Covers the storage contract end to end: byte-identical report round trips
(including hypothesis-generated reports), content-fingerprint run dedup,
trajectory derivation, job metadata persistence, the v1 -> v2 -> v3 schema
migrations, refusal of newer-than-code databases, and concurrent writers
(threads *and* forked processes) against one database file.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sqlite3
import threading
import time
from contextlib import closing
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.fingerprint import stable_hash
from repro.evalkit.outcome import AttemptRecord, EvalReport, SampleResult
from repro.harness.journal import sweep_fingerprint
from repro.harness.runner import FEEDBACK_COLUMNS, PASS_AT
from repro.netlist.errors import ErrorCategory
from repro.service import EvalService, JobSpec, JobState, ResultsStore, SCHEMA_VERSION
from repro.service.store import (
    PACK_AGGREGATE,
    TRAJECTORY_METRICS,
    _SCHEMA_V1,
    _SCHEMA_V2_TRAJECTORIES,
    canonical_report_json,
    run_fingerprint,
    trajectory_rows,
)

SPEC = JobSpec(
    models=("GPT-4o",),
    restrictions=(False,),
    samples_per_problem=2,
    max_feedback_iterations=1,
    num_wavelengths=5,
    problems=("mzi_ps",),
)


def make_report(
    *,
    model: str = "GPT-4o",
    with_restrictions: bool = False,
    problems: dict | None = None,
    pack: str = "core",
) -> EvalReport:
    """Build a report from ``{problem: [list of pass-iteration or None]}``.

    Each sample either passes (syntax and functional) at the given feedback
    iteration, or never passes (``None`` -> all attempts fail).
    """
    problems = problems if problems is not None else {"mzi_ps": [0, None]}
    max_feedback = 3
    report = EvalReport(
        model=model,
        with_restrictions=with_restrictions,
        samples_per_problem=max(len(v) for v in problems.values()),
        max_feedback_iterations=max_feedback,
        pack=pack,
    )
    for problem, passes in problems.items():
        for index, pass_iteration in enumerate(passes):
            sample = SampleResult(problem=problem, sample_index=index)
            last = max_feedback if pass_iteration is None else pass_iteration
            for iteration in range(last + 1):
                ok = pass_iteration is not None and iteration == pass_iteration
                sample.attempts.append(
                    AttemptRecord(
                        iteration=iteration,
                        syntax_ok=ok,
                        functional_ok=ok,
                        error_category=None if ok else ErrorCategory.OTHER_SYNTAX,
                    )
                )
            report.add(sample)
    return report


# ======================================================================
# Schema and round trips
# ======================================================================
def test_fresh_store_is_current_schema(tmp_path):
    store = ResultsStore(tmp_path / "results.db")
    assert store.schema_version == SCHEMA_VERSION == 3


def test_reopen_existing_store(tmp_path):
    path = tmp_path / "results.db"
    ResultsStore(path).save_run(SPEC, {("GPT-4o", False): make_report()})
    reopened = ResultsStore(path)
    assert reopened.schema_version == SCHEMA_VERSION
    assert reopened.counts()["runs"] == 1


def test_report_round_trip_is_byte_identical(tmp_path):
    store = ResultsStore(tmp_path / "results.db")
    report = make_report(problems={"mzi_ps": [0, 1, None], "y_branch": [2]})
    run_id, created = store.save_run(SPEC, {("GPT-4o", False): report})
    assert created is True
    stored_json = store.load_report_json(run_id, "GPT-4o", False)
    assert stored_json == canonical_report_json(report)
    rehydrated = store.load_run(run_id).reports[("GPT-4o", False)]
    assert canonical_report_json(rehydrated) == stored_json
    assert rehydrated == report


def test_load_run_rehydrates_spec_and_stats(tmp_path):
    store = ResultsStore(tmp_path / "results.db")
    stats = {"plan_cache": {"hits": 3, "misses": 1, "hit_rate": 0.75}}
    run_id, _ = store.save_run(
        SPEC, {("GPT-4o", False): make_report()}, engine_stats=stats, created_at=123.0
    )
    run = store.load_run(run_id)
    assert run.spec == SPEC
    assert run.spec_fingerprint == SPEC.fingerprint()
    assert run.engine_stats == stats
    assert run.created_at == 123.0


def test_engine_stats_none_round_trips(tmp_path):
    store = ResultsStore(tmp_path / "results.db")
    run_id, _ = store.save_run(SPEC, {("GPT-4o", False): make_report()})
    assert store.load_run(run_id).engine_stats is None


def test_multiple_reports_per_run(tmp_path):
    store = ResultsStore(tmp_path / "results.db")
    reports = {
        ("GPT-4o", False): make_report(model="GPT-4o"),
        ("GPT-4o", True): make_report(model="GPT-4o", with_restrictions=True),
        ("GPT-4", False): make_report(model="GPT-4", problems={"mzi_ps": [1, None]}),
    }
    run_id, _ = store.save_run(replace(SPEC, models=("GPT-4o", "GPT-4")), reports)
    run = store.load_run(run_id)
    assert set(run.reports) == set(reports)
    for key, report in reports.items():
        assert run.reports[key] == report


# ----------------------------------------------------------------------
# Hypothesis: arbitrary reports survive the store byte-identically
# ----------------------------------------------------------------------
CATEGORIES = st.sampled_from(list(ErrorCategory))


@st.composite
def reports(draw):
    problems = draw(
        st.dictionaries(
            st.sampled_from(["mzi_ps", "y_branch", "ring_all_pass", "wdm_mux_2ch"]),
            st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
            min_size=1,
            max_size=3,
        )
    )
    report = EvalReport(
        model=draw(st.sampled_from(["GPT-4o", "Claude 3.5 Sonnet"])),
        with_restrictions=draw(st.booleans()),
        samples_per_problem=max(len(v) for v in problems.values()),
        max_feedback_iterations=3,
        pack=draw(st.sampled_from(["core", "wdm-links"])),
    )
    for problem, sample_lengths in problems.items():
        for index, attempts in enumerate(sample_lengths):
            sample = SampleResult(problem=problem, sample_index=index)
            for iteration in range(attempts + 1):
                syntax_ok = draw(st.booleans())
                functional_ok = syntax_ok and draw(st.booleans())
                sample.attempts.append(
                    AttemptRecord(
                        iteration=iteration,
                        syntax_ok=syntax_ok,
                        functional_ok=functional_ok,
                        error_category=None if functional_ok else draw(CATEGORIES),
                    )
                )
            report.add(sample)
    return report


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(report=reports())
def test_hypothesis_report_round_trip(tmp_path, report):
    store = ResultsStore(tmp_path / f"h-{abs(hash(canonical_report_json(report)))}.db")
    run_id, _ = store.save_run(SPEC, {(report.model, report.with_restrictions): report})
    stored_json = store.load_report_json(run_id, report.model, report.with_restrictions)
    assert stored_json == canonical_report_json(report)
    rehydrated = store.load_run(run_id).reports[(report.model, report.with_restrictions)]
    assert canonical_report_json(rehydrated) == stored_json


# ======================================================================
# Content-fingerprint dedup
# ======================================================================
def test_identical_run_dedupes(tmp_path):
    store = ResultsStore(tmp_path / "results.db")
    reports = {("GPT-4o", False): make_report()}
    first_id, created_first = store.save_run(SPEC, reports)
    second_id, created_second = store.save_run(SPEC, reports)
    assert first_id == second_id
    assert created_first is True and created_second is False
    assert store.counts()["runs"] == 1
    assert store.counts()["reports"] == 1


def test_run_fingerprint_is_content_sensitive(tmp_path):
    base = {("GPT-4o", False): make_report()}
    changed = {("GPT-4o", False): make_report(problems={"mzi_ps": [1, None]})}
    assert run_fingerprint(SPEC, base) != run_fingerprint(SPEC, changed)
    assert run_fingerprint(SPEC, base) != run_fingerprint(
        replace(SPEC, base_seed=1), base
    )
    store = ResultsStore(tmp_path / "results.db")
    id_a, _ = store.save_run(SPEC, base)
    id_b, _ = store.save_run(SPEC, changed)
    assert id_a != id_b
    assert store.counts()["runs"] == 2


def test_empty_reports_rejected(tmp_path):
    store = ResultsStore(tmp_path / "results.db")
    with pytest.raises(ValueError):
        store.save_run(SPEC, {})


# ======================================================================
# Trajectories
# ======================================================================
def test_trajectory_row_count_formula(tmp_path):
    store = ResultsStore(tmp_path / "results.db")
    report = make_report(problems={"mzi_ps": [0, None], "y_branch": [1]})
    run_id, _ = store.save_run(SPEC, {("GPT-4o", False): report})
    rows = store.trajectories(run_id)
    problems = 2
    expected = len(TRAJECTORY_METRICS) * len(PASS_AT) * len(FEEDBACK_COLUMNS) * (1 + problems)
    assert len(rows) == expected == 2 * 2 * 3 * 3


def test_trajectories_match_pass_at_k(tmp_path):
    store = ResultsStore(tmp_path / "results.db")
    report = make_report(problems={"mzi_ps": [0, 1, None], "y_branch": [None, 2]})
    run_id, _ = store.save_run(SPEC, {("GPT-4o", False): report})
    values = {
        (problem, metric, k, max_feedback): value
        for _, _, _, problem, metric, k, max_feedback, value in store.trajectories(run_id)
    }
    for metric in TRAJECTORY_METRICS:
        for k in PASS_AT:
            for max_feedback in FEEDBACK_COLUMNS:
                assert values[(PACK_AGGREGATE, metric, k, max_feedback)] == pytest.approx(
                    report.pass_at_k(k, metric=metric, max_feedback=max_feedback)
                )
                for problem in report.results:
                    assert values[(problem, metric, k, max_feedback)] == pytest.approx(
                        report.problem_pass_at_k(
                            problem, k, metric=metric, max_feedback=max_feedback
                        )
                    )


def test_trajectory_rows_are_deterministic():
    report = make_report(problems={"mzi_ps": [0, None], "y_branch": [1]})
    first = list(trajectory_rows("run-x", "GPT-4o", False, report))
    second = list(trajectory_rows("run-x", "GPT-4o", False, report))
    assert first == second


# ======================================================================
# Run lookup
# ======================================================================
def test_find_runs_newest_first_and_filtered(tmp_path):
    store = ResultsStore(tmp_path / "results.db")
    other_spec = replace(SPEC, base_seed=9)
    id_a, _ = store.save_run(SPEC, {("GPT-4o", False): make_report()}, created_at=10.0)
    id_b, _ = store.save_run(
        SPEC, {("GPT-4o", False): make_report(problems={"mzi_ps": [1]})}, created_at=20.0
    )
    id_c, _ = store.save_run(
        other_spec, {("GPT-4o", False): make_report()}, created_at=30.0
    )
    assert [run["run_id"] for run in store.find_runs()] == [id_c, id_b, id_a]
    assert [run["run_id"] for run in store.find_runs(SPEC.fingerprint())] == [id_b, id_a]
    assert store.latest_run(SPEC.fingerprint()) == id_b
    assert store.latest_run(other_spec.fingerprint()) == id_c
    assert store.latest_run("no-such-fingerprint") is None


def test_unknown_run_and_job_raise_keyerror(tmp_path):
    store = ResultsStore(tmp_path / "results.db")
    with pytest.raises(KeyError):
        store.load_run("run-missing")
    with pytest.raises(KeyError):
        store.load_report_json("run-missing", "GPT-4o", False)
    with pytest.raises(KeyError):
        store.load_job("job-missing")


# ======================================================================
# Job metadata
# ======================================================================
def job_row(job_id: str, state: str, run_id: str | None = None) -> dict:
    return {
        "job_id": job_id,
        "spec": SPEC.to_dict(),
        "spec_fingerprint": SPEC.fingerprint(),
        "priority": 0,
        "state": state,
        "submitted_at": 1.0,
        "started_at": 2.0 if state != "queued" else None,
        "finished_at": 3.0 if state in ("done", "failed", "cancelled") else None,
        "error": "RuntimeError: boom" if state == "failed" else None,
        "run_id": run_id,
    }


def test_job_record_persist_and_update(tmp_path):
    store = ResultsStore(tmp_path / "results.db")
    store.record_job(job_row("job-1", "queued"))
    assert store.load_job("job-1")["state"] == "queued"
    store.record_job(job_row("job-1", "done", run_id="run-xyz"))
    row = store.load_job("job-1")
    assert row["state"] == "done"
    assert row["run_id"] == "run-xyz"
    assert row["spec"] == SPEC.to_dict()
    assert store.counts()["jobs"] == 1, "updates must not duplicate rows"


def test_job_state_persistence_is_monotonic(tmp_path):
    """A stale 'queued' snapshot must never roll back a terminal row.

    The queue's update hook runs from the submitting thread *and* the
    worker thread; on a fast job the worker's 'done' write can land before
    the submitter's 'queued' write.  The store drops such out-of-order
    snapshots.
    """
    store = ResultsStore(tmp_path / "results.db")
    store.record_job(job_row("job-1", "done", run_id="run-xyz"))
    store.record_job(job_row("job-1", "queued"))  # stale, late snapshot
    row = store.load_job("job-1")
    assert row["state"] == "done"
    assert row["run_id"] == "run-xyz"
    store.record_job(job_row("job-1", "running"))  # also stale
    assert store.load_job("job-1")["state"] == "done"
    # Equal-rank rewrites still apply (e.g. a terminal row gaining details).
    store.record_job(job_row("job-1", "failed"))
    assert store.load_job("job-1")["state"] == "failed"


def test_jobs_listing_ordered_by_submission(tmp_path):
    store = ResultsStore(tmp_path / "results.db")
    for index, job_id in enumerate(["job-b", "job-a", "job-c"]):
        row = job_row(job_id, "done")
        row["submitted_at"] = float(index)
        store.record_job(row)
    assert [row["job_id"] for row in store.jobs()] == ["job-b", "job-a", "job-c"]


def test_failed_job_keeps_error_text(tmp_path):
    store = ResultsStore(tmp_path / "results.db")
    store.record_job(job_row("job-f", "failed"))
    assert store.load_job("job-f")["error"] == "RuntimeError: boom"


# ======================================================================
# Schema migration
# ======================================================================
def legacy_payload(spec: JobSpec) -> dict:
    """``spec`` as stored before the solver backend and the batch size were
    retired from it."""
    return {**spec.to_dict(), "solver_backend": "auto", "batch_size": 1}


def legacy_json(spec: JobSpec) -> str:
    """The stored ``spec_json`` of :func:`legacy_payload`."""
    return json.dumps(legacy_payload(spec), sort_keys=True, separators=(",", ":"))


def v2_fingerprint(spec: JobSpec) -> str:
    """``JobSpec.fingerprint`` as schemas v1 and v2 keyed runs and jobs:
    every spec field but the retry knobs (a copy of the retired code)."""
    payload = legacy_payload(spec)
    for name in ("retry_attempts", "retry_backoff", "unit_timeout"):
        payload.pop(name)
    return stable_hash("jobspec", json.dumps(payload, sort_keys=True, separators=(",", ":")))


def build_legacy_database(path, version: int) -> str:
    """A schema-``version`` (1, 2 or 3) database with one stored run and its
    job, keyed as that schema keyed them (:func:`v2_fingerprint` before v3)
    and holding :func:`legacy_json` specs; returns the run id."""
    report = make_report(problems={"mzi_ps": [0, None], "y_branch": [1]})
    fingerprint = v2_fingerprint(SPEC) if version < 3 else SPEC.fingerprint()
    run_id = stable_hash("run", fingerprint, f"GPT-4o|0|{canonical_report_json(report)}")
    with closing(sqlite3.connect(path)) as conn, conn:
        for statement in _SCHEMA_V1:
            conn.execute(statement)
        conn.execute("INSERT INTO meta VALUES ('schema_version', ?)", (str(version),))
        conn.execute(
            "INSERT INTO runs VALUES (?, ?, ?, ?, ?)",
            (run_id, fingerprint, legacy_json(SPEC), 42.0, None),
        )
        conn.execute(
            "INSERT INTO reports VALUES (?, ?, ?, ?, ?)",
            (run_id, "GPT-4o", 0, "core", canonical_report_json(report)),
        )
        conn.execute(
            "INSERT INTO jobs VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                "job-legacy", fingerprint, legacy_json(SPEC),
                0, "done", 1.0, 2.0, 3.0, None, run_id,
            ),
        )
        if version >= 2:
            conn.execute(_SCHEMA_V2_TRAJECTORIES)
            conn.executemany(
                "INSERT INTO trajectories VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                trajectory_rows(run_id, "GPT-4o", False, report),
            )
    return run_id


def test_legacy_fingerprint_copy_matches_the_retired_code():
    # Computed by ``JobSpec.fingerprint`` before specs were keyed semantically.
    assert v2_fingerprint(SPEC) == (
        "f988f80ad89efeefc6e284b01f402d60e26fc524b776d0cdc80432cb465b9636"
    )


def test_open_migrates_v1_to_v2_and_backfills(tmp_path):
    path = tmp_path / "legacy.db"
    run_id = build_legacy_database(path, version=1)
    store = ResultsStore(path)  # opening applies the migrations
    assert store.schema_version == SCHEMA_VERSION
    rows = store.trajectories(run_id)
    assert len(rows) == 2 * 2 * 3 * (1 + 2), "trajectories backfilled from reports"
    # The migrated data is fully readable through the current API.
    run = store.load_run(run_id)
    assert run.spec == SPEC
    report = run.reports[("GPT-4o", False)]
    aggregate = {
        (problem, metric, k, fb): value
        for _, _, _, problem, metric, k, fb, value in rows
    }
    assert aggregate[(PACK_AGGREGATE, "syntax", 1, 0)] == pytest.approx(
        report.pass_at_k(1, metric="syntax", max_feedback=0)
    )
    assert store.load_job("job-legacy")["state"] == "done"
    assert store.latest_run(SPEC.fingerprint()) == run_id, "v1 rows re-keyed through v3"


def test_migration_is_idempotent_across_reopens(tmp_path):
    path = tmp_path / "legacy.db"
    run_id = build_legacy_database(path, version=1)
    first = ResultsStore(path)
    rows_after_migration = first.trajectories(run_id)
    second = ResultsStore(path)  # already current: opening must not re-migrate
    assert second.schema_version == SCHEMA_VERSION
    assert second.trajectories(run_id) == rows_after_migration


def test_v2_database_rekeys_on_the_semantic_fingerprint_and_still_dedupes(tmp_path):
    path = tmp_path / "v2.db"
    run_id = build_legacy_database(path, version=2)
    store = ResultsStore(path)
    assert store.schema_version == SCHEMA_VERSION
    assert store.find_runs(SPEC.fingerprint()) == [
        {"run_id": run_id, "spec_fingerprint": SPEC.fingerprint(), "created_at": 42.0}
    ], "run ids stay as stored; the fingerprint column is recomputed"
    assert store.load_job("job-legacy")["spec_fingerprint"] == SPEC.fingerprint()
    with EvalService(path, job_workers=1) as service:
        job_id = service.submit(replace(SPEC, retry_attempts=3), dedupe=True)
        record = service.wait(job_id, timeout=60.0)
    assert record.deduplicated is True
    assert record.run_id == run_id
    assert ResultsStore(path).counts()["runs"] == 1


@pytest.mark.parametrize("version", [1, 2])
def test_resaving_a_legacy_run_returns_its_stored_id(tmp_path, version):
    path = tmp_path / "legacy.db"
    run_id = build_legacy_database(path, version=version)
    store = ResultsStore(path)
    reports = store.load_run(run_id).reports
    assert run_fingerprint(SPEC, reports) != run_id, "the legacy id predates the re-key"
    assert store.save_run(SPEC, reports) == (run_id, False)
    assert store.counts()["runs"] == 1
    # Other reports of the same spec are another run.
    other = {("GPT-4o", False): make_report(problems={"mzi_ps": [1, 0]})}
    assert store.save_run(SPEC, other) == (run_fingerprint(SPEC, other), True)
    assert store.counts()["runs"] == 2


def test_v2_row_rejected_by_todays_checks_keeps_its_fingerprint(tmp_path):
    path = tmp_path / "v2.db"
    build_legacy_database(path, version=2)
    bad_spec = dict(legacy_payload(SPEC), max_feedback_iterations=-1)  # accepted by v2
    with closing(sqlite3.connect(path)) as conn, conn:
        conn.execute(
            "UPDATE jobs SET spec_json = ? WHERE job_id = 'job-legacy'",
            (json.dumps(bad_spec, sort_keys=True, separators=(",", ":")),),
        )
    store = ResultsStore(path)  # the upgrade is not blocked
    assert store.schema_version == SCHEMA_VERSION
    assert store.load_job("job-legacy")["spec_fingerprint"] == v2_fingerprint(SPEC)


@pytest.mark.parametrize("version", [1, 2, 3])
def test_rows_carrying_the_retired_solver_backend_still_load_and_recover(tmp_path, version):
    path = tmp_path / "legacy.db"
    run_id = build_legacy_database(path, version=version)
    pending = replace(SPEC, base_seed=1)
    with closing(sqlite3.connect(path)) as conn, conn:
        conn.execute(
            "INSERT INTO jobs VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                "job-pending", v2_fingerprint(pending) if version < 3 else pending.fingerprint(),
                legacy_json(pending), 0, "queued", 4.0, None, None, None, None,
            ),
        )
    with EvalService(path, job_workers=1, recover=True) as service:
        assert service.store.find_runs(SPEC.fingerprint())[0]["run_id"] == run_id
        assert service.store.load_run(run_id).spec == SPEC
        done = service.status("job-legacy")
        assert (done.state, done.spec, done.run_id) == (JobState.DONE, SPEC, run_id)
        recovered = service.wait("job-pending", timeout=60.0)
        assert recovered.state is JobState.DONE, recovered.error
        assert recovered.spec == pending
        assert service.store.load_job("job-pending")["spec_fingerprint"] == pending.fingerprint()


def test_newer_schema_version_refused(tmp_path):
    path = tmp_path / "future.db"
    with closing(sqlite3.connect(path)) as conn, conn:
        for statement in _SCHEMA_V1:
            conn.execute(statement)
        conn.execute(
            "INSERT INTO meta VALUES ('schema_version', ?)", (str(SCHEMA_VERSION + 1),)
        )
    with pytest.raises(RuntimeError, match="newer"):
        ResultsStore(path)


def test_meta_without_version_refused(tmp_path):
    path = tmp_path / "broken.db"
    with closing(sqlite3.connect(path)) as conn, conn:
        conn.execute(_SCHEMA_V1[0])  # meta table, but no schema_version row
    with pytest.raises(RuntimeError, match="schema_version"):
        ResultsStore(path)


# ======================================================================
# Concurrent writers
# ======================================================================
def test_concurrent_thread_writers(tmp_path):
    path = tmp_path / "results.db"
    store = ResultsStore(path)
    errors = []

    def writer(worker: int):
        try:
            for index in range(5):
                spec = replace(SPEC, base_seed=worker * 100 + index)
                report = make_report(problems={"mzi_ps": [worker % 3, None]})
                store.save_run(spec, {("GPT-4o", False): report})
                store.record_job(job_row(f"job-{worker}-{index}", "done"))
        except Exception as error:  # noqa: BLE001 - surfaced via the list
            errors.append(error)

    threads = [threading.Thread(target=writer, args=(n,)) for n in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    counts = store.counts()
    assert counts["runs"] == 30
    assert counts["jobs"] == 30
    with closing(sqlite3.connect(path)) as conn:
        assert conn.execute("PRAGMA integrity_check").fetchone()[0] == "ok"


def _process_writer(path: str, worker: int) -> None:
    """Child-process body of the cross-process writer test."""
    store = ResultsStore(path)
    for index in range(3):
        spec = replace(SPEC, base_seed=worker * 1000 + index)
        report = make_report(problems={"mzi_ps": [index % 2, None]})
        store.save_run(spec, {("GPT-4o", False): report})


def test_concurrent_process_writers(tmp_path):
    path = tmp_path / "results.db"
    ResultsStore(path)  # create the schema up front
    context = multiprocessing.get_context("fork")
    workers = [
        context.Process(target=_process_writer, args=(str(path), worker))
        for worker in range(4)
    ]
    for process in workers:
        process.start()
    for process in workers:
        process.join(60.0)
        assert process.exitcode == 0
    store = ResultsStore(path)
    assert store.counts()["runs"] == 12
    with closing(sqlite3.connect(path)) as conn:
        assert conn.execute("PRAGMA integrity_check").fetchone()[0] == "ok"


def _writer_killed_inside_save_run(path: str) -> None:
    """Child body: SIGKILL this process inside a ``save_run`` transaction."""
    import repro.service.store as store_module

    store = ResultsStore(path)
    store_module.trajectory_rows = lambda *_args: os.kill(os.getpid(), signal.SIGKILL)
    store.save_run(SPEC, {("GPT-4o", False): make_report()})


def test_a_writer_killed_inside_save_run_does_not_stall_the_next(tmp_path):
    path = tmp_path / "results.db"
    ResultsStore(path)
    child = multiprocessing.get_context("fork").Process(
        target=_writer_killed_inside_save_run, args=(str(path),)
    )
    child.start()
    child.join(60.0)
    assert child.exitcode == -signal.SIGKILL
    start = time.monotonic()
    store = ResultsStore(path)
    assert store.save_run(SPEC, {("GPT-4o", False): make_report()})[1] is True
    assert time.monotonic() - start < 5.0, "the killed writer's lock outlived it"
    assert store.counts()["runs"] == 1, "the killed transaction was rolled back"


def _racing_writer(path: str, barrier, job_states) -> None:
    """Child body: save ``SPEC``'s run and record ``job_states`` as soon as
    every racer is ready; contended writers wait their turn, never retry."""
    store = ResultsStore(path)
    barrier.wait(30.0)
    store.save_run(SPEC, {("GPT-4o", False): make_report()})
    for state in job_states:
        store.record_job(job_row("job-1", state))
    assert store.write_retries == 0


def test_processes_racing_on_one_run_and_one_job_keep_one_of_each(tmp_path):
    path = tmp_path / "results.db"
    ResultsStore(path)
    orders = [("queued", "running", "done"), ("done",), ("running", "queued"), ("queued",)]
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(len(orders))
    workers = [
        context.Process(target=_racing_writer, args=(str(path), barrier, states))
        for states in orders
    ]
    for process in workers:
        process.start()
    for process in workers:
        process.join(60.0)
        assert process.exitcode == 0, "a racing writer raised or retried"
    store = ResultsStore(path)
    assert store.counts() == {"runs": 1, "reports": 1, "trajectories": 2 * 2 * 3 * 2, "jobs": 1}
    assert store.load_job("job-1")["state"] == "done"


def _racing_opener(path: str, barrier, worker: int) -> None:
    """Child body: open the database as soon as every opener is ready (so the
    schema work races), then save one run of its own."""
    barrier.wait(30.0)
    store = ResultsStore(path)
    store.save_run(replace(SPEC, base_seed=worker + 1), {("GPT-4o", False): make_report()})
    assert store.write_retries == 0


def _open_and_save_sequentially(path, legacy_version, openers: int) -> dict:
    """Row counts of the database the racing openers should leave behind."""
    if legacy_version is not None:
        build_legacy_database(path, version=legacy_version)
    store = ResultsStore(path)
    for worker in range(openers):
        store.save_run(replace(SPEC, base_seed=worker + 1), {("GPT-4o", False): make_report()})
    return store.counts()


@pytest.mark.parametrize("version", [None, 1, 2], ids=["fresh", "v1", "v2"])
def test_processes_opening_one_database_at_once_create_or_migrate_it_once(tmp_path, version):
    path = tmp_path / "results.db"
    legacy_run = build_legacy_database(path, version=version) if version is not None else None
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(4)
    openers = [
        context.Process(target=_racing_opener, args=(str(path), barrier, worker))
        for worker in range(4)
    ]
    for process in openers:
        process.start()
    for process in openers:
        process.join(60.0)
        assert process.exitcode == 0, "an opener raised or retried"
    store = ResultsStore(path)
    assert store.schema_version == SCHEMA_VERSION
    assert store.counts() == _open_and_save_sequentially(tmp_path / "sequential.db", version, 4)
    if legacy_run is not None:
        assert store.load_run(legacy_run).spec == SPEC
    with closing(sqlite3.connect(path)) as conn:
        assert conn.execute("PRAGMA integrity_check").fetchone()[0] == "ok"


def test_a_writer_queues_behind_another_connections_write_lock(tmp_path):
    path = tmp_path / "results.db"
    store = ResultsStore(path)
    saved = threading.Event()

    def save() -> None:
        store.save_run(SPEC, {("GPT-4o", False): make_report()})
        saved.set()

    writer = threading.Thread(target=save)
    with closing(sqlite3.connect(path, isolation_level=None)) as holder:
        holder.execute("BEGIN IMMEDIATE")
        writer.start()
        assert not saved.wait(0.5), "a write ran inside another connection's transaction"
        holder.execute("COMMIT")
    writer.join(30.0)
    assert saved.is_set(), "the queued writer failed instead of waiting"
    assert store.write_retries == 0
    assert store.counts()["runs"] == 1


def test_readers_answer_while_another_connection_holds_the_write_lock(tmp_path):
    path = tmp_path / "results.db"
    store = ResultsStore(path)
    run_id, _ = store.save_run(SPEC, {("GPT-4o", False): make_report()})
    store.record_job(job_row("job-1", "done", run_id))
    with closing(sqlite3.connect(path, isolation_level=None)) as holder:
        holder.execute("BEGIN IMMEDIATE")
        holder.execute("DELETE FROM jobs")  # uncommitted: no reader may see it
        start = time.monotonic()
        assert store.load_run(run_id).spec == SPEC
        assert store.load_job("job-1")["state"] == "done"
        assert store.counts()["jobs"] == 1
        assert time.monotonic() - start < 5.0, "a reader waited for the writer"
        holder.execute("ROLLBACK")


def test_counts_tracks_every_table(tmp_path):
    store = ResultsStore(tmp_path / "results.db")
    assert store.counts() == {"runs": 0, "reports": 0, "trajectories": 0, "jobs": 0}
    store.save_run(SPEC, {("GPT-4o", False): make_report()})
    store.record_job(job_row("job-1", "done"))
    counts = store.counts()
    assert counts["runs"] == 1
    assert counts["reports"] == 1
    assert counts["trajectories"] == 2 * 2 * 3 * 2
    assert counts["jobs"] == 1


def test_injected_write_faults_are_retried_through(tmp_path):
    """A transient `store.write` fault never loses the run; retries counted."""
    from repro.faults import FaultRule, clear_plan, inject

    clear_plan()
    store = ResultsStore(tmp_path / "results.db")
    with inject(FaultRule("store.write", max_triggers=1)):
        run_id, created = store.save_run(SPEC, {("GPT-4o", False): make_report()})
    clear_plan()
    assert created
    assert store.write_retries >= 1
    assert store.load_run(run_id).run_id == run_id


def test_exhausted_write_faults_propagate(tmp_path):
    from repro.faults import FaultRule, clear_plan, inject

    clear_plan()
    store = ResultsStore(tmp_path / "results.db")
    with inject(FaultRule("store.write")):
        with pytest.raises(OSError):
            store.save_run(SPEC, {("GPT-4o", False): make_report()})
    clear_plan()
    assert store.counts()["runs"] == 0  # nothing half-written


#: Specs describing the same evaluation as ``SPEC``: they differ only in
#: fields that are not semantic, so their reports equal ``SPEC``'s.
SAME_EVALUATION = (
    replace(SPEC, execution_mode="process", processes=2),
    replace(SPEC, kind="evaluate"),
)


@pytest.mark.parametrize("variant", SAME_EVALUATION, ids=["process_tier", "kind"])
def test_execution_settings_share_the_spec_fingerprint(variant):
    assert variant.fingerprint() == SPEC.fingerprint()


@pytest.mark.parametrize(
    "spec",
    [
        SPEC,
        *SAME_EVALUATION,
        replace(SPEC, base_seed=1),
        JobSpec(),
        JobSpec(pack="wdm-links", pack_params={"channels": [2]}, restrictions=(True,)),
    ],
)
def test_spec_fingerprint_is_the_sweep_journal_identity(spec):
    assert spec.fingerprint() == sweep_fingerprint(spec, spec.models, spec.restrictions)


def test_save_run_dedupes_across_execution_settings(tmp_path):
    store = ResultsStore(tmp_path / "results.db")
    reports = {("GPT-4o", False): make_report()}
    run_id, created = store.save_run(SPEC, reports)
    assert created
    for variant in SAME_EVALUATION:
        assert store.save_run(variant, reports) == (run_id, False)
    assert store.counts()["runs"] == 1


def test_spec_fingerprint_ignores_robustness_knobs():
    """Retry/timeout knobs ride the wire but never change the fingerprint,
    so stored-run dedup survives resubmission with different budgets."""
    tuned = replace(
        SPEC, retry_attempts=5, retry_backoff=0.9, unit_timeout=30.0
    )
    assert tuned.fingerprint() == SPEC.fingerprint()
    assert replace(SPEC, base_seed=1).fingerprint() != SPEC.fingerprint()
    # The full canonical JSON still carries them (they are real spec fields).
    payload = json.loads(tuned.canonical_json())
    assert payload["retry_attempts"] == 5
    assert payload["unit_timeout"] == 30.0
    # Round trip through the wire format preserves the knobs.
    assert JobSpec.from_dict(tuned.to_dict()) == tuned


def test_canonical_json_is_sorted_and_compact():
    report = make_report()
    document = canonical_report_json(report)
    payload = json.loads(document)
    assert document == json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert ": " not in document
