"""Tests of sweep checkpointing and kill/resume byte-identity.

The journal (:mod:`repro.harness.journal`) must checkpoint every completed
trajectory durably, key itself by the sweep's *semantic* fingerprint only,
survive torn trailing writes, and let a killed run resume -- in any
execution mode -- computing exactly the missing units while reproducing
the uninterrupted report byte for byte.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.engine.engine import EngineConfig
from repro.evalkit.outcome import AttemptRecord, SampleResult
from repro.faults import FaultRule, clear_plan, inject
from repro.harness.journal import SweepJournal, sweep_fingerprint, unit_key
from repro.harness.runner import SweepConfig, SweepSpec, run_model, run_sweep
from repro.service.spec import JobSpec
from repro.llm.simulated import SimulatedDesigner
from repro.netlist.errors import ErrorCategory

#: Mirrors ``tests/conftest.TEST_NUM_WAVELENGTHS`` (not importable by module
#: name here: ``benchmarks/conftest.py`` shadows it in full-repo runs).
TEST_NUM_WAVELENGTHS = 11

SRC = str(Path(__file__).resolve().parent.parent / "src")

BASE = dict(
    samples_per_problem=3,
    max_feedback_iterations=1,
    num_wavelengths=TEST_NUM_WAVELENGTHS,
    problems=("mzi_ps",),
)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    clear_plan()
    yield
    clear_plan()


def _report(config: SweepConfig) -> str:
    report = run_model(
        SimulatedDesigner("GPT-4o"), include_restrictions=False, config=config
    )
    return json.dumps(report.to_dict(), sort_keys=True)


def _journal_lines(journal_dir: Path) -> list:
    (path,) = list(journal_dir.glob("sweep-*.jsonl"))
    return path.read_text(encoding="utf-8").splitlines()


# ----------------------------------------------------------------------
# Semantic fingerprint
# ----------------------------------------------------------------------
def test_fingerprint_ignores_performance_and_robustness_knobs(tmp_path):
    base = SweepConfig(**BASE)
    fingerprint = sweep_fingerprint(base, ("GPT-4o",), (False,))
    for variant in (
        replace(base, workers=4),
        replace(base, execution_mode="process", processes=2),
        replace(base, retry_attempts=5, retry_backoff=0.7),
        replace(base, unit_timeout=12.0),
        replace(base, cache_dir=str(tmp_path)),
        replace(base, journal_dir=str(tmp_path), resume=True),
    ):
        assert sweep_fingerprint(variant, ("GPT-4o",), (False,)) == fingerprint


def test_fingerprint_tracks_semantic_fields():
    base = SweepConfig(**BASE)
    fingerprint = sweep_fingerprint(base, ("GPT-4o",), (False,))
    assert sweep_fingerprint(replace(base, base_seed=1), ("GPT-4o",), (False,)) != fingerprint
    assert (
        sweep_fingerprint(replace(base, samples_per_problem=4), ("GPT-4o",), (False,))
        != fingerprint
    )
    assert (
        sweep_fingerprint(replace(base, problems=("nls",)), ("GPT-4o",), (False,))
        != fingerprint
    )
    assert sweep_fingerprint(base, ("Claude35",), (False,)) != fingerprint
    assert sweep_fingerprint(base, ("GPT-4o",), (True,)) != fingerprint


def test_fingerprints_match_journals_written_before_the_field_declaration():
    """Pinned values of journals written when the fingerprint named its
    fields by hand: such journals must still resume."""
    assert sweep_fingerprint(SweepConfig(), ("GPT-4o",), (False, True)) == (
        "191c0023ee1d2dfdb020430368e9ddabcc532f73de01f406da0661d5cbda1136"
    )
    config = SweepConfig(
        pack="wdm-links",
        pack_params={"channels": [2]},
        problems=("wdm_mux_2ch",),
        samples_per_problem=2,
        num_wavelengths=11,
        base_seed=3,
    )
    assert sweep_fingerprint(config, ("GPT-4o", "Claude 3.5 Sonnet"), (True,)) == (
        "ff58c35c075deef537b74b514f990e73517e6777d7c1368c4583caf9e86bb6e0"
    )


def test_every_sweep_field_is_declared_once_and_classified():
    semantic = {f.name for f in fields(SweepConfig) if f.metadata["semantic"]}
    assert semantic == {
        "samples_per_problem",
        "max_feedback_iterations",
        "num_wavelengths",
        "base_seed",
        "problems",
        "pack",
        "pack_params",
    }
    spec_names = [f.name for f in fields(SweepSpec)]
    assert [f.name for f in fields(JobSpec)] == [*spec_names, "kind", "models", "restrictions"]
    flags = [f.metadata["flag"] for f in fields(SweepConfig)]
    assert all(flag.startswith("--") for flag in flags)
    assert len(set(flags)) == len(flags)


def test_engine_config_receives_every_shared_field():
    shared = {f.name for f in fields(EngineConfig)} & {f.name for f in fields(SweepConfig)}
    assert shared == {"workers", "cache_dir"}
    config = SweepConfig(workers=3, cache_dir="cache")
    engine_config = config.engine_config()
    for name in shared:
        assert getattr(engine_config, name) == getattr(config, name), name
        assert getattr(engine_config, name) != getattr(EngineConfig(), name), name


# ----------------------------------------------------------------------
# Journal file mechanics
# ----------------------------------------------------------------------
def _sample(problem: str = "mzi_ps", index: int = 0) -> SampleResult:
    sample = SampleResult(problem=problem, sample_index=index)
    sample.attempts.append(
        AttemptRecord(
            iteration=0,
            syntax_ok=True,
            functional_ok=False,
            error_category=ErrorCategory.FUNCTIONAL,
            error_detail="crosstalk -3.1 dB above spec",
            response_text="netlist: ...",
        )
    )
    sample.attempts.append(
        AttemptRecord(iteration=1, syntax_ok=True, functional_ok=True)
    )
    return sample


def test_journal_round_trip_preserves_report_surface(tmp_path):
    journal = SweepJournal(tmp_path, "deadbeef")
    key = unit_key(False, "GPT-4o", "mzi_ps", 0)
    with journal:
        journal.record(key, _sample())
    loaded = SweepJournal(tmp_path, "deadbeef").load()
    assert set(loaded) == {key}
    restored = loaded[key]
    original = _sample()
    assert len(restored.attempts) == len(original.attempts)
    for restored_attempt, original_attempt in zip(restored.attempts, original.attempts):
        assert restored_attempt.iteration == original_attempt.iteration
        assert restored_attempt.syntax_ok == original_attempt.syntax_ok
        assert restored_attempt.functional_ok == original_attempt.functional_ok
        assert restored_attempt.error_category == original_attempt.error_category
        assert restored_attempt.error_detail == original_attempt.error_detail
        # Response texts are dropped, mirroring EvalReport.to_dict().
        assert restored_attempt.response_text is None


def test_journal_tolerates_torn_trailing_line(tmp_path):
    journal = SweepJournal(tmp_path, "deadbeef")
    with journal:
        journal.record(unit_key(False, "GPT-4o", "mzi_ps", 0), _sample(index=0))
        journal.record(unit_key(False, "GPT-4o", "mzi_ps", 1), _sample(index=1))
    with journal.path.open("a", encoding="utf-8") as handle:
        handle.write('{"with_restrictions": false, "model": "GP')  # SIGKILL shape
    loaded = SweepJournal(tmp_path, "deadbeef").load()
    assert len(loaded) == 2


def test_journal_rejects_mid_file_corruption(tmp_path):
    journal = SweepJournal(tmp_path, "deadbeef")
    with journal:
        journal.record(unit_key(False, "GPT-4o", "mzi_ps", 0), _sample(index=0))
        journal.record(unit_key(False, "GPT-4o", "mzi_ps", 1), _sample(index=1))
    lines = journal.path.read_text(encoding="utf-8").splitlines()
    lines[0] = lines[0][:20]
    journal.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="corrupt at line 1"):
        SweepJournal(tmp_path, "deadbeef").load()


def test_missing_journal_loads_empty_and_discard_is_idempotent(tmp_path):
    journal = SweepJournal(tmp_path, "deadbeef")
    assert journal.load() == {}
    journal.discard()
    journal.discard()


# ----------------------------------------------------------------------
# Checkpointed runs (thread tier, in-process)
# ----------------------------------------------------------------------
def test_journaled_run_is_byte_identical_and_complete(tmp_path):
    golden = _report(SweepConfig(**BASE))
    journaled = _report(SweepConfig(**BASE, journal_dir=str(tmp_path)))
    assert journaled == golden
    assert len(_journal_lines(tmp_path)) == BASE["samples_per_problem"]


def test_resume_serves_every_unit_from_the_journal(tmp_path):
    golden = _report(SweepConfig(**BASE, journal_dir=str(tmp_path)))
    # kill-on-first-unit plan: if the resumed run evaluated even one unit,
    # the injected kill would take the whole test process down.
    with inject(FaultRule("sweep.unit", kind="kill")):
        resumed = _report(SweepConfig(**BASE, journal_dir=str(tmp_path), resume=True))
    assert resumed == golden


def test_without_resume_a_stale_journal_is_discarded(tmp_path):
    _report(SweepConfig(**BASE, journal_dir=str(tmp_path)))
    journal_path = next(tmp_path.glob("sweep-*.jsonl"))
    first = journal_path.read_text(encoding="utf-8")
    _report(SweepConfig(**BASE, journal_dir=str(tmp_path), resume=False))
    assert journal_path.read_text(encoding="utf-8") == first  # rewritten, not appended


def test_process_mode_resumes_a_thread_mode_journal(tmp_path):
    golden = _report(SweepConfig(**BASE, journal_dir=str(tmp_path)))
    process_config = SweepConfig(
        **BASE,
        execution_mode="process",
        processes=2,
        journal_dir=str(tmp_path),
        resume=True,
    )
    # Same semantic fingerprint despite the mode switch: every unit is
    # served from the journal and the report bytes match.
    with inject(FaultRule("sweep.unit", kind="kill")):
        assert _report(process_config) == golden


def test_thread_mode_resumes_a_process_mode_journal(tmp_path):
    """The process tier runs units costliest problem first, yet journals each
    one under its own key, so a thread-mode resume serves every unit."""
    config = SweepConfig(**{**BASE, "problems": ("mzi_ps", "clements_4x4", "nls")})
    golden = _report(config)
    journaled = replace(config, journal_dir=str(tmp_path))
    assert _report(replace(journaled, execution_mode="process", processes=2)) == golden
    with inject(FaultRule("sweep.unit", kind="kill")):
        assert _report(replace(journaled, resume=True)) == golden


def test_resume_reruns_only_the_trajectories_its_journal_lacks(tmp_path):
    """Trajectories missing from the middle of two problems' groups are
    recomputed, and only they; each is journaled as it finishes again."""
    config = SweepConfig(**{**BASE, "problems": ("mzi_ps", "clements_4x4", "nls")})
    golden = _report(config)
    journaled = replace(config, journal_dir=str(tmp_path))
    assert _report(journaled) == golden
    lines = _journal_lines(tmp_path)
    assert len(lines) == 9
    dropped = (1, 4, 5)
    kept = [line for index, line in enumerate(lines) if index not in dropped]
    (path,) = tmp_path.glob("sweep-*.jsonl")
    path.write_text("".join(line + "\n" for line in kept), encoding="utf-8")
    fresh = []
    result = run_sweep(
        replace(journaled, resume=True),
        clients=[SimulatedDesigner("GPT-4o")],
        restriction_settings=(False,),
        on_unit=lambda: fresh.append(None),
    )
    report = result.report("GPT-4o", with_restrictions=False)
    assert json.dumps(report.to_dict(), sort_keys=True) == golden
    assert len(fresh) == len(dropped)
    # Every trajectory's history is its own, so the recomputed ones finish
    # in the order they first did and journal the same bytes.
    assert _journal_lines(tmp_path) == kept + [lines[index] for index in dropped]


# ----------------------------------------------------------------------
# Kill and resume (subprocess: the injected kill is a real process death)
# ----------------------------------------------------------------------
_KILL_CHILD = """
import sys
sys.path.insert(0, {src!r})
from repro.harness.runner import SweepConfig, run_model
from repro.llm.simulated import SimulatedDesigner

config = SweepConfig(
    samples_per_problem=3, max_feedback_iterations=1, num_wavelengths={nwl},
    problems=("mzi_ps",), workers={workers}, journal_dir={journal_dir!r}, resume=True,
)
run_model(SimulatedDesigner("GPT-4o"), include_restrictions=False, config=config)
raise SystemExit("the injected kill never fired")
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_killed_run_resumes_byte_identically(tmp_path, workers):
    golden = _report(SweepConfig(**BASE))
    env = dict(os.environ)
    env["REPRO_FAULTS"] = "sweep.unit=kill+1"
    env["PYTHONPATH"] = SRC
    child = subprocess.run(
        [
            sys.executable,
            "-c",
            _KILL_CHILD.format(
                src=SRC,
                nwl=TEST_NUM_WAVELENGTHS,
                workers=workers,
                journal_dir=str(tmp_path),
            ),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 73, child.stdout + child.stderr
    # Exactly one unit checkpointed, on one thread or two: a finished
    # trajectory is journaled before the next one visits ``sweep.unit``.
    assert len(_journal_lines(tmp_path)) == 1
    resumed_config = SweepConfig(**BASE, journal_dir=str(tmp_path), resume=True)
    assert _report(resumed_config) == golden
    assert len(_journal_lines(tmp_path)) == BASE["samples_per_problem"]
    # A second resume finds a complete journal and recomputes nothing.
    with inject(FaultRule("sweep.unit", kind="kill")):
        assert _report(resumed_config) == golden
