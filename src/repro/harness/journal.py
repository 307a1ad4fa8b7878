"""Incremental sweep checkpointing: the journal behind ``--resume``.

A sweep killed halfway (OOM, pre-emption, a chaos ``kill`` injection) loses
every completed trajectory unless someone wrote them down.  The
:class:`SweepJournal` is that record: a line-JSON file, one line per
completed ``(restrictions, model, problem, sample)`` trajectory, appended
and flushed the moment the trajectory finishes.  Resubmitting the same
sweep with ``resume`` enabled replays the journal, computes only the
missing samples, and folds journaled and fresh results back in unit order
-- so the final report is byte-identical to an uninterrupted run (report
serialisation excludes response texts, which the journal therefore drops).

The journal file is keyed by a *semantic* fingerprint of the sweep: only
the fields declared semantic (problems, seeds, sample counts, feedback
budget, grid, pack) plus the models and restriction settings participate,
so a run killed in process mode can resume in thread mode -- or with a
different worker count -- and still verify as the same sweep.  Performance
and robustness knobs never invalidate a journal.  The results store keys
its runs on the same fingerprint (:meth:`repro.service.spec.JobSpec.fingerprint`).

Crash tolerance: appends are ``flush`` + best-effort ``fsync`` per line,
and :meth:`SweepJournal.load` ignores a truncated trailing line, so a
process killed mid-write costs at most the final in-flight trajectory.
"""

from __future__ import annotations

import json
import os
import threading
from collections.abc import Mapping
from dataclasses import fields
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..engine.fingerprint import stable_hash
from ..evalkit.outcome import AttemptRecord, SampleResult

__all__ = ["SweepJournal", "sweep_fingerprint", "unit_key"]

#: A journal entry's identity: (with_restrictions, model, problem, sample).
UnitKey = Tuple[bool, str, str, int]


def sweep_fingerprint(
    config,
    models: Tuple[str, ...],
    restriction_settings: Tuple[bool, ...],
) -> str:
    """Content address of a sweep's *semantic* identity.

    Hashes the fields of ``config`` (a :class:`~repro.harness.runner.SweepConfig`
    or :class:`~repro.service.spec.JobSpec`) whose declaration marks them
    semantic, plus the models and restriction settings.  Every other field
    -- performance knobs (workers, batch size, execution mode, process
    count, backends, caches) and robustness knobs (retries, timeouts) -- is
    left out, so a resumed run may use different ones and the results
    store dedupes jobs that differ only in them.
    """
    payload: Dict[str, object] = {
        spec_field.name: _semantic_value(getattr(config, spec_field.name))
        for spec_field in fields(config)
        if spec_field.metadata.get("semantic")
    }
    payload["models"] = list(models)
    payload["restrictions"] = [bool(r) for r in restriction_settings]
    return stable_hash("sweep-journal", json.dumps(payload, sort_keys=True, default=str))


def _semantic_value(value: object) -> object:
    """A semantic field's hashed form: an empty mapping hashes as ``None``."""
    if isinstance(value, Mapping):
        return dict(value) or None
    return value


def unit_key(with_restrictions: bool, model: str, problem: str, sample_index: int) -> UnitKey:
    """Canonical identity of one trajectory inside a sweep."""
    return (bool(with_restrictions), str(model), str(problem), int(sample_index))


def _sample_to_payload(sample: SampleResult) -> List[Dict[str, object]]:
    """Journal form of a trajectory: each attempt's report payload plus
    ``error_detail`` (crash diagnostics survive a resume); response texts are
    dropped, exactly as :meth:`EvalReport.to_dict` drops them."""
    return [
        {**attempt.to_payload(), "error_detail": attempt.error_detail}
        for attempt in sample.attempts
    ]


def _sample_from_payload(
    problem: str, sample_index: int, attempts: List[Dict[str, object]]
) -> SampleResult:
    """Inverse of :func:`_sample_to_payload`."""
    return SampleResult(
        problem=problem,
        sample_index=sample_index,
        attempts=[AttemptRecord.from_payload(attempt) for attempt in attempts],
    )


class SweepJournal:
    """Append-only checkpoint log of one sweep's completed trajectories.

    Parameters
    ----------
    directory:
        Where journal files live; one file per sweep fingerprint
        (``sweep-<fingerprint>.jsonl``).
    fingerprint:
        The sweep's semantic fingerprint (see :func:`sweep_fingerprint`).

    A sweep journals each trajectory as it finishes: on the calling thread
    as :meth:`~repro.evalkit.evaluator.Evaluator.run_samples` completes it
    (thread tier), or from the shard-merge callback (process tier).
    Appends are thread-safe, under one lock, each line flushed -- and
    fsynced best-effort -- before the lock drops.
    """

    def __init__(self, directory: Path | str, fingerprint: str) -> None:
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self.path = self.directory / f"sweep-{fingerprint}.jsonl"
        self._lock = threading.Lock()
        self._handle = None

    # ------------------------------------------------------------------
    def load(self) -> Dict[UnitKey, SampleResult]:
        """Completed trajectories of prior runs (corrupt trailing line skipped).

        A line that fails to parse is tolerated only in the final position
        -- that is the SIGKILL-mid-write shape; corruption anywhere else
        means the file is not trustworthy and raises ``ValueError``.
        """
        completed: Dict[UnitKey, SampleResult] = {}
        if not self.path.exists():
            return completed
        with self.path.open("r", encoding="utf-8") as handle:
            lines = handle.readlines()
        for number, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                key = unit_key(
                    entry["with_restrictions"],
                    entry["model"],
                    entry["problem"],
                    entry["sample_index"],
                )
                sample = _sample_from_payload(key[2], key[3], entry["attempts"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                if number == len(lines) - 1:
                    break  # torn trailing write: the journal up to here is good
                raise ValueError(
                    f"journal {self.path} is corrupt at line {number + 1}: {exc}"
                ) from exc
            completed[key] = sample
        return completed

    def record(self, key: UnitKey, sample: SampleResult) -> None:
        """Append one completed trajectory (durable before returning)."""
        entry = {
            "with_restrictions": key[0],
            "model": key[1],
            "problem": key[2],
            "sample_index": key[3],
            "attempts": _sample_to_payload(sample),
        }
        line = json.dumps(entry, sort_keys=True) + "\n"
        with self._lock:
            if self._handle is None:
                self.directory.mkdir(parents=True, exist_ok=True)
                self._handle = self.path.open("a", encoding="utf-8")
            self._handle.write(line)
            self._handle.flush()
            try:
                os.fsync(self._handle.fileno())
            except OSError:
                pass  # durability is best-effort on exotic filesystems

    def close(self) -> None:
        """Close the append handle (reopened transparently by ``record``)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def discard(self) -> None:
        """Delete the journal file (after its sweep completed)."""
        self.close()
        try:
            self.path.unlink()
        except OSError:
            pass

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
