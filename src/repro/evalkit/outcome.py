"""Result records produced by the evaluation loop.

The hierarchy mirrors how the benchmark is run:

``AttemptRecord``
    One LLM response and its verdict (one box of the Fig. 1 flow).
``SampleResult``
    One complete feedback trajectory for one sample of one problem (up to
    ``max_feedback_iterations + 1`` attempts).
``EvalReport``
    All samples of all problems for one (model, prompt-configuration) pair;
    provides the Pass@k aggregation used by Tables III and IV.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..netlist.errors import ErrorCategory
from .passk import mean_pass_at_k

__all__ = ["AttemptRecord", "SampleResult", "EvalReport", "pass_at_k_by_pack"]


def _mean_pass_percent(counts: Sequence[Tuple[int, int]], k: int) -> float:
    """Mean per-problem Pass@k estimate in percent, clamping ``k`` to ``n``.

    Shared by :meth:`EvalReport.pass_at_k` and :func:`pass_at_k_by_pack` so
    the clamping and percentage conventions cannot drift apart.  Raises
    ``ValueError`` when no problem has samples.
    """
    values = [100.0 * mean_pass_at_k([(n, c)], min(k, n)) for n, c in counts if n > 0]
    if not values:
        raise ValueError("no evaluated samples to aggregate")
    return float(sum(values) / len(values))


@dataclass
class AttemptRecord:
    """Verdict of a single generated response.

    ``degraded`` marks an attempt whose simulation needed the solver's
    least-squares guardrail (singular/near-singular feedback system);
    ``nonfinite`` marks one whose S-matrix still contained NaN/inf.  Both
    are quality annotations -- they do not change the pass verdict.
    """

    iteration: int
    syntax_ok: bool
    functional_ok: bool
    error_category: Optional[ErrorCategory] = None
    error_detail: Optional[str] = None
    response_text: Optional[str] = None
    degraded: bool = False
    nonfinite: bool = False

    @property
    def passed(self) -> bool:
        """True when both the syntax and the functionality checks passed."""
        return self.syntax_ok and self.functional_ok

    def to_payload(self) -> Dict[str, object]:
        """This attempt's serialised form in a report (no texts, no detail).

        The guardrail flags are emitted only when set, so reports from
        healthy runs serialise to exactly the bytes they did before the
        flags existed (the store's content-dedup depends on that).  The
        sweep journal adds ``error_detail``.
        """
        payload: Dict[str, object] = {
            "iteration": self.iteration,
            "syntax_ok": self.syntax_ok,
            "functional_ok": self.functional_ok,
            "error_category": self.error_category.value if self.error_category else None,
        }
        if self.degraded:
            payload["degraded"] = True
        if self.nonfinite:
            payload["nonfinite"] = True
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "AttemptRecord":
        """Inverse of :meth:`to_payload`; takes ``error_detail`` when present."""
        raw_category = payload.get("error_category")
        detail = payload.get("error_detail")
        return cls(
            iteration=int(payload["iteration"]),  # type: ignore[arg-type]
            syntax_ok=bool(payload["syntax_ok"]),
            functional_ok=bool(payload["functional_ok"]),
            error_category=ErrorCategory(raw_category) if raw_category else None,
            error_detail=str(detail) if detail is not None else None,
            degraded=bool(payload.get("degraded", False)),
            nonfinite=bool(payload.get("nonfinite", False)),
        )


@dataclass
class SampleResult:
    """One sample's full feedback trajectory."""

    problem: str
    sample_index: int
    attempts: List[AttemptRecord] = field(default_factory=list)

    def first_pass_iteration(self, metric: str) -> Optional[int]:
        """Iteration index of the first attempt passing ``metric`` (or None).

        ``metric`` is ``"syntax"`` or ``"functional"``; iteration 0 is the
        initial query (no feedback).
        """
        for attempt in self.attempts:
            ok = attempt.syntax_ok if metric == "syntax" else attempt.passed
            if ok:
                return attempt.iteration
        return None

    def passed_within(self, metric: str, max_feedback: int) -> bool:
        """Whether the sample passed ``metric`` using at most ``max_feedback`` EFs."""
        iteration = self.first_pass_iteration(metric)
        return iteration is not None and iteration <= max_feedback

    def error_categories(self) -> List[ErrorCategory]:
        """Categories of every failed attempt, in iteration order."""
        return [a.error_category for a in self.attempts if a.error_category is not None]

    @property
    def degraded(self) -> bool:
        """True when any attempt ran through the solver's degraded fallback."""
        return any(attempt.degraded for attempt in self.attempts)

    @property
    def nonfinite(self) -> bool:
        """True when any attempt produced a non-finite S-matrix."""
        return any(attempt.nonfinite for attempt in self.attempts)


@dataclass
class EvalReport:
    """All evaluation results for one model under one prompt configuration.

    ``pack`` records which problem pack produced the results, so reports from
    different packs can live side by side (and be aggregated per pack) in one
    sweep artefact.
    """

    model: str
    with_restrictions: bool
    samples_per_problem: int
    max_feedback_iterations: int
    results: Dict[str, List[SampleResult]] = field(default_factory=dict)
    pack: str = "core"

    def add(self, sample: SampleResult) -> None:
        """Record one finished sample trajectory."""
        self.results.setdefault(sample.problem, []).append(sample)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def problem_counts(self, metric: str, max_feedback: int) -> List[Tuple[int, int]]:
        """Per-problem ``(n, c)`` pairs for the Pass@k estimator."""
        counts: List[Tuple[int, int]] = []
        for samples in self.results.values():
            n = len(samples)
            c = sum(1 for s in samples if s.passed_within(metric, max_feedback))
            counts.append((n, c))
        return counts

    def pass_at_k(self, k: int, *, metric: str = "syntax", max_feedback: int = 0) -> float:
        """Mean Pass@k (in percent) for ``metric`` with at most ``max_feedback`` EFs.

        When fewer than ``k`` samples were generated for a problem (e.g. in a
        reduced sweep), ``k`` is clamped to that problem's sample count so the
        estimator remains well defined.
        """
        counts = self.problem_counts(metric, max_feedback)
        try:
            return _mean_pass_percent(counts, k)
        except ValueError:
            raise ValueError("the report contains no evaluated samples") from None

    def problem_pass_at_k(
        self, problem: str, k: int, *, metric: str = "syntax", max_feedback: int = 0
    ) -> float:
        """Pass@k (in percent) of a single problem of this report.

        The single-problem restriction of :meth:`pass_at_k` (same clamping
        and percentage conventions); this is the value the evaluation
        service's regression diff compares per problem between runs.
        Raises ``KeyError`` for unknown problems and ``ValueError`` when the
        problem has no evaluated samples.
        """
        samples = self.results[problem]
        n = len(samples)
        c = sum(1 for s in samples if s.passed_within(metric, max_feedback))
        try:
            return _mean_pass_percent([(n, c)], k)
        except ValueError:
            raise ValueError(f"problem {problem!r} has no evaluated samples") from None

    def error_breakdown(self) -> Dict[ErrorCategory, int]:
        """Histogram of error categories across every failed attempt."""
        histogram: Dict[ErrorCategory, int] = {}
        for samples in self.results.values():
            for sample in samples:
                for category in sample.error_categories():
                    histogram[category] = histogram.get(category, 0) + 1
        return histogram

    def to_dict(self) -> Dict[str, object]:
        """Serialise the report (without response texts) to plain containers."""
        return {
            "model": self.model,
            "with_restrictions": self.with_restrictions,
            "samples_per_problem": self.samples_per_problem,
            "max_feedback_iterations": self.max_feedback_iterations,
            "pack": self.pack,
            "results": {
                problem: [
                    {
                        "sample_index": sample.sample_index,
                        "attempts": [attempt.to_payload() for attempt in sample.attempts],
                    }
                    for sample in samples
                ]
                for problem, samples in self.results.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "EvalReport":
        """Rebuild a report previously serialised with :meth:`to_dict`."""
        report = cls(
            model=str(payload["model"]),
            with_restrictions=bool(payload["with_restrictions"]),
            samples_per_problem=int(payload["samples_per_problem"]),
            max_feedback_iterations=int(payload["max_feedback_iterations"]),
            pack=str(payload.get("pack", "core")),
        )
        results = payload.get("results", {})
        for problem, samples in dict(results).items():  # type: ignore[union-attr]
            for sample_payload in samples:
                report.add(
                    SampleResult(
                        problem=str(problem),
                        sample_index=int(sample_payload["sample_index"]),
                        attempts=[
                            AttemptRecord.from_payload(attempt)
                            for attempt in sample_payload["attempts"]
                        ],
                    )
                )
        return report


def pass_at_k_by_pack(
    reports: Sequence[EvalReport],
    k: int,
    *,
    metric: str = "syntax",
    max_feedback: int = 0,
) -> Dict[str, float]:
    """Mean Pass@k (percent) aggregated per problem pack across ``reports``.

    Every report contributes its per-problem ``(n, c)`` counts to the bucket
    of its :attr:`EvalReport.pack`; the estimator is then averaged over all
    problems of that pack, mirroring :meth:`EvalReport.pass_at_k` but across
    models and restriction settings.
    """
    counts_by_pack: Dict[str, List[Tuple[int, int]]] = {}
    for report in reports:
        counts_by_pack.setdefault(report.pack, []).extend(
            report.problem_counts(metric, max_feedback)
        )
    aggregated: Dict[str, float] = {}
    for pack, counts in counts_by_pack.items():
        try:
            aggregated[pack] = _mean_pass_percent(counts, k)
        except ValueError:
            raise ValueError(f"no evaluated samples for pack {pack!r}") from None
    return aggregated
