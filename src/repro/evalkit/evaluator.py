"""The PICBench evaluation loop (Fig. 1 of the paper).

For every sample of every problem the evaluator:

1. builds the system prompt (optionally with restrictions, Table IV) and the
   problem's user prompt,
2. queries the LLM client,
3. parses the ``<result>`` section into a netlist and validates it,
4. simulates the netlist over the evaluation wavelength grid (syntax check),
5. compares the simulated frequency response against the golden design
   (functionality check),
6. on failure, classifies the error and feeds a correction prompt back to the
   model, iterating up to ``max_feedback_iterations`` times.

Steps 3-5 run once per distinct draft: an evaluator memoises each verdict by
problem, registry state and response text, so a resubmitted draft -- by
another sample, feedback round, model or restriction setting -- is served
from the memo.  :meth:`Evaluator.run_samples` runs every trajectory:
each problem's trajectories in lockstep, every draft judged on the calling
thread.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._cache import LRUCache
from ..bench.golden import GoldenStore
from ..bench.problem import Problem
from ..bench.suite import all_problems
from ..constants import (
    DEFAULT_FUNCTIONAL_ATOL,
    DEFAULT_NUM_WAVELENGTHS,
    DEFAULT_SAMPLES_PER_PROBLEM,
)
from ..engine.engine import ExecutionEngine
from ..engine.fingerprint import sample_seed
from ..llm.base import ChatMessage, LLMClient, assistant, system, user
from ..llm.response import split_response
from ..netlist.errors import FunctionalError, PICBenchError
from ..netlist.parser import parse_netlist_text
from ..netlist.schema import Netlist
from ..netlist.validation import validate_netlist
from ..prompts.feedback import build_feedback
from ..prompts.system_prompt import PromptConfig, build_system_prompt, build_user_prompt
from ..sim.analysis import compare_responses
from ..sim.registry import ModelRegistry, UnknownModelError, default_registry
from .classify import as_picbench_error
from .outcome import AttemptRecord, EvalReport, SampleResult

__all__ = ["EvaluationConfig", "AttemptOutcome", "Evaluator"]


@dataclass(frozen=True)
class EvaluationConfig:
    """Knobs of the evaluation loop.

    Attributes
    ----------
    samples_per_problem:
        ``n`` of the Pass@k estimator (the paper uses 5).
    max_feedback_iterations:
        Maximum number of error-feedback rounds (the paper reports 0, 1, 3;
        running with 3 allows all three columns to be derived from one run).
    num_wavelengths:
        Number of points of the 1510-1590 nm evaluation grid.
    functional_atol:
        Tolerance on ``|S|^2`` when comparing against the golden response.
    include_restrictions:
        Whether the Table II restrictions are added to the system prompt.
    keep_responses:
        Whether raw response texts are kept in the attempt records (useful for
        debugging, memory-hungry for full sweeps).
    base_seed:
        Global seed mixed into each sample's generation seed.
    """

    samples_per_problem: int = DEFAULT_SAMPLES_PER_PROBLEM
    max_feedback_iterations: int = 3
    num_wavelengths: int = DEFAULT_NUM_WAVELENGTHS
    functional_atol: float = DEFAULT_FUNCTIONAL_ATOL
    include_restrictions: bool = False
    keep_responses: bool = False
    base_seed: int = 0


#: Capacity of an evaluator's verdict memo; a default sweep judges about
#: 2,450 distinct drafts.
VERDICT_MEMO_ENTRIES = 16_384

#: Raw errors that depend on the draft alone; a verdict carrying any other
#: error (an injected fault, I/O trouble, an unexpected crash) is never memoised.
_DETERMINISTIC_ERRORS = (PICBenchError, UnknownModelError)


@dataclass(frozen=True)
class AttemptOutcome:
    """Verdict of a single response, before being folded into the records.

    ``degraded`` / ``nonfinite`` carry the solver's numerical-guardrail
    annotations (least-squares fallback fired / the S-matrix still held
    NaN or inf) alongside the verdict.  Outcomes are shared between the
    attempts that submit the same draft, so they are immutable.
    """

    syntax_ok: bool
    functional_ok: bool
    error: Optional[PICBenchError] = None
    degraded: bool = False
    nonfinite: bool = False


def _classified(error: BaseException) -> PICBenchError:
    """``error`` classified; it, its classification and their chains lose their tracebacks.

    A stored traceback would keep the failing frames alive -- the draft
    netlist among their locals -- in a cycle through the outcome that
    holds the error; reports and feedback read only category and detail.
    """
    classified = as_picbench_error(error)
    pending: List[Optional[BaseException]] = [classified, error]
    seen = set()
    while pending:
        link = pending.pop()
        if link is None or id(link) in seen:
            continue
        seen.add(id(link))
        link.__traceback__ = None
        pending += (link.__cause__, link.__context__)
    return classified


def _failure(error: Exception) -> Tuple[AttemptOutcome, bool]:
    """The verdict of a draft whose evaluation raised ``error``, and whether to memoise it."""
    outcome = AttemptOutcome(syntax_ok=False, functional_ok=False, error=_classified(error))
    return outcome, isinstance(error, _DETERMINISTIC_ERRORS)


@dataclass
class _Trajectory:
    """One Fig. 1 trajectory in flight: its designer, problem, conversation, seed and record."""

    client: LLMClient
    problem: Problem
    messages: List[ChatMessage]
    seed: int
    sample: SampleResult

    def draft(self) -> str:
        """The designer's next response to the conversation so far."""
        return self.client.complete(self.messages, seed=self.seed)


class Evaluator:
    """Runs the generation / evaluation / feedback loop of Fig. 1."""

    def __init__(
        self,
        config: Optional[EvaluationConfig] = None,
        *,
        registry: Optional[ModelRegistry] = None,
        golden_store: Optional[GoldenStore] = None,
        engine: Optional[ExecutionEngine] = None,
    ) -> None:
        self.config = config if config is not None else EvaluationConfig()
        if engine is None and golden_store is not None:
            # Reuse the golden store's engine so golden and candidate
            # simulations share one content-addressed cache.
            engine = golden_store.engine
        # Drafts validate against the registry they are simulated with.
        if registry is None:
            registry = engine.registry if engine is not None else default_registry()
        self.registry = registry
        self.engine = engine if engine is not None else ExecutionEngine(registry=registry)
        self.golden_store = (
            golden_store
            if golden_store is not None
            else GoldenStore(
                num_wavelengths=self.config.num_wavelengths,
                registry=self.registry,
                engine=self.engine,
            )
        )
        if self.golden_store.num_wavelengths != self.config.num_wavelengths:
            raise ValueError(
                "golden_store and config disagree on the wavelength grid "
                f"({self.golden_store.num_wavelengths} vs {self.config.num_wavelengths})"
            )
        self._verdicts: LRUCache[Tuple[object, ...], AttemptOutcome] = LRUCache(
            VERDICT_MEMO_ENTRIES
        )

    # ------------------------------------------------------------------
    # Single-response evaluation
    # ------------------------------------------------------------------
    def _verdict_key(self, problem: Problem, response_text: object) -> Optional[Tuple[object, ...]]:
        """The verdict memo's key for one draft of ``problem`` (``None``: not memoisable).

        Everything a verdict depends on beyond this evaluator's fixed
        configuration and golden store: the problem's golden design and port
        spec, the registries drafts validate and simulate against, and the
        text itself (128-bit BLAKE2b).
        """
        if not isinstance(response_text, str):
            return None
        digest = hashlib.blake2b(
            response_text.encode("utf-8", "surrogatepass"), digest_size=16
        ).digest()
        return (
            problem.pack,
            problem.name,
            problem.golden_fingerprint,
            problem.port_spec,
            self.registry.version,
            self.engine.registry.version,
            digest,
        )

    def _simulated_verdict(self, problem: Problem, smatrix) -> AttemptOutcome:
        """The verdict of a draft that simulated to ``smatrix``."""
        degraded, nonfinite = bool(smatrix.degraded), not bool(np.all(np.isfinite(smatrix.data)))
        comparison = compare_responses(
            smatrix,
            self.golden_store.response_for(problem),
            atol=self.config.functional_atol,
        )
        error = None
        if not comparison.passed:
            error = FunctionalError(
                comparison.reason or "the frequency response deviates from the golden design"
            )
        return AttemptOutcome(
            syntax_ok=True,
            functional_ok=comparison.passed,
            error=error,
            degraded=degraded,
            nonfinite=nonfinite,
        )

    def _parse_and_validate(self, problem: Problem, response_text: str) -> Netlist:
        """The validated netlist of a draft's ``<result>`` section (raises on any violation)."""
        netlist = parse_netlist_text(split_response(response_text).result, strict=True)
        validate_netlist(netlist, self.registry, problem.port_spec)
        return netlist

    def evaluate_response(self, problem: Problem, response_text: str) -> AttemptOutcome:
        """Check one raw LLM response for syntax and functional correctness.

        Each distinct draft is judged once: the verdict memo serves repeats
        of a text whose verdict raised nothing or a classified netlist error.
        The key is not claimed while a draft is judged, so two threads
        calling this at once with one text may both judge it;
        :meth:`run_samples` judges on its calling thread and never does.
        """
        key = self._verdict_key(problem, response_text)
        if key is not None:
            memoised = self._verdicts.get(key)
            if memoised is not None:
                return memoised
        try:
            netlist = self._parse_and_validate(problem, response_text)
            smatrix = self.engine.evaluate(
                netlist, self.golden_store.wavelengths, port_spec=problem.port_spec
            )
        except Exception as error:  # noqa: BLE001 - classified below
            outcome, memoise = _failure(error)
        else:
            outcome, memoise = self._simulated_verdict(problem, smatrix), True
        if memoise and key is not None:
            self._verdicts.put(key, outcome)
        return outcome

    # ------------------------------------------------------------------
    # Feedback loop
    # ------------------------------------------------------------------
    def _start(
        self,
        client: LLMClient,
        problem: Problem,
        sample_index: int,
        prompt_config: Optional[PromptConfig] = None,
    ) -> _Trajectory:
        """A fresh trajectory: the system and user prompts of one sample of one problem."""
        prompt_config = prompt_config or PromptConfig(
            include_restrictions=self.config.include_restrictions
        )
        return _Trajectory(
            client=client,
            problem=problem,
            messages=[
                system(build_system_prompt(self.registry, prompt_config)),
                user(build_user_prompt(problem.description)),
            ],
            # Mixing the problem name into the seed keeps every (problem,
            # sample) trajectory statistically independent; the old
            # derivation (base_seed * 100_003 + sample_index) replayed one
            # seed sequence across all problems.
            seed=sample_seed(self.config.base_seed, problem.name, sample_index),
            sample=SampleResult(problem=problem.name, sample_index=sample_index),
        )

    def _advance(
        self, trajectory: _Trajectory, response_text: str, outcome: AttemptOutcome
    ) -> bool:
        """Record one judged draft; whether the trajectory needs another.

        A draft that passes both checks, or the last allowed feedback round,
        ends the trajectory; otherwise the classified error is fed back to
        the model as the next user turn.
        """
        attempts = trajectory.sample.attempts
        attempts.append(
            AttemptRecord(
                iteration=len(attempts),
                syntax_ok=outcome.syntax_ok,
                functional_ok=outcome.functional_ok,
                error_category=outcome.error.category if outcome.error else None,
                error_detail=outcome.error.detail if outcome.error else None,
                response_text=response_text if self.config.keep_responses else None,
                degraded=outcome.degraded,
                nonfinite=outcome.nonfinite,
            )
        )
        if outcome.functional_ok and outcome.syntax_ok:
            return False
        if len(attempts) > self.config.max_feedback_iterations:
            return False
        assert outcome.error is not None
        feedback = build_feedback(trajectory.problem.name, outcome.error)
        trajectory.messages = trajectory.messages + [assistant(response_text), user(feedback)]
        return True

    def run_sample(
        self,
        client: LLMClient,
        problem: Problem,
        sample_index: int,
        *,
        prompt_config: Optional[PromptConfig] = None,
    ) -> SampleResult:
        """Run the full feedback trajectory for one sample of one problem.

        The one-unit call of :meth:`run_samples`.
        """
        (sample,) = self.run_samples([(client, problem, sample_index, prompt_config)])
        return sample

    def run_samples(
        self,
        units: Sequence[Tuple[LLMClient, Problem, int, Optional[PromptConfig]]],
        *,
        on_done: Optional[Callable[[int, SampleResult], None]] = None,
    ) -> List[SampleResult]:
        """Run many ``(client, problem, sample_index, prompt_config)`` trajectories.

        The units are grouped by problem: groups in order of first
        appearance, units in their given order inside a group.  A group's
        trajectories start when the group begins, so one problem's
        conversations are held at a time, and advance in lockstep, one
        feedback iteration at a time: the iteration's drafts run on the
        engine's worker pool, then each draft is judged by
        :meth:`evaluate_response` on the calling thread, where
        ``on_done(index, sample)`` fires as each trajectory finishes.

        Each trajectory's messages and seed are a pure function of its own
        history, so every unit's result is the one it gets run alone; the
        results come back in unit order.
        """
        groups: Dict[Tuple[str, str], List[int]] = {}
        for index, (_, problem, _, _) in enumerate(units):
            groups.setdefault((problem.pack, problem.name), []).append(index)
        samples: List[SampleResult] = [None] * len(units)  # type: ignore[list-item]
        for members in groups.values():
            trajectories = {index: self._start(*units[index]) for index in members}
            active = members
            while active:
                drafts = self.engine.map(lambda index: trajectories[index].draft(), active)
                still_active = []
                for index, response_text in zip(active, drafts):
                    trajectory = trajectories[index]
                    outcome = self.evaluate_response(trajectory.problem, response_text)
                    if self._advance(trajectory, response_text, outcome):
                        still_active.append(index)
                        continue
                    samples[index] = trajectory.sample
                    if on_done is not None:
                        on_done(index, trajectory.sample)
                active = still_active
        return samples

    def run_suite(
        self,
        client: LLMClient,
        problems: Optional[Sequence[Problem]] = None,
        *,
        prompt_config: Optional[PromptConfig] = None,
    ) -> EvalReport:
        """Evaluate a client over the full suite (or a subset of problems).

        The nested problem/sample loops are flattened into independent work
        units and run by :meth:`run_samples`; results are folded back in
        ``(problem, sample)`` order, so any worker count produces the same
        report as the sequential loop.
        """
        problems = list(problems) if problems is not None else list(all_problems())
        packs = {problem.pack for problem in problems}
        report = EvalReport(
            model=getattr(client, "name", type(client).__name__),
            with_restrictions=(
                prompt_config.include_restrictions
                if prompt_config is not None
                else self.config.include_restrictions
            ),
            samples_per_problem=self.config.samples_per_problem,
            max_feedback_iterations=self.config.max_feedback_iterations,
            pack=packs.pop() if len(packs) == 1 else "mixed",
        )
        units = [
            (client, problem, sample_index, prompt_config)
            for problem in problems
            for sample_index in range(self.config.samples_per_problem)
        ]
        for sample in self.run_samples(units):
            report.add(sample)
        return report
