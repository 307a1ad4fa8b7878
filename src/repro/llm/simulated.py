"""Simulated designer models (the offline stand-in for commercial LLM APIs).

A :class:`SimulatedDesigner` behaves like a chat model evaluated by PICBench:
it receives the system prompt, the problem description and any feedback turns,
and returns an ``<analysis>`` / ``<result>`` response containing a JSON
netlist.  Internally it starts from the expert golden design and *injects*
the Table II error classes with probabilities governed by its
:class:`~repro.llm.profiles.DesignerProfile`; feedback turns remove injected
errors with the profile's fix probability.  The whole trajectory is a
deterministic function of ``(profile, problem, seed)``, so repeated calls with
a growing conversation replay the same history and extend it by one turn --
exactly how a temperature-sampled API call is used by the benchmark.

:class:`PerfectDesigner` always returns the golden design (useful for testing
the evaluation plumbing end to end), and :class:`EchoDesigner` returns a fixed
response (useful for unit tests of the parser).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..bench.problem import Problem
from ..bench.suite import find_problem_by_description
from ..netlist.errors import ErrorCategory
from ..netlist.schema import Netlist
from ..prompts.feedback import FUNCTIONAL_FEEDBACK
from ..sim.registry import ModelRegistry, default_registry
from .base import ChatMessage, Conversation
from .mutations import functional_mutation_in_place, mutate_in_place
from .profiles import DesignerProfile, get_profile
from .response import format_response

__all__ = ["SimulatedDesigner", "PerfectDesigner", "EchoDesigner"]

#: Canonical order in which injected error categories are applied to a draft.
_CATEGORY_ORDER: Tuple[ErrorCategory, ...] = (
    ErrorCategory.UNDEFINED_MODEL,
    ErrorCategory.INSTANCES_MODELS_CONFUSED,
    ErrorCategory.BAD_COMPONENT_NAME,
    ErrorCategory.WRONG_PORT,
    ErrorCategory.WRONG_PORT_COUNT,
    ErrorCategory.DUPLICATE_CONNECTION,
    ErrorCategory.DANGLING_PORT,
    ErrorCategory.BOUND_IO_PORT,
    ErrorCategory.EXTRA_CONTENT,
    ErrorCategory.OTHER_SYNTAX,
)

#: ``(display name, category)`` of every category, in enum order.
_DISPLAY_NAMES: Tuple[Tuple[str, ErrorCategory], ...] = tuple(
    (category.display_name, category) for category in ErrorCategory
)


def _stable_seed(*parts: object) -> int:
    """Derive a reproducible 64-bit seed from arbitrary string-able parts."""
    digest = hashlib.sha256("||".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class _Trajectory:
    """The designer's internal state after replaying the conversation."""

    active_errors: Set[ErrorCategory]
    functional_error: bool
    iteration: int


class SimulatedDesigner:
    """A stochastic PIC designer with an imperfect-LLM behavioural profile."""

    def __init__(
        self,
        profile: DesignerProfile | str,
        *,
        registry: Optional[ModelRegistry] = None,
        base_seed: int = 0,
    ) -> None:
        self.profile = get_profile(profile) if isinstance(profile, str) else profile
        self.registry = registry if registry is not None else default_registry()
        self.base_seed = int(base_seed)
        self.name = self.profile.name
        self._aptitudes: Dict[str, float] = {}
        self._difficulties: Dict[Tuple[str, int], float] = {}
        self._restriction_sets: Dict[str, frozenset] = {}
        self._probabilities: Dict[
            Tuple[str, int, frozenset], Tuple[Tuple[float, ...], float]
        ] = {}

    # ------------------------------------------------------------------
    # Conversation introspection
    # ------------------------------------------------------------------
    @staticmethod
    def _find_problem(messages: Conversation) -> Problem:
        """Recognise which registered problem the conversation is about.

        The first user message embeds the problem description; it is matched
        against every suite built so far (including parameter-overridden
        builds) and every registered pack's default problems, so the
        simulated designers work with any pack known to the registry.
        """
        user_messages = [m for m in messages if m.role == "user"]
        if not user_messages:
            raise ValueError("the conversation contains no user message")
        first = user_messages[0].content
        problem = find_problem_by_description(first)
        if problem is not None:
            return problem
        raise ValueError(
            "the problem description in the conversation does not match any "
            "benchmark problem of a registered pack; SimulatedDesigner only "
            "knows registered problem packs"
        )

    def _active_restrictions(self, messages: Conversation) -> frozenset:
        """Return the set of Table II categories whose restriction text is present.

        The designer reacts to the restrictions it can actually *see* in the
        system prompt, so ablations that include only a subset of Table II
        (``PromptConfig.restriction_categories``) only suppress the matching
        error classes.  Memoised per system-prompt text.
        """
        system_text = "\n".join(
            message.content for message in messages if message.role == "system"
        )
        active = self._restriction_sets.get(system_text)
        if active is None:
            from ..prompts.restrictions import RESTRICTIONS

            active = frozenset(
                restriction.category
                for restriction in RESTRICTIONS
                if restriction.text in system_text
            )
            self._restriction_sets[system_text] = active
        return active

    @staticmethod
    def _feedback_turns(messages: Conversation) -> List[str]:
        user_messages = [m for m in messages if m.role == "user"]
        return [m.content for m in user_messages[1:]]

    @staticmethod
    def _reported_category(feedback: str) -> Optional[ErrorCategory]:
        if FUNCTIONAL_FEEDBACK in feedback:
            return ErrorCategory.FUNCTIONAL
        for display_name, category in _DISPLAY_NAMES:
            if display_name in feedback:
                return category
        return None

    # ------------------------------------------------------------------
    # Trajectory replay
    # ------------------------------------------------------------------
    def _difficulty(self, problem: Problem) -> float:
        """Difficulty factor of ``problem``, memoised per (name, complexity)."""
        key = (problem.name, problem.complexity)
        difficulty = self._difficulties.get(key)
        if difficulty is None:
            instances = max(problem.complexity, 1)
            factor = 1.0 + self.profile.difficulty_sensitivity * np.log2(instances / 4.0 + 1.0)
            difficulty = self._difficulties[key] = float(np.clip(factor, 0.6, 1.9))
        return difficulty

    def _aptitude(self, problem: Problem) -> float:
        """Per-(model, problem) aptitude factor.

        Real models are systematically stronger on some problem families than
        others; the factor is a deterministic function of the profile and the
        problem so all five samples of a problem share it (which is what keeps
        Pass@5 well below the independent-samples prediction).  Drawn once
        per problem name and memoised.
        """
        aptitude = self._aptitudes.get(problem.name)
        if aptitude is None:
            rng = np.random.default_rng(
                _stable_seed(self.profile.name, problem.name, self.base_seed, "aptitude")
            )
            spread = self.profile.aptitude_spread
            aptitude = float(np.exp(rng.normal(loc=0.0, scale=spread)))
            self._aptitudes[problem.name] = aptitude
        return aptitude

    def _draft_probabilities(
        self, problem: Problem, active_restrictions: frozenset
    ) -> Tuple[Tuple[float, ...], float]:
        """Error probabilities of a fresh draft: one per ``_CATEGORY_ORDER`` entry, and functional.

        Memoised per (problem name, complexity, active restriction set).
        """
        key = (problem.name, problem.complexity, active_restrictions)
        probabilities = self._probabilities.get(key)
        if probabilities is None:
            from ..prompts.restrictions import RESTRICTIONS

            difficulty = self._difficulty(problem)
            aptitude = self._aptitude(problem)
            categories = tuple(
                self.profile.category_error_prob(
                    category,
                    difficulty=difficulty,
                    restrictions_active=category in active_restrictions,
                    aptitude=aptitude,
                )
                for category in _CATEGORY_ORDER
            )
            # The functional-error reduction scales with how much of Table II
            # is present in the prompt (the restrictions also clarify
            # conventions).
            restriction_fraction = len(active_restrictions) / max(len(RESTRICTIONS), 1)
            functional = self.profile.functional_probability(
                restrictions_active=False, aptitude=aptitude
            )
            functional *= 1.0 - restriction_fraction * (
                1.0 - self.profile.restriction_functional_factor
            )
            probabilities = self._probabilities[key] = (categories, functional)
        return probabilities

    def _replay(
        self,
        problem: Problem,
        feedback_turns: Sequence[str],
        *,
        active_restrictions: frozenset,
        seed: Optional[int],
    ) -> _Trajectory:
        rng = np.random.default_rng(
            _stable_seed(self.profile.name, problem.name, self.base_seed, seed)
        )
        category_probabilities, functional_probability = self._draft_probabilities(
            problem, active_restrictions
        )
        active: Set[ErrorCategory] = set()
        for category, probability in zip(_CATEGORY_ORDER, category_probabilities):
            if rng.random() < probability:
                active.add(category)
        functional = rng.random() < functional_probability

        for feedback in feedback_turns:
            reported = self._reported_category(feedback)
            if reported is ErrorCategory.FUNCTIONAL:
                if rng.random() < self.profile.functional_fix_prob:
                    functional = False
                continue
            if reported is not None and reported in active:
                if rng.random() < self.profile.feedback_fix_prob:
                    active.discard(reported)
            elif active:
                # The reported class does not match the designer's own view of
                # its mistake; the detailed message still helps some of the time.
                if rng.random() < self.profile.feedback_fix_prob * 0.7:
                    ordered = [c for c in _CATEGORY_ORDER if c in active]
                    active.discard(ordered[int(rng.integers(0, len(ordered)))])
            if rng.random() < self.profile.feedback_new_error_prob:
                candidates = [c for c in _CATEGORY_ORDER if c not in active]
                if candidates:
                    active.add(candidates[int(rng.integers(0, len(candidates)))])
        return _Trajectory(
            active_errors=active,
            functional_error=functional,
            iteration=len(feedback_turns),
        )

    # ------------------------------------------------------------------
    # Draft generation
    # ------------------------------------------------------------------
    def _render_draft(
        self,
        problem: Problem,
        trajectory: _Trajectory,
        *,
        seed: Optional[int],
    ) -> str:
        categories = [c for c in _CATEGORY_ORDER if c in trajectory.active_errors]
        if not categories and not trajectory.functional_error:
            return problem.golden_json
        rng = np.random.default_rng(
            _stable_seed(
                self.profile.name,
                problem.name,
                self.base_seed,
                seed,
                trajectory.iteration,
                "draft",
            )
        )
        # One private copy of the shared golden per draft; the operators
        # change it in place.
        netlist: Netlist = problem.shared_golden.copy()
        if trajectory.functional_error:
            functional_mutation_in_place(netlist, rng, self.registry)
        wrappers = []
        for category in categories:
            wrapper = mutate_in_place(netlist, category, rng)
            if wrapper is not None:
                wrappers.append(wrapper)
        text = netlist.to_json()
        for wrapper in wrappers:
            text = wrapper(text)
        return text

    def _render_analysis(self, problem: Problem, trajectory: _Trajectory) -> str:
        if trajectory.iteration == 0:
            return (
                f"Designing {problem.title}: identified the required built-in "
                "components from the API document, instantiated them, and wired "
                "the connections and external ports according to the problem "
                "description."
            )
        return (
            f"Revised the {problem.title} netlist in response to the reported "
            "evaluation feedback and regenerated the full JSON netlist."
        )

    # ------------------------------------------------------------------
    # LLMClient interface
    # ------------------------------------------------------------------
    def complete(self, messages: Conversation, *, seed: Optional[int] = None) -> str:
        """Return the next assistant turn for a PICBench conversation."""
        problem = self._find_problem(messages)
        active_restrictions = self._active_restrictions(messages)
        feedback_turns = self._feedback_turns(messages)
        trajectory = self._replay(
            problem,
            feedback_turns,
            active_restrictions=active_restrictions,
            seed=seed,
        )
        result = self._render_draft(problem, trajectory, seed=seed)
        analysis = self._render_analysis(problem, trajectory)
        return format_response(analysis, result)


class PerfectDesigner:
    """A designer that always answers with the expert golden netlist.

    Used to validate the evaluation plumbing: every problem must pass both the
    syntax and the functionality check when evaluated against this designer.
    """

    def __init__(self, name: str = "PerfectDesigner") -> None:
        self.name = name

    def complete(self, messages: Conversation, *, seed: Optional[int] = None) -> str:
        problem = SimulatedDesigner._find_problem(messages)
        return format_response(
            f"Reproducing the expert design for {problem.title}.",
            problem.golden_json,
        )


class EchoDesigner:
    """A designer that always returns a fixed, caller-supplied response."""

    def __init__(self, response: str, name: str = "EchoDesigner") -> None:
        self.name = name
        self._response = response

    def complete(self, messages: Conversation, *, seed: Optional[int] = None) -> str:
        return self._response
