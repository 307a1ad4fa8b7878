"""Safety of the evaluator's verdict memo and of the designer's single-copy drafts.

An :class:`~repro.evalkit.evaluator.Evaluator` judges each distinct draft
once: it memoises the verdict of a response text per problem and registry
state, unless the evaluation raised something other than a classified
netlist error.  The simulated designer memoises its draft probabilities,
renders error-free drafts from ``Problem.golden_json`` and copies the golden
once per mutated draft.  The replaced code paths are kept below as
references: the unmemoised ``evaluate_response``, the copying
``_render_draft`` with its unmemoised ``_replay``, and
``collect_violations(...)[0]`` for ``validate_netlist``.
"""

from __future__ import annotations

import dataclasses
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import List, Set

import numpy as np
import pytest

from repro.bench.packs import get_pack
from repro.bench.suite import get_problem
from repro.engine.engine import ExecutionEngine
from repro.evalkit.classify import as_picbench_error
from repro.evalkit.evaluator import AttemptOutcome, EvaluationConfig, Evaluator
from repro.faults import FaultInjected, FaultRule, inject
from repro.llm import format_response
from repro.llm.base import assistant, system, user
from repro.llm.mutations import SYNTAX_MUTATORS, apply_functional_mutation, apply_syntax_mutation
from repro.llm.profiles import DEFAULT_PROFILES
from repro.llm.response import split_response
from repro.llm.simulated import _CATEGORY_ORDER, SimulatedDesigner, _stable_seed, _Trajectory
from repro.netlist import ErrorCategory, collect_violations, parse_netlist_text
from repro.netlist.errors import ERROR_CLASSES, FunctionalError, OtherSyntaxError, PICBenchError
from repro.prompts import PromptConfig, build_feedback, build_system_prompt, build_user_prompt
from repro.prompts.restrictions import RESTRICTIONS
from repro.sim import compare_responses
from repro.sim.registry import ModelInfo, UnknownModelError, default_registry

from tests.conftest import TEST_NUM_WAVELENGTHS

REGISTRY = default_registry()


# ----------------------------------------------------------------------
# Reference implementations (the replaced code)
# ----------------------------------------------------------------------
def reference_validate_netlist(netlist, registry, port_spec) -> None:
    """``validate_netlist`` as it was: collect every violation, raise the first."""
    violations = collect_violations(netlist, registry, port_spec)
    if violations:
        raise violations[0]


def reference_evaluate_response(evaluator: Evaluator, problem, response_text) -> AttemptOutcome:
    """The unmemoised ``Evaluator.evaluate_response``."""
    try:
        response = split_response(response_text)
        netlist = parse_netlist_text(response.result, strict=True)
        reference_validate_netlist(netlist, evaluator.registry, problem.port_spec)
        smatrix = evaluator.engine.evaluate(
            netlist, evaluator.golden_store.wavelengths, port_spec=problem.port_spec
        )
    except Exception as error:  # noqa: BLE001 - classified like the evaluator
        return AttemptOutcome(syntax_ok=False, functional_ok=False, error=as_picbench_error(error))
    degraded = bool(smatrix.degraded)
    nonfinite = not bool(np.all(np.isfinite(smatrix.data)))
    comparison = compare_responses(
        smatrix, evaluator.golden_store.response_for(problem), atol=evaluator.config.functional_atol
    )
    if comparison.passed:
        return AttemptOutcome(True, True, degraded=degraded, nonfinite=nonfinite)
    return AttemptOutcome(
        True,
        False,
        error=FunctionalError(
            comparison.reason or "the frequency response deviates from the golden design"
        ),
        degraded=degraded,
        nonfinite=nonfinite,
    )


def reference_replay(designer: SimulatedDesigner, problem, feedback_turns, active_restrictions, seed):
    """``SimulatedDesigner._replay`` recomputing every probability per call."""
    profile = designer.profile
    rng = np.random.default_rng(_stable_seed(profile.name, problem.name, designer.base_seed, seed))
    difficulty = designer._difficulty(problem)
    aptitude = designer._aptitude(problem)
    active: Set[ErrorCategory] = set()
    for category in _CATEGORY_ORDER:
        probability = profile.category_error_prob(
            category,
            difficulty=difficulty,
            restrictions_active=category in active_restrictions,
            aptitude=aptitude,
        )
        if rng.random() < probability:
            active.add(category)
    restriction_fraction = len(active_restrictions) / max(len(RESTRICTIONS), 1)
    functional_probability = profile.functional_probability(
        restrictions_active=False, aptitude=aptitude
    )
    functional_probability *= 1.0 - restriction_fraction * (
        1.0 - profile.restriction_functional_factor
    )
    functional = rng.random() < functional_probability
    for feedback in feedback_turns:
        reported = designer._reported_category(feedback)
        if reported is ErrorCategory.FUNCTIONAL:
            if rng.random() < profile.functional_fix_prob:
                functional = False
            continue
        if reported is not None and reported in active:
            if rng.random() < profile.feedback_fix_prob:
                active.discard(reported)
        elif active:
            if rng.random() < profile.feedback_fix_prob * 0.7:
                ordered = [c for c in _CATEGORY_ORDER if c in active]
                active.discard(ordered[int(rng.integers(0, len(ordered)))])
        if rng.random() < profile.feedback_new_error_prob:
            candidates = [c for c in _CATEGORY_ORDER if c not in active]
            if candidates:
                active.add(candidates[int(rng.integers(0, len(candidates)))])
    return _Trajectory(active_errors=active, functional_error=functional, iteration=len(feedback_turns))


def reference_render_draft(designer: SimulatedDesigner, problem, trajectory, seed) -> str:
    """The copying ``SimulatedDesigner._render_draft``: every operator copies."""
    rng = np.random.default_rng(
        _stable_seed(
            designer.profile.name, problem.name, designer.base_seed, seed, trajectory.iteration, "draft"
        )
    )
    netlist = problem.shared_golden
    if trajectory.functional_error:
        netlist = apply_functional_mutation(netlist, rng, designer.registry)
    wrappers = []
    for category in _CATEGORY_ORDER:
        if category not in trajectory.active_errors:
            continue
        result = apply_syntax_mutation(netlist, category, rng)
        netlist = result.netlist
        if result.text_wrapper is not None:
            wrappers.append(result.text_wrapper)
    text = netlist.to_json()
    for wrapper in wrappers:
        text = wrapper(text)
    return text


def reference_complete(designer: SimulatedDesigner, messages, seed) -> str:
    """``SimulatedDesigner.complete`` over the reference replay and renderer."""
    problem = designer._find_problem(messages)
    trajectory = reference_replay(
        designer,
        problem,
        designer._feedback_turns(messages),
        designer._active_restrictions(messages),
        seed,
    )
    result = reference_render_draft(designer, problem, trajectory, seed)
    return format_response(designer._render_analysis(problem, trajectory), result)


def verdict(outcome: AttemptOutcome):
    """Everything a report or a feedback prompt reads of an outcome."""
    error = outcome.error
    return (
        outcome.syntax_ok,
        outcome.functional_ok,
        error.category if error is not None else None,
        error.detail if error is not None else None,
        outcome.degraded,
        outcome.nonfinite,
    )


def make_evaluator(batch_size: int = 1) -> Evaluator:
    return Evaluator(
        EvaluationConfig(num_wavelengths=TEST_NUM_WAVELENGTHS, batch_size=batch_size),
        engine=ExecutionEngine(),
    )


def _wrapped(result) -> str:
    text = result.netlist.to_json()
    return result.text_wrapper(text) if result.text_wrapper is not None else text


def drafts_of(problem, seed: int = 0) -> List[str]:
    """The golden, its functional mutant, and every syntax mutant alone and chained."""
    golden = problem.shared_golden
    rng = np.random.default_rng(seed)
    functional = apply_functional_mutation(golden, rng, REGISTRY)
    texts = [problem.golden_json, functional.to_json()]
    chained, wrappers = functional, []
    for mutator in SYNTAX_MUTATORS.values():
        texts.append(_wrapped(mutator(golden, rng)))
        result = mutator(chained, rng)
        chained = result.netlist
        if result.text_wrapper is not None:
            wrappers.append(result.text_wrapper)
        text = chained.to_json()
        for wrapper in wrappers:
            text = wrapper(text)
        texts.append(text)
    responses = [format_response("analysis", text) for text in texts]
    # Bare and prose-wrapped results, without the section markers.
    for text in texts[:2]:
        responses += [text, f"Here is the design:\n{text}\nDone."]
    return responses


PACKS = ("core", "wdm-links", "variability")
PACK_PROBLEMS = [
    pytest.param(problem, id=f"{pack}:{problem.name}")
    for pack in PACKS
    for problem in get_pack(pack).build_problems()
]


# ----------------------------------------------------------------------
# (a) Memo hits equal fresh verdicts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("problem", PACK_PROBLEMS)
def test_memo_hits_equal_fresh_verdicts(problem):
    evaluator = make_evaluator()
    responses = drafts_of(problem)
    expected = [verdict(reference_evaluate_response(evaluator, problem, text)) for text in responses]
    assert expected[0][:3] == (True, True, None)  # the golden draft passes
    for text, wanted in zip(responses, expected):
        first = evaluator.evaluate_response(problem, text)
        assert verdict(first) == wanted
        # Every draft here raises nothing or a classified error: a hit.
        assert evaluator.evaluate_response(problem, text) is first

    # The batched path gives the same verdicts, and a later call is served from the memo.
    batched = make_evaluator(batch_size=4)
    outcomes = batched.evaluate_responses([(problem, text) for text in responses])
    assert [verdict(outcome) for outcome in outcomes] == expected
    hits = batched._verdicts.stats.hits
    again = batched.evaluate_responses([(problem, text) for text in responses + responses])
    assert [verdict(outcome) for outcome in again] == expected + expected
    assert batched._verdicts.stats.hits - hits == len(again)


def test_a_draft_repeated_within_one_batched_call_is_judged_once(monkeypatch):
    evaluator = make_evaluator(batch_size=4)
    problem = get_problem("mzi_ps")
    texts = [format_response("a", problem.golden_json), "not a netlist"]
    judged: List[str] = []
    parse_and_validate = evaluator._parse_and_validate

    def counting(problem, text):
        judged.append(text)
        return parse_and_validate(problem, text)

    monkeypatch.setattr(evaluator, "_parse_and_validate", counting)
    outcomes = evaluator.evaluate_responses([(problem, text) for text in texts * 3])
    assert sorted(judged) == sorted(texts)
    assert outcomes[0] is outcomes[2] is outcomes[4]
    assert outcomes[1] is outcomes[3] is outcomes[5]
    expected = [verdict(reference_evaluate_response(evaluator, problem, text)) for text in texts]
    assert [verdict(outcome) for outcome in outcomes] == expected * 3


def test_memo_is_keyed_by_problem_and_text():
    evaluator = make_evaluator()
    mzi, mzm = get_problem("mzi_ps"), get_problem("mzm")
    text = format_response("a", mzi.golden_json)
    assert evaluator.evaluate_response(mzi, text).functional_ok
    # The same text judged for another problem is not served from mzi_ps's entry.
    other = evaluator.evaluate_response(mzm, text)
    assert verdict(other) == verdict(reference_evaluate_response(evaluator, mzm, text))
    assert not other.functional_ok
    # A one-character change is a different draft.
    assert not evaluator.evaluate_response(mzi, text + "x").syntax_ok
    # Non-string texts and lone surrogates are judged like the reference, never crashed on.
    for hostile in (None, 42, "\udcff{", format_response("a", mzi.golden_json + "\ud800")):
        outcome = evaluator.evaluate_response(mzi, hostile)  # type: ignore[arg-type]
        assert verdict(outcome) == verdict(reference_evaluate_response(evaluator, mzi, hostile))


# ----------------------------------------------------------------------
# (b) Faults and crashes are never memoised
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "batched, batch_size",
    [(False, 1), (True, 1), (True, 4)],
    ids=["evaluate_response", "evaluate_responses-batch1", "evaluate_responses-batch4"],
)
def test_an_injected_solver_fault_is_never_memoised(batched, batch_size):
    evaluator = make_evaluator(batch_size=batch_size)
    problem = get_problem("mzi_ps")
    text = format_response("a", problem.golden_json)

    def judge() -> AttemptOutcome:
        if batched:
            (outcome,) = evaluator.evaluate_responses([(problem, text)])
            return outcome
        return evaluator.evaluate_response(problem, text)

    with inject(FaultRule(point="solver.evaluate", kind="raise")):
        faulted = judge()
        assert not faulted.syntax_ok and "FaultInjected" in faulted.error.detail
        assert judge() is not faulted
    assert evaluator._verdicts.stats.stores == 0
    healed = judge()
    assert healed.syntax_ok and healed.functional_ok
    assert judge() is healed


@pytest.mark.parametrize(
    "error, memoised",
    [
        (FaultInjected("injected"), False),
        (OSError("disk trouble"), False),
        (RuntimeError("unexpected crash"), False),
        (OtherSyntaxError("instance rejected its settings"), True),
        (UnknownModelError("model 'x' is not a built-in device"), True),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception) else str(value),
)
def test_only_classified_errors_are_memoised(monkeypatch, error, memoised):
    evaluator = make_evaluator()
    problem = get_problem("mzi_ps")
    text = format_response("a", problem.golden_json)

    def failing_evaluate(*args, **kwargs):
        raise error

    monkeypatch.setattr(evaluator.engine, "evaluate", failing_evaluate)
    first = evaluator.evaluate_response(problem, text)
    assert verdict(first) == verdict(reference_evaluate_response(evaluator, problem, text))
    assert (evaluator.evaluate_response(problem, text) is first) is memoised
    monkeypatch.undo()
    assert evaluator.evaluate_response(problem, text).functional_ok is not memoised


# ----------------------------------------------------------------------
# (c) Registry changes invalidate the memo
# ----------------------------------------------------------------------
def _waveguide_copy(name: str, func=None) -> ModelInfo:
    base = REGISTRY.get("waveguide")
    return ModelInfo(
        name=name,
        func=func if func is not None else base.func,
        description="A waveguide registered by the verdict-memo tests",
        input_ports=base.input_ports,
        output_ports=base.output_ports,
        parameters=dict(base.parameters),
    )


def test_registering_and_reregistering_a_model_invalidates_the_memo():
    evaluator = make_evaluator()
    problem = get_problem("mzi_ps")
    netlist = problem.golden_netlist()
    netlist.models["waveguide"] = "mywg"
    text = format_response("a", netlist.to_json())

    unknown = evaluator.evaluate_response(problem, text)
    assert unknown.error.category is ErrorCategory.UNDEFINED_MODEL
    assert evaluator.evaluate_response(problem, text) is unknown

    evaluator.engine.registry.register(_waveguide_copy("mywg"))
    passed = evaluator.evaluate_response(problem, text)
    assert passed.syntax_ok and passed.functional_ok

    def lossy(wavelengths, **settings):
        smatrix = REGISTRY.get("waveguide").func(wavelengths, **settings)
        return dataclasses.replace(smatrix, data=smatrix.data * 0.5)

    evaluator.engine.registry.register(_waveguide_copy("mywg", lossy))
    changed = evaluator.evaluate_response(problem, text)
    assert verdict(changed) == verdict(reference_evaluate_response(evaluator, problem, text))
    assert changed.syntax_ok and not changed.functional_ok


# ----------------------------------------------------------------------
# (d) One evaluator shared by many threads
# ----------------------------------------------------------------------
def test_a_shared_evaluator_under_eight_threads():
    problems = [get_problem(name) for name in ("mzi_ps", "clements_4x4", "benes_4x4", "wdm_demux")]
    items = [(problem, text) for problem in problems for text in drafts_of(problem)[:12]]
    reference = make_evaluator()
    expected = [verdict(reference_evaluate_response(reference, p, t)) for p, t in items]

    def work(evaluator, order_seed):
        order = list(range(len(items)))
        random.Random(order_seed).shuffle(order)
        found = [None] * len(items)
        if order_seed % 2:
            for position, outcome in zip(order, evaluator.evaluate_responses([items[i] for i in order])):
                found[position] = verdict(outcome)
        else:
            for position in order:
                found[position] = verdict(evaluator.evaluate_response(*items[position]))
        return found

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(2):
            evaluator = make_evaluator()
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(work, evaluator, seed) for seed in range(16)]
                results = [future.result(timeout=120) for future in futures]
            assert all(result == expected for result in results)
    finally:
        sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# (e) Designer drafts and public mutators
# ----------------------------------------------------------------------
#: One error per category (feedback the designer can act on), and one whose
#: category it cannot place.
FEEDBACK_ERRORS = [ERROR_CLASSES[category]("detail") for category in ErrorCategory] + [
    PICBenchError("an unplaceable failure", category=ErrorCategory.OTHER_SYNTAX)
]


DESIGNER_PROBLEMS = ("mzi_ps", "clements_4x4", "benes_8x8", "spanke_4x4", "optical_hybrid")


@pytest.mark.parametrize("profile", DEFAULT_PROFILES, ids=lambda profile: profile.name)
def test_designer_drafts_equal_the_reference(profile):
    problems = [get_problem(name) for name in DESIGNER_PROBLEMS]
    problems.append(get_pack("wdm-links").build_problems()[0])
    configs = [
        PromptConfig(),
        PromptConfig(include_restrictions=True),
        PromptConfig(
            include_restrictions=True,
            restriction_categories=[ErrorCategory.WRONG_PORT, ErrorCategory.DANGLING_PORT],
        ),
    ]
    for base_seed in (0, 7):
        designer = SimulatedDesigner(profile, base_seed=base_seed)
        for problem in problems:
            for config in configs:
                for seed in (0, 1, 2, 3):
                    messages = [
                        system(build_system_prompt(config=config)),
                        user(build_user_prompt(problem.description)),
                    ]
                    for iteration in range(4):
                        draft = designer.complete(messages, seed=seed)
                        assert draft == reference_complete(designer, messages, seed)
                        error = FEEDBACK_ERRORS[(3 * seed + iteration) % len(FEEDBACK_ERRORS)]
                        messages = messages + [
                            assistant(draft),
                            user(build_feedback(problem.name, error)),
                        ]


@pytest.mark.parametrize("problem", PACK_PROBLEMS)
def test_public_mutators_never_modify_their_input(problem):
    netlist = problem.golden_netlist()
    before = netlist.to_json()
    for seed in range(3):
        rng = np.random.default_rng(seed)
        assert apply_functional_mutation(netlist, rng, REGISTRY) is not netlist
        for category, mutator in SYNTAX_MUTATORS.items():
            assert mutator(netlist, rng).netlist is not netlist
            assert apply_syntax_mutation(netlist, category, rng).netlist is not netlist
        assert netlist.to_json() == before
    assert problem.shared_golden.to_json() == problem.golden_json == before
