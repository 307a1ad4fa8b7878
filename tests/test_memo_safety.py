"""Safety of the per-problem, per-registry and lookup memos of the evaluation loop.

Each :class:`~repro.bench.problem.Problem` builds its golden netlist, golden
fingerprint and complexity once and shares them; the designer and the golden
store only read the shared golden.  These tests check that nothing writes to
it, that rebuilding a pack starts fresh memos, that the memoised API document
follows registry changes, and that cached golden arrays are read-only.  The
description lookup and the designer's restriction and difficulty memos must
answer what an unmemoised computation answers.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from repro.bench import suite
from repro.bench.packs import ProblemPack, pack_names, register_pack, unregister_pack
from repro.bench.problem import Category, Problem
from repro.bench.problems.fundamental import mzi_ps_golden
from repro.bench.suite import all_problems, find_problem_by_description, get_problem
from repro.engine.fingerprint import netlist_fingerprint
from repro.harness.runner import SweepConfig, run_sweep
from repro.llm.base import system, user
from repro.llm.mutations import SYNTAX_MUTATORS, apply_functional_mutation
from repro.llm.simulated import SimulatedDesigner
from repro.netlist import ErrorCategory, Instance, Netlist, PortSpec
from repro.prompts import PromptConfig, build_system_prompt, build_user_prompt
from repro.prompts.restrictions import RESTRICTIONS
from repro.sim import compare_responses, evaluate_netlist
from repro.sim.analysis import FrequencyResponse
from repro.sim.registry import ModelInfo, default_registry


def _assert_memo_intact(problem: Problem) -> None:
    fresh = netlist_fingerprint(problem.golden_factory())
    assert netlist_fingerprint(problem.shared_golden) == fresh
    assert problem.golden_fingerprint == fresh
    assert problem.complexity == problem.golden_factory().num_instances()


class TestGoldenMemo:
    def test_golden_netlist_returns_independent_copies(self):
        problem = get_problem("clements_4x4")
        first, second = problem.golden_netlist(), problem.golden_netlist()
        assert first is not second and first is not problem.shared_golden
        assert first.to_json() == second.to_json() == problem.golden_factory().to_json()
        first.instances["mzi1"].settings["theta"] = 1.0
        first.instances.pop("mzi2")
        first.connections.clear()
        first.ports["I9"] = "mzi1,I1"
        first.models["mzi2x2"] = "waveguide"
        assert second.to_json() == problem.golden_factory().to_json()
        _assert_memo_intact(problem)

    def test_copy_shares_only_immutable_settings_values(self):
        netlist = Netlist(
            instances={"a": Instance("waveguide", {"length": 5.0, "taps": [1, 2]})},
            ports={"I1": "a,I1", "O1": "a,O1"},
        )
        copy = netlist.copy()
        settings = copy.instances["a"].settings
        assert settings == netlist.instances["a"].settings
        assert settings is not netlist.instances["a"].settings
        assert settings["taps"] is not netlist.instances["a"].settings["taps"]
        settings["taps"].append(3)
        assert netlist.instances["a"].settings["taps"] == [1, 2]

    def test_memos_are_built_once(self):
        problem = get_problem("benes_8x8")
        assert problem.shared_golden is problem.shared_golden
        assert problem.golden_fingerprint is problem.golden_fingerprint

    @pytest.mark.parametrize("name", ["clements_4x4", "mzi_ps", "spanke_4x4"])
    def test_every_mutator_and_a_sweep_leave_the_golden_unchanged(self, name):
        problem = get_problem(name)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            apply_functional_mutation(problem.shared_golden, rng)
            for mutator in SYNTAX_MUTATORS.values():
                mutator(problem.shared_golden, rng)
        _assert_memo_intact(problem)
        result = run_sweep(
            SweepConfig(problems=(name,), samples_per_problem=3, num_wavelengths=11)
        )
        attempts = [
            attempt
            for report in result.reports.values()
            for samples in report.results.values()
            for sample in samples
            for attempt in sample.attempts
        ]
        assert any(not attempt.syntax_ok for attempt in attempts)
        _assert_memo_intact(problem)

    def test_reregistering_a_pack_gives_fresh_memos(self):
        def make_pack(delta_length):
            def build(params):
                return [
                    Problem(
                        name="memo_mzi",
                        title="Memo MZI",
                        category=Category.FUNDAMENTAL_DEVICES,
                        summary="An MZI whose golden changes between registrations.",
                        description=f"Memo test MZI, delta_length {delta_length}.",
                        golden_factory=lambda: mzi_ps_golden(delta_length=delta_length),
                        port_spec=PortSpec(1, 1),
                    )
                ]

            return ProblemPack(
                name="memo-test",
                title="Memo test",
                description="A pack re-registered by the memo tests.",
                categories=(Category.FUNDAMENTAL_DEVICES,),
                builder=build,
            )

        register_pack(make_pack(10.0), replace_existing=True)
        try:
            old = get_problem("memo_mzi", "memo-test")
            old_fingerprint = old.golden_fingerprint
            register_pack(make_pack(25.0), replace_existing=True)
            new = get_problem("memo_mzi", "memo-test")
            assert new is not old
            assert new.golden_fingerprint != old_fingerprint
            assert new.golden_fingerprint == netlist_fingerprint(mzi_ps_golden(delta_length=25.0))
            assert old.golden_fingerprint == old_fingerprint
        finally:
            unregister_pack("memo-test")


class TestRegistryMemo:
    def test_register_changes_the_api_document_and_system_prompt(self):
        registry = default_registry()
        document = registry.api_document()
        prompt = build_system_prompt(registry)
        assert registry.api_document() is document
        base = registry.get("waveguide")
        registry.register(
            ModelInfo(
                name="memo_wire",
                func=base.func,
                description="A waveguide registered by the memo tests",
                input_ports=base.input_ports,
                output_ports=base.output_ports,
                parameters=dict(base.parameters),
            )
        )
        assert "memo_wire:" in registry.api_document()
        assert "memo_wire:" not in document
        assert "memo_wire:" in build_system_prompt(registry)
        assert build_system_prompt(registry) != prompt


class TestGoldenArrays:
    def test_cached_golden_arrays_are_read_only(self, golden_store):
        response = golden_store.response_for(get_problem("spanke_4x4"))
        power = response.power
        assert power.flags.writeable is False
        assert power.shape == (len(response.transmission), response.wavelengths.size)
        with pytest.raises(ValueError):
            power[0, 0] = 1.0
        for row, pair in zip(power, response.pairs):
            np.testing.assert_array_equal(row, response.transmission[pair])


def test_concurrent_first_use_of_every_memo(wavelengths):
    """Many threads hit cold memos at once; each must see what one thread sees."""
    names = ("clements_8x8", "spanke_4x4", "mzi_ps", "benes_4x4")
    golden_smatrix = evaluate_netlist(get_problem("spanke_4x4").golden_netlist(), wavelengths)
    candidate = evaluate_netlist(get_problem("crossbar_4x4").golden_netlist(), wavelengths)

    def cold_state():
        # Fresh problem objects, registry, designer and golden response:
        # every memo starts empty.
        return (
            [replace(get_problem(name)) for name in names],
            default_registry(),
            SimulatedDesigner("GPT-4"),
            FrequencyResponse.from_smatrix(golden_smatrix),
        )

    def work(state):
        problems, registry, designer, golden = state
        facts = [
            (p.golden_fingerprint, p.complexity, p.shared_golden.to_json(), designer._aptitude(p))
            for p in problems
        ]
        return facts, registry.api_document(), compare_responses(candidate, golden)

    expected = work(cold_state())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            state = cold_state()
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(work, state) for _ in range(16)]
                results = [future.result(timeout=60) for future in futures]
            assert all(result == expected for result in results)
            for problem in state[0]:
                _assert_memo_intact(problem)
    finally:
        sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# Problem lookup by description and the designer's memos
# ----------------------------------------------------------------------
def reference_find_problem_by_description(text):
    """The unmemoised scan of :func:`find_problem_by_description`."""
    with suite._CACHE_LOCK:
        built = [problems for _, problems in sorted(suite._CACHE.items())]
    candidates = [p for problems in built for p in problems]
    for pack in pack_names():
        candidates.extend(all_problems(pack))
    for problem in candidates:
        description = problem.description.strip()
        if description and description in text:
            return problem
    return None


def forget_descriptions():
    with suite._CACHE_LOCK:
        suite._forget_descriptions()


def assert_lookup_matches_reference(text):
    # The first call may scan while default suites are still being built.
    for _ in range(2):
        found = find_problem_by_description(text)
        assert found is reference_find_problem_by_description(text)
    return found


def lookup_pack(description):
    """A one-problem pack whose problem name records the build's ``variant``."""

    def build(params):
        return [
            Problem(
                name=f"lookup_{params['variant']}",
                title="Lookup MZI",
                category=Category.FUNDAMENTAL_DEVICES,
                summary="An MZI the description-lookup tests search for.",
                description=description,
                golden_factory=mzi_ps_golden,
                port_spec=PortSpec(1, 1),
            )
        ]

    return ProblemPack(
        name="lookup-test",
        title="Lookup test",
        description="A pack registered by the description-lookup tests.",
        categories=(Category.FUNDAMENTAL_DEVICES,),
        builder=build,
        default_params={"variant": 1},
    )


class TestDescriptionMemo:
    def test_reregistering_a_pack_with_a_changed_description_finds_the_new_problem(self):
        old_text = build_user_prompt("Lookup test MZI, first description.")
        new_text = build_user_prompt("Lookup test MZI, second description.")
        register_pack(lookup_pack("Lookup test MZI, first description."), replace_existing=True)
        try:
            old = assert_lookup_matches_reference(old_text)
            assert old is not None and old.name == "lookup_1"
            assert find_problem_by_description(old_text) is old
            assert find_problem_by_description(new_text) is None
            register_pack(lookup_pack("Lookup test MZI, second description."), replace_existing=True)
            new = assert_lookup_matches_reference(new_text)
            assert new is not None and new is not old
            assert new.description == "Lookup test MZI, second description."
            assert assert_lookup_matches_reference(old_text) is None
        finally:
            unregister_pack("lookup-test")
        assert assert_lookup_matches_reference(new_text) is None

    def test_building_a_parameterised_suite_re_resolves_a_lookup(self):
        text = build_user_prompt("Lookup test MZI, parameterised.")
        register_pack(lookup_pack("Lookup test MZI, parameterised."), replace_existing=True)
        try:
            assert assert_lookup_matches_reference(text).name == "lookup_1"
            # The override's suite sorts before the default build, so the
            # scan now finds its problem first.
            overridden = all_problems("lookup-test", {"variant": 0})
            found = assert_lookup_matches_reference(text)
            assert found is overridden[0] and found.name == "lookup_0"
        finally:
            unregister_pack("lookup-test")

    def test_unknown_text_returns_none(self):
        for _ in range(3):
            assert find_problem_by_description("no benchmark problem is described here") is None
        assert find_problem_by_description("") is None

    def test_a_lookup_racing_a_suite_build_stores_nothing(self, monkeypatch):
        text = build_user_prompt("Lookup test MZI, raced.")
        register_pack(lookup_pack("Lookup test MZI, raced."), replace_existing=True)
        try:
            assert assert_lookup_matches_reference(text).name == "lookup_1"
            forget_descriptions()
            real_pack_names = suite.pack_names

            def pack_names_then_build():
                # Another suite enters the cache while the lookup scans.
                all_problems("lookup-test", {"variant": 0})
                return real_pack_names()

            monkeypatch.setattr(suite, "pack_names", pack_names_then_build)
            # This scan began before the override's suite existed, so its
            # answer is not stored; the next lookup finds the override.
            assert find_problem_by_description(text).name == "lookup_1"
            assert text not in suite._DESCRIPTION_MEMO
            monkeypatch.setattr(suite, "pack_names", real_pack_names)
            assert assert_lookup_matches_reference(text).name == "lookup_0"
            assert suite._DESCRIPTION_MEMO[text].name == "lookup_0"
        finally:
            unregister_pack("lookup-test")


def restriction_subset_messages(categories):
    config = PromptConfig(include_restrictions=True, restriction_categories=categories)
    return [
        system(build_system_prompt(config=config)),
        user(build_user_prompt(get_problem("mzi_ps").description)),
    ]


class TestDesignerMemos:
    def test_a_restriction_subset_gives_only_those_categories(self):
        subset = (ErrorCategory.UNDEFINED_MODEL, ErrorCategory.WRONG_PORT)
        designer = SimulatedDesigner("GPT-4")
        for _ in range(2):
            assert designer._active_restrictions(restriction_subset_messages(subset)) == frozenset(subset)

    def test_one_designer_keeps_separate_entries_for_two_system_prompts(self):
        designer = SimulatedDesigner("GPT-4")
        without = restriction_subset_messages(())
        every = restriction_subset_messages(None)
        all_categories = frozenset(restriction.category for restriction in RESTRICTIONS)
        for _ in range(2):
            assert designer._active_restrictions(without) == frozenset()
            assert designer._active_restrictions(every) == all_categories
        assert len(designer._restriction_sets) == 2
        assert SimulatedDesigner("GPT-4")._active_restrictions(every) == all_categories

    def test_difficulty_is_memoised_per_name_and_complexity(self):
        designer = SimulatedDesigner("GPT-4")
        small = get_problem("clements_4x4")
        large = replace(small, golden_factory=get_problem("clements_8x8").golden_factory)
        assert large.complexity > small.complexity
        first = designer._difficulty(small)
        assert designer._difficulty(large) > first
        assert designer._difficulty(small) == first
        assert designer._difficulty(large) == SimulatedDesigner("GPT-4")._difficulty(large)


def test_concurrent_first_use_of_the_lookup_and_designer_memos():
    """Threads hit a cleared description memo and fresh designers at once."""
    problems = [get_problem(name) for name in ("clements_8x8", "mzi_ps", "benes_4x4")]
    problems += [get_problem("wdm_link_2ch", "wdm-links")]
    configs = [PromptConfig(), PromptConfig(include_restrictions=True)]

    def conversations():
        for problem in problems:
            for config in configs:
                yield problem, [
                    system(build_system_prompt(config=config)),
                    user(build_user_prompt(problem.description)),
                ]

    def work(designer):
        return [
            (
                find_problem_by_description(messages[1].content).name,
                designer._active_restrictions(messages),
                designer._difficulty(problem),
                designer.complete(messages, seed=3),
            )
            for problem, messages in conversations()
        ]

    def cold_designer():
        forget_descriptions()
        return SimulatedDesigner("GPT-4")

    expected = work(cold_designer())
    assert [facts[0] for facts in expected] == [p.name for p in problems for _ in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            designer = cold_designer()
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(work, designer) for _ in range(16)]
                results = [future.result(timeout=60) for future in futures]
            assert all(result == expected for result in results)
            assert len(designer._restriction_sets) == len(configs)
    finally:
        sys.setswitchinterval(interval)
