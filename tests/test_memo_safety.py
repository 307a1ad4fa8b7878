"""Safety of the per-problem and per-registry memos of the evaluation loop.

Each :class:`~repro.bench.problem.Problem` builds its golden netlist, golden
fingerprint and complexity once and shares them; the designer and the golden
store only read the shared golden.  These tests check that nothing writes to
it, that rebuilding a pack starts fresh memos, that the memoised API document
follows registry changes, and that cached golden arrays are read-only.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from repro.bench.packs import ProblemPack, register_pack, unregister_pack
from repro.bench.problem import Category, Problem
from repro.bench.problems.fundamental import mzi_ps_golden
from repro.bench.suite import get_problem
from repro.engine.fingerprint import netlist_fingerprint
from repro.harness.runner import SweepConfig, run_sweep
from repro.llm.mutations import SYNTAX_MUTATORS, apply_functional_mutation
from repro.llm.simulated import SimulatedDesigner
from repro.netlist import Instance, Netlist, PortSpec
from repro.prompts import build_system_prompt
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
