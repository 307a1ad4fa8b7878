"""Compiled-plan cache and level-batched executor tests (PR 4).

Covers the compile/execute split of the solver: topology-fingerprint plan
caching (hit on settings-only change, miss on topology / mask / model
re-registration change), thread safety under the PR 1 scheduler, chunked
versus unchunked numerical identity, and <= 1e-9 equivalence of the levelled
executor -- its full schedule and its reciprocity cover -- against the dense
backend over every registered pack problem plus adversarial cyclic
topologies.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.bench.packs import get_pack, pack_names
from repro.engine.engine import EngineConfig, ExecutionEngine
from repro.engine.scheduler import TaskScheduler
from repro.netlist import Instance, Netlist
from repro.netlist.errors import BadComponentNameError, UndefinedModelError
from repro.sim import CircuitSolver, CompiledCircuit, SMatrix, compile_netlist
from repro.sim.plan import execute_cascade
from repro.sim.registry import ModelInfo, ModelRegistry, default_registry

EQUIVALENCE_ATOL = 1e-9


def _max_abs_diff(a, b):
    """Largest absolute element-wise deviation between two S-matrix arrays."""
    a = a.data if isinstance(a, SMatrix) else np.asarray(a)
    b = b.data if isinstance(b, SMatrix) else np.asarray(b)
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def _mzi_netlist(length=10.0):
    return Netlist(
        instances={
            "sp": Instance("mmi1x2"),
            "top": Instance("waveguide", {"length": length}),
            "bot": Instance("waveguide", {"length": 20.0}),
            "cm": Instance("mmi2x2"),
        },
        connections={
            "sp,O1": "top,I1",
            "sp,O2": "bot,I1",
            "top,O1": "cm,I1",
            "bot,O1": "cm,I2",
        },
        ports={"I1": "sp,I1", "O1": "cm,O1", "O2": "cm,O2"},
        models={
            "mmi1x2": "mmi1x2",
            "mmi2x2": "mmi2x2",
            "waveguide": "waveguide",
        },
    )


def _ring_netlist(coupling=0.2):
    return Netlist(
        instances={
            "cp": Instance("coupler", {"coupling": coupling}),
            "loop": Instance("waveguide", {"length": 31.4}),
        },
        connections={"cp,O2": "loop,I1", "loop,O1": "cp,I2"},
        ports={"I1": "cp,I1", "O1": "cp,O1"},
        models={"coupler": "coupler", "waveguide": "waveguide"},
    )


def _registered_pack_problems():
    """One pytest param per problem of every registered pack (default params)."""
    params = []
    for pack_name in pack_names():
        for problem in get_pack(pack_name).build_problems():
            params.append(pytest.param(problem, id=f"{pack_name}:{problem.name}"))
    return params


def _instance_matrices(netlist, wavelengths, registry):
    """Per-instance S-matrix data, independent of the solver's caches."""
    matrices = []
    for inst in netlist.instances.values():
        ref = netlist.models.get(inst.component, inst.component)
        matrices.append(registry.get(ref).evaluate(wavelengths, **inst.settings).data)
    return matrices


class TestPlanCacheKeying:
    def test_hit_on_settings_only_change(self, wavelengths):
        solver = CircuitSolver()
        solver.evaluate(_mzi_netlist(length=10.0), wavelengths)
        stats = solver.plan_cache_stats()
        assert stats.misses == 1
        first = solver.compile(_mzi_netlist(length=10.0), wavelengths)
        other = solver.compile(_mzi_netlist(length=55.5), wavelengths)
        assert other is first  # settings-only change reuses the cached plan
        assert solver.plan_cache_stats().misses == 1
        assert solver.plan_cache_stats().hits >= 2
        # ... and the results still differ (the plan carries no values).
        a = solver.evaluate(_mzi_netlist(length=10.0), wavelengths)
        b = solver.evaluate(_mzi_netlist(length=55.5), wavelengths)
        assert _max_abs_diff(a, b) > 1e-3

    def test_miss_on_topology_change(self, wavelengths):
        solver = CircuitSolver()
        base = solver.compile(_mzi_netlist(), wavelengths)
        rewired = _mzi_netlist()
        rewired.connections = dict(rewired.connections)
        rewired.connections.pop("top,O1")
        rewired.connections["top,O1"] = "cm,I2"
        rewired.connections["bot,O1"] = "cm,I1"
        other = solver.compile(rewired, wavelengths)
        assert other.fingerprint != base.fingerprint

    def test_miss_on_mask_change(self, wavelengths):
        # coupling=0 zeroes the cross terms: same topology, different
        # structural masks -- must compile a different plan.
        solver = CircuitSolver()
        a = solver.compile(_ring_netlist(coupling=0.2), wavelengths)
        b = solver.compile(_ring_netlist(coupling=0.0), wavelengths)
        assert a.fingerprint != b.fingerprint
        dense = solver.evaluate(_ring_netlist(coupling=0.0), wavelengths, backend="dense")
        cascade = solver.evaluate(
            _ring_netlist(coupling=0.0), wavelengths, backend="cascade"
        )
        assert _max_abs_diff(dense, cascade) <= EQUIVALENCE_ATOL

    def test_miss_on_model_reregistration(self, wavelengths):
        registry = ModelRegistry(default_registry())
        solver = CircuitSolver(registry=registry)
        base = solver.compile(_ring_netlist(), wavelengths)

        original = registry.get("waveguide")

        def replacement_waveguide(wl, **settings):
            """A re-registered waveguide implementation (new identity)."""
            return original.func(wl, **settings)

        registry.register(
            ModelInfo(
                name="waveguide",
                func=replacement_waveguide,
                description=original.description,
                input_ports=original.input_ports,
                output_ports=original.output_ports,
                parameters=original.parameters,
            )
        )
        other = solver.compile(_ring_netlist(), wavelengths)
        assert other.fingerprint != base.fingerprint
        assert "replacement_waveguide" in other.func_identities[1]

    def test_plan_cache_can_be_disabled(self, wavelengths):
        solver = CircuitSolver(plan_cache_entries=0)
        solver.evaluate(_mzi_netlist(), wavelengths)
        solver.evaluate(_mzi_netlist(), wavelengths)
        assert solver.plan_cache_stats().hits == 0

    def test_cascade_plan_shares_compiled_artifact(self, wavelengths):
        # Satellite fix: cascade_plan() followed by evaluate() must not
        # redo the structure work.
        solver = CircuitSolver()
        plan = solver.cascade_plan(_mzi_netlist(), wavelengths)
        assert plan.num_ports == 11
        assert solver.plan_cache_stats().misses == 1
        solver.evaluate(_mzi_netlist(), wavelengths, backend="cascade")
        assert solver.plan_cache_stats().misses == 1
        assert solver.plan_cache_stats().hits >= 1


class TestInstanceKeyMemoisation:
    def test_settings_fingerprint_memoised_across_calls(self, wavelengths, monkeypatch):
        import repro.sim.circuit as circuit_module

        calls = []
        original = circuit_module.settings_fingerprint

        def counting(settings):
            calls.append(settings)
            return original(settings)

        monkeypatch.setattr(circuit_module, "settings_fingerprint", counting)
        solver = CircuitSolver()
        netlist = _mzi_netlist()
        solver.evaluate(netlist, wavelengths)
        first = len(calls)
        assert first == netlist.num_instances()
        solver.evaluate(netlist, wavelengths)
        # Same Instance objects: fingerprints come from the memo.
        assert len(calls) == first

    def test_array_valued_settings_do_not_break_the_memo(self, wavelengths):
        # numpy-array settings make dict equality non-boolean; the memo must
        # skip, not crash, and the model's own error must surface each time.
        from repro.netlist.errors import OtherSyntaxError

        solver = CircuitSolver()
        netlist = _ring_netlist()
        netlist.instances["loop"].settings["length"] = np.array([10.0, 20.0])
        for _ in range(2):
            with pytest.raises(OtherSyntaxError):
                solver.evaluate(netlist, wavelengths)

    def test_in_place_settings_mutation_is_detected(self, wavelengths):
        # The memo guards by value equality, so mutating settings in place
        # must still produce fresh results.
        solver = CircuitSolver()
        netlist = _ring_netlist()
        before = solver.evaluate(netlist, wavelengths)
        netlist.instances["loop"].settings["length"] = 62.8
        after = solver.evaluate(netlist, wavelengths)
        assert _max_abs_diff(before, after) > 1e-6
        dense = solver.evaluate(netlist, wavelengths, backend="dense")
        assert _max_abs_diff(after, dense) <= EQUIVALENCE_ATOL


class TestValidationBehaviour:
    def test_invalid_netlist_raises_classified_error_every_time(self, wavelengths):
        solver = CircuitSolver()
        bad = _mzi_netlist()
        bad.instances = {"bad_name!": Instance("waveguide", {"length": 5.0})}
        bad.connections = {}
        bad.ports = {"I1": "bad_name!,I1", "O1": "bad_name!,O1"}
        for _ in range(2):
            with pytest.raises(BadComponentNameError):
                solver.evaluate(bad, wavelengths)

    def test_non_string_models_value_raises_classified_error(self, wavelengths):
        # An unhashable models-section value must surface as the classified
        # Table II error, not as a raw TypeError from the key memo.
        from repro.netlist.errors import PICBenchError

        solver = CircuitSolver()
        bad = _ring_netlist()
        bad.models = dict(bad.models)
        bad.models["waveguide"] = {"model": "waveguide"}
        for _ in range(2):
            with pytest.raises(PICBenchError):
                solver.evaluate(bad, wavelengths)

    def test_undefined_model_raises_classified_error(self, wavelengths):
        solver = CircuitSolver()
        bad = Netlist(
            instances={"x": Instance("warp_drive")},
            ports={"I1": "x,I1", "O1": "x,O1"},
            models={"warp_drive": "warp_drive"},
        )
        for _ in range(2):
            with pytest.raises(UndefinedModelError):
                solver.evaluate(bad, wavelengths)

    def test_settings_only_change_still_validates_clean(self, wavelengths):
        # Warm-path validation skipping must never change results or errors
        # for valid netlists.
        solver = CircuitSolver()
        solver.evaluate(_mzi_netlist(length=10.0), wavelengths)
        result = solver.evaluate(_mzi_netlist(length=11.0), wavelengths)
        assert result.num_ports == 3


class TestWavelengthBlocks:
    """The cascade sizes its own wavelength blocks; the block size bounds the
    executor's working set and never changes the result."""

    @pytest.mark.parametrize("name", ["mzi", "ring", "clements_4x4"])
    def test_self_sized_blocks_match_one_block(self, name, monkeypatch):
        from repro.bench import get_problem
        from repro.constants import default_wavelength_grid
        import repro.sim.plan as plan_module

        netlist = {
            "mzi": _mzi_netlist,
            "ring": _ring_netlist,
            "clements_4x4": lambda: get_problem("clements_4x4").golden_netlist(),
        }[name]()
        grid = default_wavelength_grid(41)
        whole = CircuitSolver().evaluate(netlist, grid, backend="cascade")
        # A one-byte workspace budget floors every group at 8-point blocks,
        # and the reciprocity mirror runs in 3-point blocks.
        monkeypatch.setattr(plan_module, "_WORKSPACE_TARGET_BYTES", 1)
        monkeypatch.setattr(plan_module, "_MIRROR_BLOCK", 3)
        solver = CircuitSolver()
        blocked = solver.evaluate(netlist, grid, backend="cascade")
        compiled = solver.compile(netlist, grid)
        for schedule in (compiled.schedule, compiled.cover_schedule):
            if schedule is not None:
                assert plan_module._auto_block(schedule, grid.size) < grid.size
        assert _max_abs_diff(whole, blocked) <= 1e-12

    @pytest.mark.parametrize("backend", ["dense", "cascade"])
    def test_single_point_grids_match_the_whole_grid(self, wavelengths, backend):
        solver = CircuitSolver()
        netlist = _ring_netlist()
        whole = solver.evaluate(netlist, wavelengths, backend=backend)
        for index in range(wavelengths.size):
            point = solver.evaluate(netlist, wavelengths[index : index + 1], backend=backend)
            assert _max_abs_diff(point.data[0], whole.data[index]) <= 1e-12


class TestLevelledExecutorEquivalence:
    @pytest.mark.parametrize("problem", _registered_pack_problems())
    def test_matches_dense_on_every_pack_problem(self, problem, wavelengths, solver):
        netlist = problem.golden_netlist()
        dense = solver.evaluate(
            netlist, wavelengths, port_spec=problem.port_spec, backend="dense"
        )
        compiled_result = solver.evaluate(
            netlist, wavelengths, port_spec=problem.port_spec, backend="cascade"
        )
        assert _max_abs_diff(dense, compiled_result) <= EQUIVALENCE_ATOL

        # The full schedule too: on reciprocal circuits the solver runs the
        # reciprocity cover whenever the plan has one.
        compiled = solver.compile(netlist, wavelengths, port_spec=problem.port_spec)
        matrices = _instance_matrices(netlist, wavelengths, solver.registry)
        full = execute_cascade(compiled, matrices, wavelengths.size)
        assert _max_abs_diff(dense, full) <= EQUIVALENCE_ATOL

    def test_asymmetric_device_disables_reciprocity_cover(self, wavelengths):
        # A non-reciprocal (isolator-like) device: the cover must not apply,
        # and the full schedule must still match dense.
        registry = ModelRegistry(default_registry())
        base = registry.get("waveguide")

        def isolator(wl, **settings):
            """One-way waveguide: forward transmission only."""
            sm = base.func(wl, **settings)
            data = sm.data.copy()
            data[:, 0, 1] = 0.0  # kill the backward path
            return SMatrix(sm.wavelengths, sm.ports, data)

        registry.register(
            ModelInfo(
                name="isolator",
                func=isolator,
                description="one-way waveguide",
                input_ports=base.input_ports,
                output_ports=base.output_ports,
                parameters=base.parameters,
            )
        )
        netlist = Netlist(
            instances={
                "sp": Instance("mmi1x2"),
                "iso": Instance("isolator", {"length": 12.0}),
                "wg": Instance("waveguide", {"length": 7.0}),
            },
            connections={"sp,O1": "iso,I1", "sp,O2": "wg,I1"},
            ports={"I1": "sp,I1", "O1": "iso,O1", "O2": "wg,O1"},
            models={"mmi1x2": "mmi1x2", "isolator": "isolator", "waveguide": "waveguide"},
        )
        solver = CircuitSolver(registry=registry)
        dense = solver.evaluate(netlist, wavelengths, backend="dense")
        cascade = solver.evaluate(netlist, wavelengths, backend="cascade")
        assert _max_abs_diff(dense, cascade) <= EQUIVALENCE_ATOL

    def test_all_isolated_external_instances_compile(self, wavelengths, solver):
        # Every external port sits on an isolated instance, beside a
        # 140-waveguide chain no injection reaches: the schedule keeps only
        # the external rows, has no level steps, and must still compile
        # and match dense.
        instances = {
            "extA": Instance("waveguide", {"length": 5.0}),
            "extB": Instance("waveguide", {"length": 6.0}),
        }
        connections = {}
        for i in range(140):
            instances[f"wg{i}"] = Instance("waveguide", {"length": float(i + 1)})
        for i in range(139):
            connections[f"wg{i},O1"] = f"wg{i + 1},I1"
        netlist = Netlist(
            instances=instances,
            connections=connections,
            ports={
                "I1": "extA,I1",
                "O1": "extA,O1",
                "I2": "extB,I1",
                "O2": "extB,O1",
            },
            models={"waveguide": "waveguide"},
        )
        dense = solver.evaluate(netlist, wavelengths, backend="dense")
        cascade = solver.evaluate(netlist, wavelengths, backend="cascade")
        assert _max_abs_diff(dense, cascade) <= EQUIVALENCE_ATOL

    def test_compile_netlist_function_standalone(self, wavelengths, registry):
        netlist = _ring_netlist()
        matrices = {}
        for name, inst in netlist.instances.items():
            ref = netlist.models.get(inst.component, inst.component)
            matrices[name] = registry.get(ref).evaluate(wavelengths, **inst.settings)
        compiled = compile_netlist(netlist, matrices)
        assert isinstance(compiled, CompiledCircuit)
        assert compiled.supports_cascade
        assert compiled.num_ports == 6
        assert compiled.plan is not None and len(compiled.plan.feedback) == 2


class TestThreadSafety:
    def test_shared_solver_under_pr1_scheduler(self, wavelengths):
        from repro.bench import get_problem

        solver = CircuitSolver()
        netlists = [
            _mzi_netlist(length=float(10 + i)) for i in range(8)
        ] + [
            _ring_netlist(coupling=0.1 * (i + 1)) for i in range(4)
        ] + [get_problem("clements_4x4").golden_netlist()] * 4
        expected = [solver.evaluate(n, wavelengths).data for n in netlists]

        fresh = CircuitSolver()
        scheduler = TaskScheduler(workers=4)
        results = scheduler.map(lambda n: fresh.evaluate(n, wavelengths).data, netlists * 3)
        for index, result in enumerate(results):
            assert _max_abs_diff(result, expected[index % len(netlists)]) <= 1e-12
        assert fresh.plan_cache_stats().hits > 0


class TestPlanSpill:
    def test_plans_spill_to_disk_and_warm_new_solvers(self, wavelengths, tmp_path):
        netlist = _ring_netlist()
        cold = CircuitSolver(plan_dir=tmp_path)
        expected = cold.evaluate(netlist, wavelengths, backend="cascade")
        spilled = list(tmp_path.glob("plan-*.pkl"))
        assert spilled, "compiled plans must be persisted under plan_dir"

        warm = CircuitSolver(plan_dir=tmp_path)
        result = warm.evaluate(netlist, wavelengths, backend="cascade")
        assert _max_abs_diff(result, expected) <= 1e-12
        assert warm.plan_cache_stats().disk_hits > 0
        assert warm.plan_cache_stats().misses == 0 or warm.plan_cache_stats().hits >= 0

    def test_corrupt_spilled_plan_recompiles(self, wavelengths, tmp_path):
        netlist = _ring_netlist()
        cold = CircuitSolver(plan_dir=tmp_path)
        expected = cold.evaluate(netlist, wavelengths, backend="cascade")
        for path in tmp_path.glob("plan-*.pkl"):
            path.write_bytes(b"not a pickle")
        warm = CircuitSolver(plan_dir=tmp_path)
        result = warm.evaluate(netlist, wavelengths, backend="cascade")
        assert _max_abs_diff(result, expected) <= 1e-12
        assert warm.plan_cache_stats().disk_hits == 0

    def test_spill_of_the_older_plan_layout_is_recompiled(self, wavelengths, tmp_path):
        # Plans used to spill as plan-<fingerprint>.pkl with one schedule
        # per reachability column group.  The fingerprint still matches,
        # so only the layout tag in the spill name keeps such a file from
        # reaching the executor.
        from repro.bench import get_problem

        netlist = get_problem("clements_4x4").golden_netlist()
        compiled = CircuitSolver().compile(netlist, wavelengths)
        state = {
            field.name: getattr(compiled, field.name)
            for field in dataclasses.fields(CompiledCircuit)
            if field.name not in ("schedule", "cover_schedule")
        }
        state.update(
            groups=(compiled.schedule,),
            cover_groups=None,
            num_edges=compiled.schedule.num_edges,
        )
        older = object.__new__(CompiledCircuit)
        older.__dict__.update(state)
        (tmp_path / f"plan-{compiled.fingerprint}.pkl").write_bytes(pickle.dumps(older))

        solver = CircuitSolver(plan_dir=tmp_path)
        result = solver.evaluate(netlist, wavelengths)
        assert solver.plan_cache_stats().disk_hits == 0
        dense = CircuitSolver(backend="dense").evaluate(netlist, wavelengths)
        assert _max_abs_diff(result, dense) <= EQUIVALENCE_ATOL

    def test_bad_plan_dir_rejected(self, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("a file, not a directory")
        with pytest.raises(ValueError, match="plan_dir"):
            CircuitSolver(plan_dir=target)

    def test_engine_resolves_plan_dir_under_cache_dir(self, tmp_path, wavelengths):
        engine = ExecutionEngine(EngineConfig(cache_dir=tmp_path))
        assert engine.config.resolved_plan_dir() == tmp_path / "plans"
        engine.evaluate(_ring_netlist(), wavelengths)
        assert list((tmp_path / "plans").glob("plan-*.pkl"))


class TestKnobPlumbing:
    def test_engine_cache_key_is_plan_invariant(self, wavelengths):
        # Engine cache keys must not depend on the solver's plan cache.
        netlist = _ring_netlist()
        a = ExecutionEngine(solver=CircuitSolver(plan_cache_entries=0))
        b = ExecutionEngine()
        assert a.simulation_key(netlist, wavelengths) == b.simulation_key(
            netlist, wavelengths
        )
        assert _max_abs_diff(
            a.evaluate(netlist, wavelengths), b.evaluate(netlist, wavelengths)
        ) <= 1e-12
