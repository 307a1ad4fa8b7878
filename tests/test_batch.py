"""Tests for the batched settings-axis execution path.

Covers the solver's ``evaluate_batch`` (<= 1e-9 equivalence with the
per-sample loop over every problem of every registered pack, topology-group
splitting on mask changes, error classification, non-finite settings, empty
overrides), the engine's batch-aware cache keys (batched results hit -- and
seed -- per-sample entries), the plan-cache/batch interaction (no duplicate
or spurious plan entries, batch hit rates in ``stats()``) and the
``default_solver`` concurrency regression.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.bench.packs import get_pack, pack_names
from repro.engine import ExecutionEngine, TaskScheduler, stats_delta
from repro.netlist import Instance, Netlist
from repro.netlist.errors import OtherSyntaxError
from repro.sim import (
    CircuitSolver,
    apply_settings,
    batch_evaluate_model,
    default_registry,
    evaluate_netlist,
)
from repro.sim.batch import fuse_sample_matrices, merged_instance_settings
from repro.sim.circuit import default_solver

EQUIVALENCE_ATOL = 1e-9


def _max_abs_diff(a, b):
    """Largest absolute element-wise deviation between two S-matrices."""
    return float(np.max(np.abs(a.data - b.data))) if a.data.size else 0.0


def _registered_pack_problems():
    """One pytest param per problem of every registered pack (default params)."""
    params = []
    for pack_name in pack_names():
        for problem in get_pack(pack_name).build_problems():
            params.append(pytest.param(problem, id=f"{pack_name}:{problem.name}"))
    return params


def _perturbing_batch(netlist, num_samples=3, scale=1e-3):
    """Settings overrides scaling every float setting, preserving zeros/masks."""
    batch = []
    for sample in range(num_samples):
        overrides = {}
        for name, inst in netlist.instances.items():
            perturbed = {
                key: value * (1.0 - scale * (sample + 1))
                for key, value in inst.settings.items()
                if isinstance(value, float) and not isinstance(value, bool)
            }
            if perturbed:
                overrides[name] = perturbed
        batch.append(overrides)
    return batch


def _ring_netlist():
    """All-pass ring: coupler + feedback waveguide (one feedback cluster)."""
    return Netlist(
        instances={
            "cp": Instance("coupler", {"coupling": 0.2}),
            "loop": Instance("waveguide", {"length": 31.4}),
        },
        connections={"cp,O2": "loop,I1", "loop,O1": "cp,I2"},
        ports={"I1": "cp,I1", "O1": "cp,O1"},
        models={"coupler": "coupler", "waveguide": "waveguide"},
    )


def _shifter_netlist():
    """A single phase shifter (vectorisable model: array ``phase`` works)."""
    return Netlist(
        instances={"ps": Instance("phase_shifter", {"phase": 0.0, "length": 10.0})},
        ports={"I1": "ps,I1", "O1": "ps,O1"},
        models={"phase_shifter": "phase_shifter"},
    )


# ----------------------------------------------------------------------
# batch.py primitives
# ----------------------------------------------------------------------
class TestApplySettings:
    def test_merge_keeps_unlisted_settings(self):
        netlist = _ring_netlist()
        derived = apply_settings(netlist, {"cp": {"coupling": 0.4}})
        assert derived.instances["cp"].settings == {"coupling": 0.4}
        assert derived.instances["loop"].settings == {"length": 31.4}

    def test_merge_adds_new_keys(self):
        derived = apply_settings(_ring_netlist(), {"loop": {"loss_db_cm": 1.0}})
        assert derived.instances["loop"].settings == {"length": 31.4, "loss_db_cm": 1.0}

    def test_unknown_instance_raises(self):
        with pytest.raises(KeyError, match="unknown instance"):
            apply_settings(_ring_netlist(), {"nope": {"coupling": 0.5}})

    def test_derived_netlist_is_independent(self):
        base = _ring_netlist()
        derived = apply_settings(base, {"cp": {"coupling": 0.9}})
        derived.instances["loop"].settings["length"] = 1.0
        derived.connections["extra"] = "x"
        assert base.instances["loop"].settings == {"length": 31.4}
        assert "extra" not in base.connections

    def test_merged_instance_settings_covers_all_instances(self):
        merged = merged_instance_settings(_ring_netlist(), {"cp": {"coupling": 0.7}})
        assert set(merged) == {"cp", "loop"}
        assert merged["cp"] == {"coupling": 0.7}


class TestBatchEvaluateModel:
    def test_vectorised_path_for_array_capable_model(self, wavelengths, registry):
        info = registry.get("phase_shifter")
        variants = [{"phase": 0.1 * k, "length": 10.0} for k in range(4)]
        smatrices, vectorised = batch_evaluate_model(info, wavelengths, variants)
        assert vectorised
        for smatrix, settings in zip(smatrices, variants):
            reference = info.evaluate(wavelengths, **settings)
            assert np.array_equal(smatrix.data, reference.data)

    def test_vectorised_path_for_array_capable_switch(self, wavelengths, registry):
        # The switch models accept array extinction stacks (their scalar
        # guards were made elementwise for the batched executor).
        info = registry.get("switch1x2")
        variants = [{"extinction_db": 50.0 + k} for k in range(3)]
        smatrices, vectorised = batch_evaluate_model(info, wavelengths, variants)
        assert vectorised
        for smatrix, settings in zip(smatrices, variants):
            assert np.array_equal(smatrix.data, info.evaluate(wavelengths, **settings).data)

    def test_loop_fallback_for_scalar_only_model(self, wavelengths, registry):
        # mzi2x2 assembles its transfer matrix in a scalar-only loop, which
        # fails on array parameters and must select the loop fallback.
        info = registry.get("mzi2x2")
        variants = [{"theta": 0.2}, {"theta": 0.7}]
        smatrices, vectorised = batch_evaluate_model(info, wavelengths, variants)
        assert not vectorised
        for smatrix, settings in zip(smatrices, variants):
            assert np.array_equal(smatrix.data, info.evaluate(wavelengths, **settings).data)

    def test_single_variant_skips_vectorisation(self, wavelengths, registry):
        info = registry.get("phase_shifter")
        smatrices, vectorised = batch_evaluate_model(info, wavelengths, [{"phase": 0.5}])
        assert not vectorised
        assert len(smatrices) == 1

    def test_invalid_variant_raises_like_scalar_path(self, wavelengths, registry):
        info = registry.get("coupler")
        with pytest.raises(ValueError, match="coupling"):
            batch_evaluate_model(info, wavelengths, [{"coupling": 0.5}, {"coupling": 3.0}])

    def test_non_finite_variant_raises_like_scalar_path(self, wavelengths, registry):
        # The stacked array holds the NaN, so the vectorised attempt is
        # rejected and the scalar loop names the offending setting.
        info = registry.get("phase_shifter")
        with pytest.raises(ValueError, match="'phase' must be a finite number"):
            batch_evaluate_model(
                info, wavelengths, [{"phase": 0.5}, {"phase": float("nan")}, {"phase": 0.7}]
            )

    def test_array_collapsing_model_falls_back(self, wavelengths):
        # Regression: a model that silently collapses an array parameter to
        # one scalar (no exception, right output shape) must be caught by
        # the endpoint guards and fall back to the scalar loop.
        from repro.sim import ModelInfo, SMatrix

        def collapsing(grid, *, a=1.0):
            """Buggy model: uses only the first element of an array ``a``."""
            value = float(np.asarray(a, dtype=float).reshape(-1)[0])
            grid = np.atleast_1d(np.asarray(grid, dtype=float))
            data = np.zeros((grid.size, 2, 2), dtype=complex)
            data[:, 1, 0] = data[:, 0, 1] = value
            return SMatrix(grid, ("I1", "O1"), data)

        info = ModelInfo("collapse", collapsing, "buggy", ("I1",), ("O1",), {"a": 1.0})
        variants = [{"a": 1.0}, {"a": 0.5}, {"a": 0.25}]
        smatrices, vectorised = batch_evaluate_model(info, wavelengths, variants)
        assert not vectorised
        for smatrix, settings in zip(smatrices, variants):
            assert np.array_equal(smatrix.data, collapsing(wavelengths, **settings).data)


class TestFuseSampleMatrices:
    def test_fuses_sample_major(self):
        a = np.arange(8, dtype=complex).reshape(2, 2, 2)
        b = a + 100.0
        fused = fuse_sample_matrices([[a], [b]], 2)
        assert fused[0].shape == (4, 2, 2)
        assert np.array_equal(fused[0][:2], a)
        assert np.array_equal(fused[0][2:], b)

    def test_shared_array_objects_are_tiled(self):
        a = np.arange(8, dtype=complex).reshape(2, 2, 2)
        fused = fuse_sample_matrices([[a], [a], [a]], 2)
        assert fused[0].shape == (6, 2, 2)
        assert np.array_equal(fused[0][4:], a)


# ----------------------------------------------------------------------
# Solver: evaluate_batch
# ----------------------------------------------------------------------
class TestSolverEvaluateBatch:
    @pytest.mark.parametrize("problem", _registered_pack_problems())
    def test_matches_per_sample_loop_on_every_pack_problem(
        self, problem, wavelengths, solver
    ):
        netlist = problem.golden_netlist()
        batch = _perturbing_batch(netlist)
        batched = solver.evaluate_batch(
            netlist, batch, wavelengths, port_spec=problem.port_spec
        )
        for overrides, result in zip(batch, batched):
            loop = solver.evaluate(
                apply_settings(netlist, overrides),
                wavelengths,
                port_spec=problem.port_spec,
            )
            assert result.ports == loop.ports
            assert _max_abs_diff(result, loop) <= EQUIVALENCE_ATOL

    @pytest.mark.parametrize("backend", ["dense", "cascade", "auto"])
    def test_backend_override_matches_loop_on_feedback_cluster(
        self, backend, wavelengths
    ):
        solver = CircuitSolver()
        netlist = _ring_netlist()
        batch = [
            {"cp": {"coupling": 0.1 + 0.2 * k}, "loop": {"length": 30.0 + k}}
            for k in range(3)
        ]
        batched = solver.evaluate_batch(netlist, batch, wavelengths, backend=backend)
        for overrides, result in zip(batch, batched):
            loop = solver.evaluate(
                apply_settings(netlist, overrides), wavelengths, backend=backend
            )
            assert _max_abs_diff(result, loop) <= EQUIVALENCE_ATOL

    def test_empty_batch_returns_empty_list(self, wavelengths):
        assert CircuitSolver().evaluate_batch(_ring_netlist(), [], wavelengths) == []

    def test_results_preserve_sample_order(self, wavelengths):
        solver = CircuitSolver()
        netlist = _shifter_netlist()
        batch = [{"ps": {"phase": 0.3 * k}} for k in range(5)]
        results = solver.evaluate_batch(netlist, batch, wavelengths)
        for overrides, result in zip(batch, results):
            loop = solver.evaluate(apply_settings(netlist, overrides), wavelengths)
            assert np.array_equal(result.data, loop.data)

    def test_mask_change_splits_into_topology_groups(self, wavelengths):
        # coupling = 0 zeroes the cross paths: a different structural mask,
        # therefore a different compiled plan and a separate executor pass.
        solver = CircuitSolver()
        netlist = _ring_netlist()
        batch = [{"cp": {"coupling": 0.0}}, {"cp": {"coupling": 0.3}}]
        results = solver.evaluate_batch(netlist, batch, wavelengths)
        assert solver.batch_stats().executor_passes == 2
        assert solver.batch_stats().samples == 2
        for overrides, result in zip(batch, results):
            loop = solver.evaluate(apply_settings(netlist, overrides), wavelengths)
            assert _max_abs_diff(result, loop) <= EQUIVALENCE_ATOL

    def test_identical_samples_share_one_instance_evaluation(self, wavelengths):
        solver = CircuitSolver()
        netlist = _shifter_netlist()
        results = solver.evaluate_batch(
            netlist, [{"ps": {"phase": 1.0}}, {"ps": {"phase": 1.0}}], wavelengths
        )
        stats = solver.batch_stats()
        assert stats.vectorised_model_evals + stats.looped_model_evals == 1
        assert np.array_equal(results[0].data, results[1].data)

    def test_invalid_settings_raise_classified_error(self, wavelengths):
        solver = CircuitSolver()
        with pytest.raises(OtherSyntaxError, match="rejected its settings"):
            solver.evaluate_batch(
                _ring_netlist(),
                [{"cp": {"coupling": 0.5}}, {"cp": {"coupling": 7.0}}],
                wavelengths,
            )

    def test_non_finite_settings_raise_classified_error(self, wavelengths):
        solver = CircuitSolver()
        netlist = _ring_netlist()
        with pytest.raises(OtherSyntaxError, match="'length' must be a finite number"):
            solver.evaluate_batch(
                netlist,
                [{"loop": {"length": 30.0}}, {"loop": {"length": float("inf")}}],
                wavelengths,
            )
        # The rejected batch leaves the shared solver serving valid samples.
        valid = {"loop": {"length": 30.0}}
        (result,) = solver.evaluate_batch(netlist, [valid], wavelengths)
        loop = CircuitSolver().evaluate(apply_settings(netlist, valid), wavelengths)
        assert _max_abs_diff(result, loop) <= EQUIVALENCE_ATOL

    def test_empty_override_keeps_the_instance_settings(self, wavelengths):
        # Overrides merge into the instance's settings, so an empty override
        # (for one instance or for the whole sample) is the base netlist: it
        # must be neither the model defaults nor a stale shared-cache entry.
        solver = CircuitSolver()
        netlist = Netlist(
            instances={"wg": Instance("waveguide", {"length": 77.0})},
            ports={"I1": "wg,I1", "O1": "wg,O1"},
            models={"waveguide": "waveguide"},
        )
        results = solver.evaluate_batch(
            netlist, [{"wg": {"length": 12.0}}, {"wg": {}}, {}], wavelengths
        )
        reference = CircuitSolver()
        shorter = apply_settings(netlist, {"wg": {"length": 12.0}})
        assert _max_abs_diff(results[0], reference.evaluate(shorter, wavelengths)) <= (
            EQUIVALENCE_ATOL
        )
        base = reference.evaluate(netlist, wavelengths)
        assert _max_abs_diff(results[1], base) <= EQUIVALENCE_ATOL
        assert _max_abs_diff(results[2], base) <= EQUIVALENCE_ATOL
        defaults = Netlist(
            instances={"wg": Instance("waveguide")},
            ports=dict(netlist.ports),
            models=dict(netlist.models),
        )
        assert _max_abs_diff(results[1], reference.evaluate(defaults, wavelengths)) > (
            EQUIVALENCE_ATOL
        )
        # The shared solver still serves the base netlist correctly.
        assert _max_abs_diff(solver.evaluate(netlist, wavelengths), base) <= EQUIVALENCE_ATOL

    def test_unknown_override_instance_raises(self, wavelengths):
        with pytest.raises(KeyError, match="unknown instance"):
            CircuitSolver().evaluate_batch(
                _ring_netlist(), [{"ghost": {"coupling": 0.5}}], wavelengths
            )

    def test_results_own_their_data(self, wavelengths):
        # Returned S-matrices must not be views pinning the whole fused
        # batch buffer (a cached single sample would otherwise keep the
        # full batch alive).
        solver = CircuitSolver()
        netlist = _shifter_netlist()
        results = solver.evaluate_batch(
            netlist, [{"ps": {"phase": 0.1 * k}} for k in range(4)], wavelengths
        )
        for result in results:
            assert result.data.base is None

    def test_fusion_budget_splits_passes_without_changing_results(
        self, wavelengths, monkeypatch
    ):
        # The engine hands the solver its whole miss set, so the solver's
        # fusion budget alone decides how many samples one pass carries.
        import repro.sim.circuit as circuit_module

        netlist = _ring_netlist()
        batch = [{"cp": {"coupling": 0.1 * (k + 1)}} for k in range(3)]
        fused_solver = CircuitSolver()
        fused = fused_solver.evaluate_batch(netlist, batch, wavelengths)
        assert fused_solver.batch_stats().executor_passes == 1
        monkeypatch.setattr(circuit_module, "_BATCH_FUSION_TARGET_BYTES", 1)
        split_solver = CircuitSolver()
        split = split_solver.evaluate_batch(netlist, batch, wavelengths)
        assert split_solver.batch_stats().executor_passes == len(batch)
        for a, b in zip(fused, split):
            assert _max_abs_diff(a, b) <= EQUIVALENCE_ATOL

    def test_batch_stats_accumulate(self, wavelengths):
        solver = CircuitSolver()
        netlist = _shifter_netlist()
        solver.evaluate_batch(netlist, [{"ps": {"phase": 0.1}}] * 2, wavelengths)
        solver.evaluate_batch(netlist, [{"ps": {"phase": 0.2}}] * 3, wavelengths)
        stats = solver.batch_stats()
        assert stats.calls == 2
        assert stats.samples == 5
        assert stats.executor_passes == 2
        assert 0.0 < stats.fusion_rate < 1.0


# ----------------------------------------------------------------------
# Engine: batch-aware cache keys, stats
# ----------------------------------------------------------------------
class TestEngineBatch:
    def test_batched_results_seed_per_sample_cache_entries(self, wavelengths):
        engine = ExecutionEngine()
        netlist = _ring_netlist()
        batch = [{"cp": {"coupling": 0.1 * (k + 1)}} for k in range(4)]
        batched = engine.evaluate_batch(netlist, batch, wavelengths)
        # A later per-sample evaluation of the derived netlist must hit.
        hits_before = engine.cache.stats.hits
        for overrides, result in zip(batch, batched):
            direct = engine.evaluate(apply_settings(netlist, overrides), wavelengths)
            assert np.array_equal(direct.data, result.data)
        assert engine.cache.stats.hits >= hits_before + len(batch)

    def test_per_sample_entries_hit_inside_batches(self, wavelengths):
        engine = ExecutionEngine()
        netlist = _ring_netlist()
        overrides = {"cp": {"coupling": 0.25}}
        engine.evaluate(apply_settings(netlist, overrides), wavelengths)
        before = engine.stats()
        engine.evaluate_batch(netlist, [overrides, {"cp": {"coupling": 0.35}}], wavelengths)
        lookups = stats_delta(before, engine.stats())["simulation_cache"]
        assert (lookups["hits"], lookups["misses"]) == (1, 1)

    def test_duplicate_samples_solve_once(self, wavelengths):
        engine = ExecutionEngine()
        netlist = _shifter_netlist()
        overrides = {"ps": {"phase": 0.4}}
        results = engine.evaluate_batch(netlist, [overrides, overrides], wavelengths)
        assert np.array_equal(results[0].data, results[1].data)
        assert engine.solver.batch_stats().samples == 1  # deduplicated

    def test_stats_count_batched_samples_as_cache_lookups(self, wavelengths):
        engine = ExecutionEngine()
        netlist = _shifter_netlist()
        batch = [{"ps": {"phase": 0.1 * k}} for k in range(3)]
        engine.evaluate_batch(netlist, batch, wavelengths)
        engine.evaluate_batch(netlist, batch, wavelengths)  # all cache hits
        stats = engine.stats()
        assert stats["simulation_cache"]["hits"] == 3
        assert stats["simulation_cache"]["misses"] == 3
        assert stats["solver_batch"]["calls"] == 1
        assert stats["solver_batch"]["samples"] == 3
        assert "batch" not in stats and "fusion_rate" not in stats["solver_batch"]


# ----------------------------------------------------------------------
# Plan-cache / batch interaction (satellite)
# ----------------------------------------------------------------------
class TestPlanCacheBatchInteraction:
    def test_batch_does_not_duplicate_plan_entries(self, wavelengths):
        solver = CircuitSolver()
        netlist = _ring_netlist()
        batch = _perturbing_batch(netlist, num_samples=4)
        solver.evaluate_batch(netlist, batch, wavelengths)
        stores_after_first = solver.plan_cache_stats().stores
        assert stores_after_first == 1
        solver.evaluate_batch(netlist, batch, wavelengths)
        solver.evaluate(apply_settings(netlist, batch[0]), wavelengths)
        assert solver.plan_cache_stats().stores == stores_after_first
        assert solver.plan_cache_stats().hits >= 2

    def test_batch_and_per_sample_evaluation_share_one_plan(self, wavelengths):
        solver = CircuitSolver()
        netlist = _ring_netlist()
        solver.evaluate(netlist, wavelengths)  # compiles the plan
        stores = solver.plan_cache_stats().stores
        solver.evaluate_batch(netlist, _perturbing_batch(netlist), wavelengths)
        assert solver.plan_cache_stats().stores == stores  # settings-only: reuse

    def test_batch_does_not_evict_unrelated_plans(self, wavelengths):
        solver = CircuitSolver(plan_cache_entries=8)
        ring = _ring_netlist()
        shifter = _shifter_netlist()
        ring_fingerprint = solver.compile(ring, wavelengths).fingerprint
        solver.compile(shifter, wavelengths)
        for _ in range(3):
            solver.evaluate_batch(
                shifter, [{"ps": {"phase": 0.2}}, {"ps": {"phase": 0.9}}], wavelengths
            )
        assert solver.plan_cache_stats().evictions == 0
        # The ring's plan is still served from the cache.
        assert solver._plan_cache.get(ring_fingerprint) is not None


# ----------------------------------------------------------------------
# default_solver concurrency regression (satellite)
# ----------------------------------------------------------------------
class TestDefaultSolverConcurrency:
    def test_concurrent_evaluate_netlist_through_scheduler(self, wavelengths):
        # The module-level default solver is shared mutable state; driving it
        # through the PR 1 scheduler from many threads must neither corrupt
        # its memo dictionaries nor change any result.
        netlists = []
        for k in range(6):
            netlists.append(apply_settings(_ring_netlist(), {"cp": {"coupling": 0.1 + 0.1 * k}}))
            netlists.append(apply_settings(_shifter_netlist(), {"ps": {"phase": 0.3 * k}}))
        work = netlists * 4

        reference_solver = CircuitSolver()
        expected = [reference_solver.evaluate(netlist, wavelengths) for netlist in work]

        scheduler = TaskScheduler(workers=8)
        results = scheduler.map(lambda netlist: evaluate_netlist(netlist, wavelengths), work)
        for result, reference in zip(results, expected):
            assert _max_abs_diff(result, reference) <= EQUIVALENCE_ATOL

    def test_default_solver_is_one_instance_across_threads(self):
        scheduler = TaskScheduler(workers=8)
        identities = scheduler.map(lambda _: id(default_solver()), range(32))
        assert len(set(identities)) == 1

    def test_concurrent_evaluate_batch_on_shared_solver(self, wavelengths):
        solver = CircuitSolver()
        netlist = _ring_netlist()
        batches = [
            [{"cp": {"coupling": 0.05 * (k + 1) + 0.01 * j}} for j in range(3)]
            for k in range(8)
        ]
        expected = [
            [
                CircuitSolver().evaluate(apply_settings(netlist, overrides), wavelengths)
                for overrides in batch
            ]
            for batch in batches
        ]
        scheduler = TaskScheduler(workers=8)
        results = scheduler.map(
            lambda batch: solver.evaluate_batch(netlist, batch, wavelengths), batches
        )
        for got, want in zip(results, expected):
            for a, b in zip(got, want):
                assert _max_abs_diff(a, b) <= EQUIVALENCE_ATOL

    def test_memo_lock_protects_clear_races(self, wavelengths):
        # Force the memo-overflow clear path concurrently: no exceptions and
        # correct fingerprints afterwards.
        solver = CircuitSolver()
        netlist = _shifter_netlist()

        def hammer(seed):
            for k in range(20):
                solver.evaluate(
                    apply_settings(netlist, {"ps": {"phase": 0.001 * (seed * 20 + k)}}),
                    wavelengths,
                )
            return True

        threads = [threading.Thread(target=hammer, args=(s,)) for s in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        reference = CircuitSolver().evaluate(
            apply_settings(netlist, {"ps": {"phase": 0.0}}), wavelengths
        )
        again = solver.evaluate(
            apply_settings(netlist, {"ps": {"phase": 0.0}}), wavelengths
        )
        assert _max_abs_diff(reference, again) <= EQUIVALENCE_ATOL


# ----------------------------------------------------------------------
# Engine construction
# ----------------------------------------------------------------------
class TestBatchPlumbing:
    def test_registry_override_still_supported(self, wavelengths):
        registry = default_registry()
        engine = ExecutionEngine(registry=registry)
        assert engine.registry is registry
        results = engine.evaluate_batch(
            _ring_netlist(), [{"cp": {"coupling": 0.3}}], wavelengths
        )
        assert len(results) == 1
