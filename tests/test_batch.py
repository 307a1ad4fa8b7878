"""Tests for the batched settings-axis execution path.

Covers the solver's ``evaluate_batch`` (<= 1e-9 equivalence with the
per-sample loop over every problem of every registered pack, topology-group
splitting on mask changes, error classification), the engine's batch-aware
cache keys (batched results hit -- and seed -- per-sample entries), the
plan-cache/batch interaction (no duplicate or spurious plan entries, batch
hit rates in ``stats()``), direct ``LRUCache.peek`` unit tests, the
``default_solver`` concurrency regression, and the sweep/CLI plumbing of
``--batch-size`` (byte-identical reports).
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro._cache import LRUCache
from repro.bench.packs import get_pack, pack_names
from repro.engine import EngineConfig, ExecutionEngine, TaskScheduler
from repro.harness.cli import build_parser
from repro.harness.runner import SweepConfig, run_sweep
from repro.netlist import Instance, Netlist
from repro.netlist.errors import OtherSyntaxError
from repro.sim import (
    CircuitSolver,
    apply_settings,
    batch_evaluate_model,
    default_registry,
    evaluate_netlist,
)
from repro.sim.batch import fuse_sample_matrices, merged_instance_settings, structural_key
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

    def test_replace_substitutes_wholesale(self):
        derived = apply_settings(
            _ring_netlist(), {"loop": {"loss_db_cm": 1.0}}, merge=False
        )
        assert derived.instances["loop"].settings == {"loss_db_cm": 1.0}

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


class TestStructuralKey:
    def test_settings_do_not_change_the_key(self):
        a = _ring_netlist()
        b = apply_settings(a, {"cp": {"coupling": 0.9}, "loop": {"length": 1.0}})
        assert structural_key(a) == structural_key(b)

    def test_rewiring_changes_the_key(self):
        a = _ring_netlist()
        b = _ring_netlist()
        b.connections = {"cp,O2": "loop,I1"}
        assert structural_key(a) != structural_key(b)

    def test_instance_order_matters(self):
        a = _ring_netlist()
        b = Netlist(
            instances=dict(reversed(list(_ring_netlist().instances.items()))),
            connections=dict(a.connections),
            ports=dict(a.ports),
            models=dict(a.models),
        )
        assert structural_key(a) != structural_key(b)


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

    def test_unknown_override_instance_raises(self, wavelengths):
        with pytest.raises(KeyError, match="unknown instance"):
            CircuitSolver().evaluate_batch(
                _ring_netlist(), [{"ghost": {"coupling": 0.5}}], wavelengths
            )

    def test_empty_replace_override_means_model_defaults(self, wavelengths):
        # Regression: with merge=False an EMPTY override replaces the
        # instance's settings with the model defaults -- it must neither be
        # served the base-settings matrix nor poison the shared instance
        # cache under the base-settings key.
        solver = CircuitSolver()
        netlist = Netlist(
            instances={"wg": Instance("waveguide", {"length": 77.0})},
            ports={"I1": "wg,I1", "O1": "wg,O1"},
            models={"waveguide": "waveguide"},
        )
        batch = [{"wg": {"length": 77.0}}, {"wg": {}}]
        results = solver.evaluate_batch(netlist, batch, wavelengths, merge=False)
        defaults = Netlist(
            instances={"wg": Instance("waveguide")},
            ports=dict(netlist.ports),
            models=dict(netlist.models),
        )
        reference = CircuitSolver()
        assert _max_abs_diff(results[0], reference.evaluate(netlist, wavelengths)) <= EQUIVALENCE_ATOL
        assert _max_abs_diff(results[1], reference.evaluate(defaults, wavelengths)) <= EQUIVALENCE_ATOL
        # The shared solver must still serve the base netlist correctly.
        after = solver.evaluate(netlist, wavelengths)
        assert _max_abs_diff(after, reference.evaluate(netlist, wavelengths)) <= EQUIVALENCE_ATOL

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

    def test_wavelength_chunk_is_result_invariant(self, wavelengths):
        netlist = _ring_netlist()
        batch = [{"cp": {"coupling": 0.1 * (k + 1)}} for k in range(3)]
        plain = CircuitSolver().evaluate_batch(netlist, batch, wavelengths)
        chunked = CircuitSolver(max_wavelength_chunk=4).evaluate_batch(
            netlist, batch, wavelengths
        )
        for a, b in zip(plain, chunked):
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
# Engine: batch-aware cache keys, evaluate_many, stats
# ----------------------------------------------------------------------
class TestEngineBatch:
    def test_batched_results_seed_per_sample_cache_entries(self, wavelengths):
        engine = ExecutionEngine(EngineConfig(batch_size=4))
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
        engine = ExecutionEngine(EngineConfig(batch_size=4))
        netlist = _ring_netlist()
        overrides = {"cp": {"coupling": 0.25}}
        engine.evaluate(apply_settings(netlist, overrides), wavelengths)
        engine.evaluate_batch(netlist, [overrides, {"cp": {"coupling": 0.35}}], wavelengths)
        stats = engine.batch_stats()
        assert stats.samples == 2
        assert stats.cache_hits == 1

    def test_duplicate_samples_solve_once(self, wavelengths):
        engine = ExecutionEngine(EngineConfig(batch_size=4))
        netlist = _shifter_netlist()
        overrides = {"ps": {"phase": 0.4}}
        results = engine.evaluate_batch(netlist, [overrides, overrides], wavelengths)
        assert np.array_equal(results[0].data, results[1].data)
        assert engine.solver.batch_stats().samples == 1  # deduplicated

    def test_evaluate_many_groups_structure_sharing_netlists(self, wavelengths):
        engine = ExecutionEngine(EngineConfig(batch_size=8))
        ring = _ring_netlist()
        shifter = _shifter_netlist()
        netlists = [
            apply_settings(ring, {"cp": {"coupling": 0.1}}),
            apply_settings(shifter, {"ps": {"phase": 0.1}}),
            apply_settings(ring, {"cp": {"coupling": 0.2}}),
            apply_settings(shifter, {"ps": {"phase": 0.2}}),
        ]
        results = engine.evaluate_many(netlists, wavelengths)
        assert engine.solver.batch_stats().calls == 2  # one per structure group
        for netlist, result in zip(netlists, results):
            direct = CircuitSolver().evaluate(netlist, wavelengths)
            assert _max_abs_diff(result, direct) <= EQUIVALENCE_ATOL

    def test_evaluate_many_isolates_failures(self, wavelengths):
        engine = ExecutionEngine(EngineConfig(batch_size=8))
        good = apply_settings(_ring_netlist(), {"cp": {"coupling": 0.2}})
        bad = apply_settings(_ring_netlist(), {"cp": {"coupling": 9.0}})
        results = engine.evaluate_many(
            [good, bad, good], wavelengths, return_exceptions=True
        )
        assert not isinstance(results[0], Exception)
        assert isinstance(results[1], OtherSyntaxError)
        assert not isinstance(results[2], Exception)

    def test_evaluate_many_raises_without_return_exceptions(self, wavelengths):
        engine = ExecutionEngine(EngineConfig(batch_size=8))
        bad = apply_settings(_ring_netlist(), {"cp": {"coupling": 9.0}})
        with pytest.raises(OtherSyntaxError):
            engine.evaluate_many([bad], wavelengths)

    def test_evaluate_many_per_item_path_matches_batched_path(self, wavelengths):
        netlists = [
            apply_settings(_ring_netlist(), {"cp": {"coupling": 0.1 * (k + 1)}})
            for k in range(3)
        ]
        batched = ExecutionEngine(EngineConfig(batch_size=4)).evaluate_many(
            netlists, wavelengths
        )
        per_item = ExecutionEngine(EngineConfig(batch_size=1)).evaluate_many(
            netlists, wavelengths
        )
        for a, b in zip(batched, per_item):
            assert _max_abs_diff(a, b) <= EQUIVALENCE_ATOL

    def test_stats_report_batch_hit_rates(self, wavelengths):
        engine = ExecutionEngine(EngineConfig(batch_size=4))
        netlist = _shifter_netlist()
        batch = [{"ps": {"phase": 0.1 * k}} for k in range(3)]
        engine.evaluate_batch(netlist, batch, wavelengths)
        engine.evaluate_batch(netlist, batch, wavelengths)  # all cache hits
        stats = engine.stats()
        assert stats["batch"]["calls"] == 2
        assert stats["batch"]["samples"] == 6
        assert stats["batch"]["cache_hits"] == 3
        assert stats["batch_hit_rate"] == pytest.approx(0.5)
        assert stats["solver_batch"]["samples"] == 3
        assert 0.0 <= stats["batch_fusion_rate"] <= 1.0
        assert stats["batch_size"] == 4


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
        assert solver._plan_cache.peek(ring_fingerprint) is not None


# ----------------------------------------------------------------------
# LRUCache.peek (satellite)
# ----------------------------------------------------------------------
class TestLRUCachePeek:
    def test_peek_returns_value_without_touching_stats(self):
        cache = LRUCache(max_entries=4)
        cache.put("a", 1)
        lookups_before = cache.stats.lookups
        assert cache.peek("a") == 1
        assert cache.peek("missing") is None
        assert cache.stats.lookups == lookups_before
        assert cache.stats.hits == 0
        assert cache.stats.misses == 0

    def test_peek_does_not_refresh_recency(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.peek("a")  # must NOT move "a" to the back
        cache.put("c", 3)
        assert cache.peek("a") is None  # "a" was still least recently used
        assert cache.peek("b") == 2
        assert cache.peek("c") == 3

    def test_get_refreshes_recency_unlike_peek(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)
        assert cache.peek("b") is None  # "b" evicted instead
        assert cache.peek("a") == 1

    def test_peek_on_disabled_cache(self):
        cache = LRUCache(max_entries=0)
        cache.put("a", 1)
        assert cache.peek("a") is None


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
# Sweep / CLI plumbing
# ----------------------------------------------------------------------
class TestBatchPlumbing:
    def test_sweep_config_threads_batch_size(self):
        config = SweepConfig(batch_size=6)
        assert config.engine_config().batch_size == 6

    def test_cli_accepts_batch_size(self):
        args = build_parser().parse_args(["sweep", "--batch-size", "8"])
        assert args.batch_size == 8

    def test_cli_default_batch_size_is_one(self):
        args = build_parser().parse_args(["sweep"])
        assert args.batch_size == 1

    def test_batched_sweep_reports_are_identical(self):
        base_config = SweepConfig(
            samples_per_problem=2, num_wavelengths=11, problems=("mzi_ps",)
        )
        batched_config = SweepConfig(
            samples_per_problem=2, num_wavelengths=11, problems=("mzi_ps",), batch_size=4
        )
        base = run_sweep(base_config, restriction_settings=(False,))
        batched = run_sweep(batched_config, restriction_settings=(False,))
        assert json.dumps(base.to_dict(), sort_keys=True) == json.dumps(
            batched.to_dict(), sort_keys=True
        )

    def test_registry_override_still_supported(self, wavelengths):
        registry = default_registry()
        engine = ExecutionEngine(EngineConfig(batch_size=4), registry=registry)
        assert engine.registry is registry
        results = engine.evaluate_batch(
            _ring_netlist(), [{"cp": {"coupling": 0.3}}], wavelengths
        )
        assert len(results) == 1
