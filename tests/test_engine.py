"""Tests of the execution engine: caching, scheduling, and determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import get_problem
from repro.engine import (
    EngineConfig,
    ExecutionEngine,
    LRUCache,
    TaskScheduler,
    grid_fingerprint,
    netlist_fingerprint,
    registry_fingerprint,
    sample_seed,
)
from repro.harness import SweepConfig, run_sweep
from repro.netlist import Instance, Netlist
from repro.netlist.errors import PICBenchError
from repro.sim import CircuitSolver, default_registry
from tests.conftest import TEST_NUM_WAVELENGTHS


def _mzi_netlist(delta_length: float = 10.0) -> Netlist:
    return get_problem("mzi_ps").golden_netlist()


class TestFingerprints:
    def test_netlist_fingerprint_is_order_independent(self):
        netlist = _mzi_netlist()
        shuffled = Netlist(
            instances=dict(reversed(list(netlist.instances.items()))),
            connections=dict(reversed(list(netlist.connections.items()))),
            ports=dict(reversed(list(netlist.ports.items()))),
            models=dict(reversed(list(netlist.models.items()))),
        )
        assert netlist_fingerprint(netlist) == netlist_fingerprint(shuffled)

    def test_netlist_fingerprint_sees_settings(self):
        netlist = _mzi_netlist()
        changed = netlist.copy()
        next(iter(changed.instances.values())).settings["loss_db"] = 1.0
        assert netlist_fingerprint(netlist) != netlist_fingerprint(changed)

    def test_grid_fingerprint(self, wavelengths):
        assert grid_fingerprint(wavelengths) == grid_fingerprint(wavelengths.copy())
        assert grid_fingerprint(wavelengths) != grid_fingerprint(wavelengths * 1.001)

    def test_registry_fingerprint_sees_new_models(self, registry):
        modified = registry.copy()
        info = modified.get("waveguide")
        modified.register(
            type(info)(
                name="custom_wg",
                func=info.func,
                description="custom",
                input_ports=info.input_ports,
                output_ports=info.output_ports,
                parameters=info.parameters,
            )
        )
        assert registry_fingerprint(registry) != registry_fingerprint(modified)

    def test_sample_seed_mixes_problem_name(self):
        seeds = {sample_seed(0, name, 0) for name in ("mzi_ps", "mzm", "wdm_demux")}
        assert len(seeds) == 3
        assert sample_seed(0, "mzi_ps", 0) == sample_seed(0, "mzi_ps", 0)
        assert sample_seed(0, "mzi_ps", 0) != sample_seed(0, "mzi_ps", 1)
        assert sample_seed(0, "mzi_ps", 0) != sample_seed(1, "mzi_ps", 0)


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a": "b" is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_disabled_cache_never_stores(self):
        cache = LRUCache(max_entries=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0


class TestSimulationCache:
    def test_hit_and_miss_semantics(self, wavelengths):
        engine = ExecutionEngine()
        netlist = _mzi_netlist()
        first = engine.evaluate(netlist, wavelengths)
        assert engine.cache.stats.misses == 1 and engine.cache.stats.hits == 0
        second = engine.evaluate(netlist, wavelengths)
        assert engine.cache.stats.hits == 1
        assert second is first  # served straight from the memory tier

        # A structurally identical netlist built independently also hits.
        engine.evaluate(get_problem("mzi_ps").golden_netlist(), wavelengths)
        assert engine.cache.stats.hits == 2

        # Changing the grid or the netlist misses.
        engine.evaluate(netlist, wavelengths[:5])
        changed = netlist.copy()
        next(iter(changed.instances.values())).settings["loss_db"] = 0.5
        engine.evaluate(changed, wavelengths)
        assert engine.cache.stats.misses == 3

    def test_port_spec_is_part_of_the_key(self, wavelengths):
        engine = ExecutionEngine()
        problem = get_problem("mzi_ps")
        engine.evaluate(problem.golden_netlist(), wavelengths, port_spec=problem.port_spec)
        engine.evaluate(problem.golden_netlist(), wavelengths, port_spec=None)
        assert engine.cache.stats.misses == 2

    def test_errors_are_never_cached(self, wavelengths):
        engine = ExecutionEngine()
        bad = _mzi_netlist()
        bad.connections["mmi1,O9"] = "mmi2,I9"
        for _ in range(2):
            with pytest.raises(PICBenchError):
                engine.evaluate(bad, wavelengths)
        assert len(engine.cache) == 0

    def test_disk_cache_round_trip(self, wavelengths, tmp_path):
        netlist = _mzi_netlist()
        warm = ExecutionEngine(EngineConfig(cache_dir=tmp_path))
        original = warm.evaluate(netlist, wavelengths)
        assert list(tmp_path.glob("sim-*.npz"))

        cold = ExecutionEngine(EngineConfig(cache_dir=tmp_path))
        restored = cold.evaluate(netlist, wavelengths)
        assert cold.cache.stats.disk_hits == 1
        assert restored.ports == original.ports
        np.testing.assert_allclose(restored.wavelengths, original.wavelengths)
        np.testing.assert_allclose(restored.data, original.data)

        # Promoted to memory: the next lookup does not touch the disk again.
        cold.evaluate(netlist, wavelengths)
        assert cold.cache.stats.disk_hits == 1 and cold.cache.stats.hits == 1

    def test_registry_mutation_invalidates_cached_results(self, wavelengths):
        registry = default_registry().copy()
        engine = ExecutionEngine(registry=registry)
        netlist = _mzi_netlist()
        engine.evaluate(netlist, wavelengths)

        # Replace a model under the same name: the engine must not serve the
        # result computed with the old implementation.
        base = registry.get("waveguide")

        def replacement(wl, **settings):
            return base.func(wl, **settings)

        registry.register(
            type(base)(
                name="waveguide",
                func=replacement,
                description=base.description,
                input_ports=base.input_ports,
                output_ports=base.output_ports,
                parameters=base.parameters,
            )
        )
        engine.evaluate(netlist, wavelengths)
        assert engine.cache.stats.misses == 2 and engine.cache.stats.hits == 0

    def test_default_engine_builds_the_auto_solver_on_the_default_sizes(self):
        engine = ExecutionEngine()
        assert engine.solver.backend == "auto"
        assert engine.solver._plan_cache.max_entries == 128
        assert engine.cache._memory.max_entries == 2048
        policy = engine.cache._retry_policy
        assert (policy.attempts, policy.base_delay) == (2, 0.02)

    def test_cache_dir_pointing_at_a_file_fails_fast(self, tmp_path):
        bogus = tmp_path / "notadir"
        bogus.touch()
        with pytest.raises(ValueError, match="not a directory"):
            ExecutionEngine(EngineConfig(cache_dir=bogus))

    def test_corrupt_disk_entry_is_quarantined_and_recomputed(
        self, wavelengths, tmp_path
    ):
        netlist = _mzi_netlist()
        warm = ExecutionEngine(EngineConfig(cache_dir=tmp_path))
        original = warm.evaluate(netlist, wavelengths)
        (entry,) = list(tmp_path.glob("sim-*.npz"))
        entry.write_bytes(b"definitely not a zip archive")

        cold = ExecutionEngine(EngineConfig(cache_dir=tmp_path))
        recomputed = cold.evaluate(netlist, wavelengths)
        np.testing.assert_allclose(recomputed.data, original.data)
        assert cold.cache.stats.disk_corrupt == 1
        assert list(tmp_path.glob("sim-*.npz.corrupt"))  # moved aside for autopsy
        # The recompute rewrote a good entry under the same key: a fresh
        # engine disk-hits it cleanly.
        fresh = ExecutionEngine(EngineConfig(cache_dir=tmp_path))
        fresh.evaluate(netlist, wavelengths)
        assert fresh.cache.stats.disk_hits == 1
        assert fresh.cache.stats.disk_corrupt == 0

    def test_stats_surface_fault_and_retry_counters(self, tmp_path):
        engine = ExecutionEngine(EngineConfig(cache_dir=tmp_path))
        stats = engine.stats()
        assert stats["faults"] == {}  # no plan installed
        cache_stats = stats["simulation_cache"]
        assert cache_stats["disk_corrupt"] == 0
        assert cache_stats["disk_retries"] == 0

    def test_injected_solver_fault_propagates_as_oserror(self, wavelengths):
        from repro.faults import FaultRule, clear_plan, inject

        clear_plan()
        engine = ExecutionEngine()
        with inject(FaultRule("solver.evaluate", max_triggers=1)):
            with pytest.raises(OSError):
                engine.evaluate(_mzi_netlist(), wavelengths)
            # The budgeted plan is spent: evaluation recovers, nothing cached
            # from the failed attempt.
            result = engine.evaluate(_mzi_netlist(), wavelengths)
        clear_plan()
        assert result is not None


class TestInstanceSubCache:
    def test_repeated_devices_evaluated_once(self, wavelengths):
        calls = []
        registry = default_registry().copy()
        base = registry.get("waveguide")

        def counting_waveguide(wl, **settings):
            calls.append(settings)
            return base.func(wl, **settings)

        registry.register(
            type(base)(
                name="waveguide",
                func=counting_waveguide,
                description=base.description,
                input_ports=base.input_ports,
                output_ports=base.output_ports,
                parameters=base.parameters,
            )
        )
        solver = CircuitSolver(registry=registry)
        netlist = Netlist(
            instances={
                "wgA": Instance("waveguide", {"length": 25.0}),
                "wgB": Instance("waveguide", {"length": 25.0}),
                "wgC": Instance("waveguide", {"length": 50.0}),
            },
            connections={"wgA,O1": "wgB,I1", "wgB,O1": "wgC,I1"},
            ports={"I1": "wgA,I1", "O1": "wgC,O1"},
            models={"waveguide": "waveguide"},
        )
        solver.evaluate(netlist, wavelengths)
        assert len(calls) == 2  # two distinct (ref, settings) pairs, not three
        # One lookup per distinct device key and call: both keys miss.
        stats = solver.instance_cache_stats()
        assert (stats.hits, stats.misses) == (0, 2)

        solver.evaluate(netlist, wavelengths)
        assert len(calls) == 2  # the sub-cache persists across evaluate() calls
        stats = solver.instance_cache_stats()
        assert (stats.hits, stats.misses) == (2, 2)

    def test_batched_call_counts_one_lookup_per_distinct_device(self, wavelengths):
        solver = CircuitSolver()
        netlist = Netlist(
            instances={
                "wgA": Instance("waveguide", {"length": 25.0}),
                "wgB": Instance("waveguide", {"length": 25.0}),
                "wgC": Instance("waveguide", {"length": 50.0}),
            },
            connections={"wgA,O1": "wgB,I1", "wgB,O1": "wgC,I1"},
            ports={"I1": "wgA,I1", "O1": "wgC,O1"},
            models={"waveguide": "waveguide"},
        )
        # Three samples over three distinct devices: the shared 25 um
        # waveguide, wgC's base setting and wgC's one override.
        batch = [{}, {"wgC": {"length": 75.0}}, {"wgC": {"length": 75.0}}]
        solver.evaluate_batch(netlist, batch, wavelengths)
        stats = solver.instance_cache_stats()
        assert (stats.hits, stats.misses, stats.stores) == (0, 3, 3)

        solver.evaluate(netlist, wavelengths)
        stats = solver.instance_cache_stats()
        assert (stats.hits, stats.misses, stats.stores) == (2, 3, 3)

    def test_sub_cache_can_be_disabled(self, wavelengths):
        solver = CircuitSolver(instance_cache_entries=0)
        netlist = _mzi_netlist()
        solver.evaluate(netlist, wavelengths)
        solver.evaluate(netlist, wavelengths)
        assert solver.instance_cache_stats().hits == 0


class TestScheduler:
    def test_map_preserves_order(self):
        scheduler = TaskScheduler(workers=4)
        items = list(range(32))
        assert scheduler.map(lambda i: i * i, items) == [i * i for i in items]

    def test_single_worker_runs_inline(self):
        import threading

        main = threading.current_thread()
        threads = TaskScheduler(workers=1).map(lambda _: threading.current_thread(), range(4))
        assert all(t is main for t in threads)

    def test_exceptions_propagate(self):
        scheduler = TaskScheduler(workers=4)

        def boom(i):
            if i == 3:
                raise RuntimeError("unit 3 failed")
            return i

        with pytest.raises(RuntimeError, match="unit 3"):
            scheduler.map(boom, range(8))

    def test_zero_means_all_cores(self):
        assert TaskScheduler(workers=0).workers >= 1


class TestParallelDeterminism:
    @pytest.fixture(scope="class")
    def sweep_pair(self):
        kwargs = dict(
            samples_per_problem=2,
            max_feedback_iterations=2,
            num_wavelengths=TEST_NUM_WAVELENGTHS,
            problems=("mzi_ps", "mzm", "wdm_demux"),
        )
        sequential = run_sweep(SweepConfig(workers=1, **kwargs))
        parallel = run_sweep(SweepConfig(workers=4, **kwargs))
        return sequential, parallel

    def test_reports_are_byte_identical(self, sweep_pair):
        sequential, parallel = sweep_pair
        assert set(sequential.reports) == set(parallel.reports)
        for key, seq_report in sequential.reports.items():
            par_report = parallel.reports[key]
            assert seq_report.to_dict() == par_report.to_dict(), key
            assert seq_report == par_report, key

    def test_serialised_sweeps_are_identical(self, sweep_pair, tmp_path):
        import json

        sequential, parallel = sweep_pair
        sequential.save(tmp_path / "seq.json")
        parallel.save(tmp_path / "par.json")
        seq_payload = json.loads((tmp_path / "seq.json").read_text())
        par_payload = json.loads((tmp_path / "par.json").read_text())
        assert seq_payload == par_payload


class TestEngineStats:
    def test_stats_snapshot_shape(self, wavelengths):
        engine = ExecutionEngine(EngineConfig(workers=2))
        engine.evaluate(_mzi_netlist(), wavelengths)
        stats = engine.stats()
        assert set(stats) == {
            "simulation_cache",
            "instance_cache",
            "plan_cache",
            "solver_batch",
            "solver_degradations",
            "cache_nonfinite_rejected",
            "faults",
        }
        assert stats["simulation_cache"]["misses"] == 1
        groups = [group for group in stats.values() if isinstance(group, dict)]
        counters = [stats["cache_nonfinite_rejected"]]
        counters += [value for group in groups for value in group.values()]
        assert all(type(value) is int for value in counters)
