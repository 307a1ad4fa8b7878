"""Equivalence and plumbing tests for the solver backends (dense vs cascade).

The cascade backend must be numerically equivalent (<= 1e-9) to the dense
backend on every problem of every registered pack and on adversarial cyclic
topologies (rings, nested rings, self-coupled clusters); backend selection
must thread through the solver, the convenience API, the engine (with
backend-invariant cache keys) and the sweep configuration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.packs import pack_names, get_pack
from repro.engine.engine import EngineConfig, ExecutionEngine
from repro.harness.cli import build_parser
from repro.harness.runner import SweepConfig
from repro.netlist import Instance, Netlist
from repro.sim import SOLVER_BACKENDS, CircuitSolver, evaluate_netlist
from repro.sim.cascade import strongly_connected_components
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


def _ring_netlist():
    """All-pass ring: coupler + feedback waveguide (one loop)."""
    return Netlist(
        instances={
            "cp": Instance("coupler", {"coupling": 0.2}),
            "loop": Instance("waveguide", {"length": 31.4}),
        },
        connections={"cp,O2": "loop,I1", "loop,O1": "cp,I2"},
        ports={"I1": "cp,I1", "O1": "cp,O1"},
        models={"coupler": "coupler", "waveguide": "waveguide"},
    )


def _self_coupled_netlist():
    """A single coupler feeding itself: a one-instance feedback cluster."""
    return Netlist(
        instances={"cp": Instance("coupler", {"coupling": 0.3})},
        connections={"cp,O2": "cp,I2"},
        ports={"I1": "cp,I1", "O1": "cp,O1"},
        models={"coupler": "coupler"},
    )


def _nested_rings_netlist():
    """An outer loop that passes through a coupler carrying its own inner ring."""
    return Netlist(
        instances={
            "cpa": Instance("coupler", {"coupling": 0.2}),
            "cpb": Instance("coupler", {"coupling": 0.4}),
            "wga": Instance("waveguide", {"length": 40.0}),
            "wgb": Instance("waveguide", {"length": 25.0}),
        },
        connections={
            "cpa,O2": "cpb,I1",
            "cpb,O1": "wga,I1",
            "wga,O1": "cpa,I2",
            "cpb,O2": "wgb,I1",
            "wgb,O1": "cpb,I2",
        },
        ports={"I1": "cpa,I1", "O1": "cpa,O1"},
        models={"coupler": "coupler", "waveguide": "waveguide"},
    )


def _ring_chain_netlist():
    """Two independent all-pass rings in series: two feedback clusters."""
    return Netlist(
        instances={
            "cpA": Instance("coupler", {"coupling": 0.2}),
            "loopA": Instance("waveguide", {"length": 31.4}),
            "cpB": Instance("coupler", {"coupling": 0.1}),
            "loopB": Instance("waveguide", {"length": 62.8}),
        },
        connections={
            "cpA,O2": "loopA,I1",
            "loopA,O1": "cpA,I2",
            "cpA,O1": "cpB,I1",
            "cpB,O2": "loopB,I1",
            "loopB,O1": "cpB,I2",
        },
        ports={"I1": "cpA,I1", "O1": "cpB,O1"},
        models={"coupler": "coupler", "waveguide": "waveguide"},
    )


def _adddrop_ring_netlist():
    """Add/drop ring from two couplers and two half-loops (4-instance cluster)."""
    return Netlist(
        instances={
            "cin": Instance("coupler", {"coupling": 0.1}),
            "cout": Instance("coupler", {"coupling": 0.1}),
            "top": Instance("waveguide", {"length": 15.7}),
            "bot": Instance("waveguide", {"length": 15.7}),
        },
        connections={
            "cin,O2": "top,I1",
            "top,O1": "cout,I2",
            "cout,O2": "bot,I1",
            "bot,O1": "cin,I2",
        },
        ports={"I1": "cin,I1", "O1": "cin,O1", "I2": "cout,I1", "O2": "cout,O1"},
        models={"coupler": "coupler", "waveguide": "waveguide"},
    )


CYCLIC_NETLISTS = {
    "ring": _ring_netlist,
    "self_coupled": _self_coupled_netlist,
    "nested_rings": _nested_rings_netlist,
    "ring_chain": _ring_chain_netlist,
    "adddrop_ring": _adddrop_ring_netlist,
}


class TestBackendEquivalence:
    @pytest.mark.parametrize("problem", _registered_pack_problems())
    def test_cascade_matches_dense_on_every_pack_problem(self, problem, wavelengths, solver):
        netlist = problem.golden_netlist()
        dense = solver.evaluate(
            netlist, wavelengths, port_spec=problem.port_spec, backend="dense"
        )
        cascade = solver.evaluate(
            netlist, wavelengths, port_spec=problem.port_spec, backend="cascade"
        )
        assert dense.ports == cascade.ports
        assert _max_abs_diff(dense, cascade) <= EQUIVALENCE_ATOL

    @pytest.mark.parametrize("name", sorted(CYCLIC_NETLISTS))
    def test_cascade_matches_dense_on_cyclic_topologies(self, name, wavelengths, solver):
        netlist = CYCLIC_NETLISTS[name]()
        dense = solver.evaluate(netlist, wavelengths, backend="dense")
        cascade = solver.evaluate(netlist, wavelengths, backend="cascade")
        assert _max_abs_diff(dense, cascade) <= EQUIVALENCE_ATOL

    def test_auto_matches_dense(self, wavelengths, solver):
        netlist = _ring_chain_netlist()
        auto = solver.evaluate(netlist, wavelengths, backend="auto")
        dense = solver.evaluate(netlist, wavelengths, backend="dense")
        assert _max_abs_diff(auto, dense) <= EQUIVALENCE_ATOL

    def test_lossless_ring_stays_allpass_under_cascade(self, wavelengths, solver):
        sm = solver.evaluate(_ring_netlist(), wavelengths, backend="cascade")
        assert np.allclose(sm.transmission("O1", "I1"), 1.0, atol=1e-9)


class TestCascadePlan:
    def test_feedforward_fabric_has_no_feedback_clusters(self, wavelengths, solver):
        from repro.bench import get_problem

        netlist = get_problem("spanke_8x8").golden_netlist()
        plan = solver.cascade_plan(netlist, wavelengths)
        assert plan.feedback == ()
        assert plan.num_feedback_ports == 0
        assert plan.largest_feedback_cluster == 0
        assert sum(len(c) for c in plan.components) == plan.num_ports

    def test_ring_produces_feedback_clusters(self, wavelengths, solver):
        # A reciprocal ring carries a forward and a backward signal-flow loop.
        plan = solver.cascade_plan(_ring_netlist(), wavelengths)
        assert len(plan.feedback) == 2
        assert plan.largest_feedback_cluster == 2

    def test_self_coupled_instance_is_a_singleton_cluster(self, wavelengths, solver):
        plan = solver.cascade_plan(_self_coupled_netlist(), wavelengths)
        assert all(len(component) == 1 for component in plan.feedback)
        assert len(plan.feedback) == 2

    def test_nested_rings_condense_into_larger_clusters(self, wavelengths, solver):
        plan = solver.cascade_plan(_nested_rings_netlist(), wavelengths)
        assert plan.largest_feedback_cluster >= 4

    def test_components_are_topologically_ordered(self, wavelengths, solver):
        # In a waveguide chain the outgoing wave of wg(k+1) depends on the
        # outgoing wave of wg(k), so the forward O1 ports must be scheduled
        # in strictly increasing chain order.
        lengths = [10.0, 15.0, 5.0, 20.0]
        instances = {
            f"wg{i + 1}": Instance("waveguide", {"length": length})
            for i, length in enumerate(lengths)
        }
        connections = {f"wg{i + 1},O1": f"wg{i + 2},I1" for i in range(len(lengths) - 1)}
        netlist = Netlist(
            instances=instances,
            connections=connections,
            ports={"I1": "wg1,I1", "O1": f"wg{len(lengths)},O1"},
            models={"waveguide": "waveguide"},
        )
        plan = solver.cascade_plan(netlist, wavelengths)
        position = {}
        for rank, component in enumerate(plan.components):
            for port in component:
                position[port] = rank
        # Flattened port order is (wg1.I1, wg1.O1, wg2.I1, wg2.O1, ...): the
        # O1 column of wg(k) is port index 2k + 1.
        forward_ranks = [position[2 * k + 1] for k in range(len(lengths))]
        assert forward_ranks == sorted(forward_ranks)
        assert len(set(forward_ranks)) == len(forward_ranks)


class TestSccAlgorithm:
    def test_known_graph(self):
        # 0 -> 1 -> 2 -> 0 is a cycle; 3 depends on the cycle; 4 is isolated.
        adjacency = [[1], [2], [0, 3], [], []]
        components = strongly_connected_components(adjacency)
        as_sets = [frozenset(c) for c in components]
        assert frozenset({0, 1, 2}) in as_sets
        # Reverse topological order: the dependent node 3 is emitted before
        # the cycle that feeds it.
        assert as_sets.index(frozenset({3})) < as_sets.index(frozenset({0, 1, 2}))

    def test_self_loop_is_singleton(self):
        components = strongly_connected_components([[0, 1], []])
        assert [sorted(c) for c in components] == [[1], [0]]

    def test_empty_graph(self):
        assert strongly_connected_components([]) == []


class TestBackendPlumbing:
    def test_unknown_backend_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown solver backend"):
            CircuitSolver(backend="bogus")

    def test_unknown_backend_rejected_at_evaluate(self, wavelengths, solver):
        with pytest.raises(ValueError, match="unknown solver backend"):
            solver.evaluate(_ring_netlist(), wavelengths, backend="bogus")

    def test_all_declared_backends_accepted(self, wavelengths):
        for backend in SOLVER_BACKENDS:
            CircuitSolver(backend=backend).evaluate(
                _ring_netlist(), wavelengths, backend=backend
            )

    def test_evaluate_netlist_reuses_module_default_solver(self, wavelengths):
        shared = default_solver()
        netlist = _ring_netlist()
        evaluate_netlist(netlist, wavelengths)
        hits_before = shared.instance_cache_stats().hits
        evaluate_netlist(netlist, wavelengths)
        assert default_solver() is shared
        # The second convenience call must hit the shared instance cache.
        assert shared.instance_cache_stats().hits >= hits_before + 2

    def test_evaluate_netlist_accepts_backend(self, wavelengths):
        dense = evaluate_netlist(_ring_netlist(), wavelengths, backend="dense")
        cascade = evaluate_netlist(_ring_netlist(), wavelengths, backend="cascade")
        assert _max_abs_diff(dense, cascade) <= EQUIVALENCE_ATOL

    def test_engine_cache_key_is_backend_invariant(self, wavelengths):
        netlist = _ring_netlist()
        dense_engine = ExecutionEngine(EngineConfig(solver_backend="dense"))
        cascade_engine = ExecutionEngine(EngineConfig(solver_backend="cascade"))
        assert dense_engine.simulation_key(netlist, wavelengths) == cascade_engine.simulation_key(
            netlist, wavelengths
        )
        dense_result = dense_engine.evaluate(netlist, wavelengths)
        cascade_result = cascade_engine.evaluate(netlist, wavelengths)
        assert _max_abs_diff(dense_result, cascade_result) <= EQUIVALENCE_ATOL

    def test_engine_threads_backend_to_solver(self):
        engine = ExecutionEngine(EngineConfig(solver_backend="cascade"))
        assert engine.solver.backend == "cascade"
        assert engine.config.solver_backend == "cascade"

    def test_sweep_config_threads_backend(self):
        config = SweepConfig(solver_backend="cascade")
        assert config.engine_config().solver_backend == "cascade"

    def test_cli_accepts_solver_backend(self):
        parser = build_parser()
        args = parser.parse_args(["sweep", "--solver-backend", "cascade"])
        assert args.solver_backend == "cascade"

    def test_cli_rejects_unknown_solver_backend(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["sweep", "--solver-backend", "sparse-lu"])


class TestUnvalidatedEdgeCases:
    def test_multi_partner_port_falls_back_to_dense_semantics(self, wavelengths):
        # A port wired to two partners is invalid, but with validation off the
        # cascade backend must still agree with the legacy dense formulation.
        netlist = Netlist(
            instances={
                "sp": Instance("mmi1x2"),
                "a": Instance("waveguide", {"length": 10.0}),
                "b": Instance("waveguide", {"length": 20.0}),
            },
            connections={"sp,O1": "a,I1", "a,O1": "b,I1", "b,O1": "sp,O2"},
            ports={"I1": "sp,I1", "O1": "b,O1"},
            models={"mmi1x2": "mmi1x2", "waveguide": "waveguide"},
        )
        # Re-wire so one endpoint appears twice (two connections on a,O1).
        netlist.connections = {"sp,O1": "a,I1", "a,O1": "b,I1", "sp,O2": "a,O1"}
        netlist.ports = {"I1": "sp,I1", "O1": "b,O1"}
        solver = CircuitSolver(validate=False)
        dense = solver.evaluate(netlist, wavelengths, backend="dense")
        cascade = solver.evaluate(netlist, wavelengths, backend="cascade")
        assert _max_abs_diff(dense, cascade) <= EQUIVALENCE_ATOL

    def test_dangling_ports_supported_by_cascade(self, wavelengths, solver):
        netlist = Netlist(
            instances={"splitter": Instance("mmi1x2")},
            ports={"I1": "splitter,I1", "O1": "splitter,O1"},
            models={"mmi1x2": "mmi1x2"},
        )
        sm = solver.evaluate(netlist, wavelengths, backend="cascade")
        assert np.allclose(sm.transmission("O1", "I1"), 0.5)
