"""Tests for the ``variability`` problem pack and its Monte-Carlo yield API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.packs import get_pack, pack_names, unregister_pack
from repro.bench.problems import variability
from repro.bench.suite import all_problems
from repro.engine import ExecutionEngine
from repro.harness.runner import SweepConfig, run_sweep
from repro.netlist.validation import validate_netlist
from repro.sim import CircuitSolver, apply_settings


@pytest.fixture(scope="module")
def pack():
    """The registered variability pack."""
    return get_pack("variability")


@pytest.fixture(scope="module")
def problems(pack):
    """The pack's default corner problems."""
    return pack.build_problems()


class TestPackRegistration:
    def test_pack_is_registered(self):
        assert "variability" in pack_names()

    def test_builtin_pack_is_protected(self):
        with pytest.raises(ValueError, match="cannot be unregistered"):
            unregister_pack("variability")

    def test_default_build_emits_three_families_per_corner(self, problems):
        corners = int(variability.DEFAULT_PARAMS["corners"])
        assert len(problems) == 3 * corners
        for corner in range(corners):
            for key in ("mzi", "ring", "wdm"):
                assert any(p.name == f"var_{key}_c{corner:02d}" for p in problems)

    def test_categories_match_declaration(self, pack, problems):
        assert set(p.category for p in problems) == set(pack.categories)

    def test_suite_enumeration_includes_the_pack(self):
        names = [p.name for p in all_problems("variability")]
        assert "var_mzi_c00" in names

    def test_corner_count_is_parametric(self, pack):
        assert len(pack.build_problems({"corners": 1})) == 3
        assert len(pack.build_problems({"corners": 5})) == 15

    def test_invalid_distribution_rejected(self, pack):
        with pytest.raises(ValueError, match="distribution"):
            pack.build_problems({"distribution": "cauchy"})

    def test_unknown_parameter_rejected(self, pack):
        with pytest.raises(KeyError):
            pack.build_problems({"draws": 5})


class TestCornerGoldens:
    def test_goldens_validate_and_simulate(self, problems, wavelengths, registry):
        solver = CircuitSolver(registry=registry)
        for problem in problems:
            netlist = problem.golden_netlist()
            validate_netlist(netlist, registry, problem.port_spec)
            smatrix = solver.evaluate(netlist, wavelengths, port_spec=problem.port_spec)
            assert smatrix.num_ports == 4

    def test_corners_are_deterministic(self, pack):
        first = pack.build_problems()
        second = pack.build_problems()
        for a, b in zip(first, second):
            assert a.description == b.description
            assert a.golden_netlist().to_json() == b.golden_netlist().to_json()

    def test_corners_actually_differ(self, problems):
        mzi = [p for p in problems if p.name.startswith("var_mzi")]
        settings = [p.golden_netlist().instances["cpIn"].settings["coupling"] for p in mzi]
        assert len(set(settings)) == len(settings)

    def test_descriptions_state_the_exact_corner_values(self, problems):
        for problem in problems:
            netlist = problem.golden_netlist()
            if problem.name.startswith("var_mzi"):
                value = netlist.instances["cpIn"].settings["coupling"]
                assert str(value) in problem.description
            elif problem.name.startswith("var_ring"):
                value = netlist.instances["cpBus"].settings["coupling"]
                assert str(value) in problem.description
            else:  # wdm: the perturbed ring radii appear verbatim
                radii = sorted(
                    inst.settings["radius"]
                    for inst in netlist.instances.values()
                    if "radius" in inst.settings
                )
                assert str(radii[0]) in problem.description

    def test_wdm_corner_uses_the_same_radii_on_both_sides(self, problems):
        for problem in problems:
            if not problem.name.startswith("var_wdm"):
                continue
            netlist = problem.golden_netlist()
            radii = [
                inst.settings["radius"]
                for inst in netlist.instances.values()
                if "radius" in inst.settings
            ]
            assert len(radii) == 4  # 2 mux + 2 demux rings
            assert sorted(radii)[0::2] == sorted(radii)[1::2]  # pairwise equal

    def test_ring_family_is_a_feedback_cluster(self, wavelengths):
        solver = CircuitSolver()
        plan = solver.cascade_plan(variability.ring_filter_nominal(), wavelengths)
        assert plan.feedback  # the explicit ring loop condenses into clusters


class TestPerturbation:
    def test_perturb_settings_only_touches_perturbable_keys(self):
        rng = np.random.default_rng(0)
        overrides = variability.perturb_settings(
            {"coupling": 0.5, "length": 100.0, "state": "cross"},
            rng,
            sigma_coupling=0.05,
            sigma_radius=0.02,
            sigma_loss_db_cm=0.5,
        )
        assert set(overrides) == {"coupling"}

    def test_draws_are_clipped_to_physical_ranges(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            overrides = variability.perturb_settings(
                {"coupling": 0.5, "radius": 5.0, "loss_db_cm": 0.1},
                rng,
                sigma_coupling=10.0,
                sigma_radius=100.0,
                sigma_loss_db_cm=10.0,
            )
            assert 0.0 <= overrides["coupling"] <= 1.0
            assert overrides["radius"] >= 0.05
            assert overrides["loss_db_cm"] >= 0.0

    def test_zero_sigma_disables_a_rule(self):
        rng = np.random.default_rng(2)
        overrides = variability.perturb_settings(
            {"coupling": 0.5, "loss_db_cm": 1.0},
            rng,
            sigma_coupling=0.0,
            sigma_radius=0.02,
            sigma_loss_db_cm=0.5,
        )
        assert "coupling" not in overrides
        assert "loss_db_cm" in overrides

    def test_monte_carlo_settings_draws_are_stable_per_index(self):
        netlist = variability.ring_filter_nominal()
        short = variability.monte_carlo_settings(netlist, 3, seed=7)
        long = variability.monte_carlo_settings(netlist, 6, seed=7)
        assert short == long[:3]

    def test_monte_carlo_settings_uniform_distribution(self):
        netlist = variability.interferometer_nominal()
        batches = variability.monte_carlo_settings(
            netlist, 4, seed=3, distribution="uniform", sigma_coupling=0.1
        )
        for overrides in batches:
            assert abs(overrides["cpIn"]["coupling"] - 0.5) <= 0.1 + 1e-12

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError, match="distribution"):
            variability.monte_carlo_settings(
                variability.interferometer_nominal(), 2, seed=0, distribution="pareto"
            )


class TestYield:
    def test_yield_spec_metrics(self):
        spectrum = np.array([0.1, 0.4, 0.7])
        assert variability.YieldSpec("O1", "I1", 0.0).score(spectrum) == pytest.approx(0.4)
        assert variability.YieldSpec("O1", "I1", 0.0, metric="min").score(spectrum) == 0.1
        assert variability.YieldSpec("O1", "I1", 0.0, metric="max").score(spectrum) == 0.7
        with pytest.raises(ValueError, match="metric"):
            variability.YieldSpec("O1", "I1", 0.0, metric="median").score(spectrum)

    def test_monte_carlo_yield_matches_per_sample_loop(self, wavelengths):
        netlist = variability.ring_filter_nominal()
        spec = variability.YieldSpec("O2", "I1", 0.05, metric="max")
        result = variability.monte_carlo_yield(
            netlist, spec, draws=8, seed=11, wavelengths=wavelengths
        )
        batches = variability.monte_carlo_settings(netlist, 8, seed=11)
        solver = CircuitSolver()
        expected = []
        for overrides in batches:
            smatrix = solver.evaluate(apply_settings(netlist, overrides), wavelengths)
            expected.append(spec.score(smatrix.transmission("O2", "I1")))
        assert result.draws == 8
        assert list(result.metrics) == pytest.approx(expected, abs=1e-12)
        assert result.passes == sum(1 for m in expected if m >= spec.min_transmission)
        assert 0.0 <= result.yield_fraction <= 1.0

    def test_monte_carlo_yield_through_engine_batches(self, wavelengths):
        engine = ExecutionEngine()
        netlist = variability.interferometer_nominal()
        spec = variability.YieldSpec("O1", "I1", 0.0)
        result = variability.monte_carlo_yield(
            netlist, spec, draws=6, seed=2, wavelengths=wavelengths, engine=engine
        )
        assert result.draws == 6
        assert engine.batch_stats().samples == 6
        assert engine.solver.batch_stats().samples == 6

    def test_zero_draws_yield_is_one(self, wavelengths):
        result = variability.monte_carlo_yield(
            variability.interferometer_nominal(),
            variability.YieldSpec("O1", "I1", 0.0),
            draws=0,
            wavelengths=wavelengths,
        )
        assert result.draws == 0
        assert result.yield_fraction == 1.0


class TestSweepIntegration:
    def test_simulated_designer_sweep_over_the_pack(self):
        config = SweepConfig(
            samples_per_problem=1,
            max_feedback_iterations=1,
            num_wavelengths=11,
            pack="variability",
            pack_params={"corners": 1},
        )
        sweep = run_sweep(
            config, profiles=["GPT-4o"], restriction_settings=(False,)
        )
        report = sweep.report("GPT-4o", with_restrictions=False)
        assert report.pack == "variability"
        assert set(report.results) == {"var_mzi_c00", "var_ring_c00", "var_wdm_c00"}
        assert all(len(samples) == 1 for samples in report.results.values())
