"""Tests for golden designs and the golden-response store."""

import numpy as np
import pytest

from repro.bench import get_problem, golden_response
from repro.bench.problems.interconnects import (
    WDM_CHANNEL_RADII,
    optical_hybrid_golden,
    qam64_modulator_golden,
    wdm_demux_golden,
)
from repro.bench.problems.optical_computing import NLS_ETA_CENTER, NLS_ETA_OUTER, nls_golden
from repro.sim import evaluate_netlist, is_unitary
from tests.conftest import TEST_NUM_WAVELENGTHS


class TestGoldenStore:
    def test_response_cached_in_memory(self, golden_store, mzi_ps_problem):
        first = golden_store.response_for(mzi_ps_problem)
        second = golden_store.response_for(mzi_ps_problem)
        assert first is second

    def test_response_by_name(self, golden_store):
        response = golden_store.response_for("mzm")
        assert set(response.ports) == {"I1", "O1"}

    def test_wavelength_grid_matches_band(self, golden_store):
        assert golden_store.wavelengths[0] == pytest.approx(1.510)
        assert golden_store.wavelengths[-1] == pytest.approx(1.590)

    def test_module_level_helper(self):
        response = golden_response("direct_modulator", num_wavelengths=TEST_NUM_WAVELENGTHS)
        assert response.wavelengths.size == TEST_NUM_WAVELENGTHS


class TestGoldenPhysics:
    def test_all_goldens_simulate(self, golden_store, suite):
        for problem in suite:
            response = golden_store.response_for(problem)
            for spectrum in response.transmission.values():
                assert np.all(np.isfinite(spectrum))
                # Gate-switch fabrics are idealised (finite extinction leakage
                # paths can interfere constructively), so allow a small margin
                # above unity instead of demanding strict passivity.
                assert np.all(spectrum <= 1.0 + 1e-2), problem.name

    def test_nls_uses_klm_reflectivities(self):
        netlist = nls_golden()
        couplings = [inst.settings["coupling"] for inst in netlist.instances.values()]
        assert couplings.count(pytest.approx(NLS_ETA_OUTER)) == 2
        assert couplings.count(pytest.approx(NLS_ETA_CENTER)) == 1

    def test_nls_is_unitary(self, wavelengths):
        assert is_unitary(evaluate_netlist(nls_golden(), wavelengths), atol=1e-8)

    def test_optical_hybrid_splits_power_evenly(self, single_wavelength):
        sm = evaluate_netlist(optical_hybrid_golden(), single_wavelength)
        for out in ("O1", "O2", "O3", "O4"):
            assert sm.transmission(out, "I1")[0] == pytest.approx(0.25, abs=1e-9)
            assert sm.transmission(out, "I2")[0] == pytest.approx(0.25, abs=1e-9)

    def test_wdm_demux_channels_separate(self):
        from repro.constants import default_wavelength_grid

        wl = default_wavelength_grid(401)
        sm = evaluate_netlist(wdm_demux_golden(), wl)
        peak_positions = [np.argmax(sm.transmission(f"O{k}", "I1")) for k in range(1, 5)]
        # Each channel drops at a different wavelength.
        assert len(set(peak_positions)) == 4
        assert len(WDM_CHANNEL_RADII) == 4

    def test_qam64_has_three_iq_stages(self):
        netlist = qam64_modulator_golden()
        mzm_count = sum(1 for inst in netlist.instances.values() if inst.component == "mzm")
        assert mzm_count == 6  # two MZMs per IQ stage, three stages
        assert netlist.num_instances() == 21

    def test_mesh_goldens_pass_all_power(self, golden_store):
        # With all MZIs at default settings the mesh is lossless: the column
        # sums of |S|^2 from any input over all outputs equal 1.
        response = golden_store.response_for("clements_4x4")
        for inp in (f"I{k}" for k in range(1, 5)):
            total = sum(
                response.transmission[(f"O{k}", inp)] for k in range(1, 5)
            )
            assert np.allclose(total, 1.0, atol=1e-8)

    def test_switch_fabric_golden_is_permutation_like(self, golden_store):
        # Default states route every input to exactly one output at full power.
        response = golden_store.response_for("benes_4x4")
        matrix = np.array(
            [
                [response.transmission[(f"O{o}", f"I{i}")][0] for i in range(1, 5)]
                for o in range(1, 5)
            ]
        )
        assert np.allclose(matrix.sum(axis=0), 1.0, atol=1e-6)
        assert np.allclose(matrix.max(axis=0), 1.0, atol=1e-6)
