"""Tests for frequency-response extraction and golden comparison."""

import numpy as np
import pytest

from repro.sim import SMatrix, compare_responses, evaluate_netlist
from repro.sim.analysis import ComparisonResult, FrequencyResponse
from repro.bench.problems.fundamental import mzi_ps_golden, mzm_golden


@pytest.fixture
def golden_response(wavelengths):
    return FrequencyResponse.from_smatrix(evaluate_netlist(mzi_ps_golden(), wavelengths))


class TestFrequencyResponse:
    def test_from_smatrix_covers_all_pairs(self, golden_response):
        assert set(golden_response.ports) == {"I1", "O1"}
        assert len(golden_response.transmission) == 4

    def test_values_are_powers(self, golden_response):
        for spectrum in golden_response.transmission.values():
            assert np.all(spectrum >= 0.0)
            assert np.all(spectrum <= 1.0 + 1e-9)


class TestCompareResponses:
    def test_identical_passes(self, wavelengths, golden_response):
        candidate = evaluate_netlist(mzi_ps_golden(), wavelengths)
        result = compare_responses(candidate, golden_response)
        assert result.passed
        assert result.max_abs_error < 1e-12

    def test_comparison_result_truthiness(self, wavelengths, golden_response):
        candidate = evaluate_netlist(mzi_ps_golden(), wavelengths)
        assert bool(compare_responses(candidate, golden_response))

    def test_parameter_change_fails(self, wavelengths, golden_response):
        modified = mzi_ps_golden(delta_length=25.0)
        result = compare_responses(evaluate_netlist(modified, wavelengths), golden_response)
        assert not result.passed
        assert result.mismatched_pairs
        assert "deviates" in result.reason

    def test_different_structure_fails(self, wavelengths, golden_response):
        result = compare_responses(evaluate_netlist(mzm_golden(), wavelengths), golden_response)
        assert not result.passed

    def test_port_name_mismatch_fails(self, wavelengths, golden_response):
        candidate = evaluate_netlist(mzi_ps_golden(), wavelengths)
        renamed = candidate.renamed({"O1": "out"})
        result = compare_responses(renamed, golden_response)
        assert not result.passed
        assert "port names" in result.reason

    def test_wavelength_grid_mismatch_fails(self, golden_response):
        other_grid = np.linspace(1.52, 1.58, golden_response.wavelengths.size)
        candidate = evaluate_netlist(mzi_ps_golden(), other_grid)
        result = compare_responses(candidate, golden_response)
        assert not result.passed
        assert "wavelength" in result.reason

    def test_tolerance_is_respected(self, wavelengths, golden_response):
        # A barely-different design passes with a loose tolerance.
        modified = mzi_ps_golden(delta_length=10.0001)
        candidate = evaluate_netlist(modified, wavelengths)
        loose = compare_responses(candidate, golden_response, atol=0.5)
        assert loose.passed

    def test_all_nan_candidate_fails(self, wavelengths, golden_response):
        # max(0.0, nan) is 0.0 and nan > atol is False: a NaN spectrum must not
        # slip through as a perfect match.
        candidate = evaluate_netlist(mzi_ps_golden(), wavelengths)
        nan = SMatrix(candidate.wavelengths, candidate.ports, np.full_like(candidate.data, np.nan))
        result = compare_responses(nan, golden_response)
        assert not result.passed
        assert result.max_abs_error == float("inf")
        assert result.mismatched_pairs == list(golden_response.transmission)
