"""Tests for the model registry and the generated API document."""

import numpy as np
import pytest

from repro.sim.models import waveguide
from repro.sim.registry import ModelInfo, ModelRegistry, UnknownModelError, default_registry


#: Values a real-number setting must reject: JSON's ``null``, ``NaN``,
#: ``Infinity`` and ``-Infinity`` (``1e999`` parses to ``inf``).
NONFINITE_VALUES = [None, float("nan"), float("inf"), -float("inf")]


@pytest.fixture(scope="module")
def registry():
    return default_registry()


class TestDefaultRegistry:
    ESSENTIAL_MODELS = [
        "waveguide",
        "phase_shifter",
        "coupler",
        "mmi1x2",
        "mmi2x1",
        "mmi2x2",
        "mzi",
        "mzi2x2",
        "mrr_allpass",
        "mrr_adddrop",
        "mzm",
        "eam",
        "switch2x2",
    ]

    @pytest.mark.parametrize("name", ESSENTIAL_MODELS)
    def test_essential_models_present(self, registry, name):
        # Section IV-A: waveguides, couplers, MMIs, MZIs, MRRs, phase shifters
        # (plus the modulator / switch devices the benchmark problems use).
        assert name in registry

    def test_unknown_model_raises(self, registry):
        with pytest.raises(UnknownModelError, match="available models"):
            registry.get("flux_capacitor")

    def test_every_model_evaluates_with_defaults(self, registry, wavelengths):
        for info in registry:
            sm = info.evaluate(wavelengths)
            assert sm.num_wavelengths == wavelengths.size
            assert set(sm.ports) == set(info.ports)

    def test_every_model_ports_start_with_i_or_o(self, registry):
        for info in registry:
            for port in info.input_ports:
                assert port.startswith("I"), (info.name, port)
            for port in info.output_ports:
                assert port.startswith("O"), (info.name, port)

    def test_parameters_match_callable_defaults(self, registry, wavelengths):
        # Passing every documented parameter explicitly must be accepted.
        for info in registry:
            sm = info.evaluate(wavelengths, **dict(info.parameters))
            assert sm.num_ports == len(info.ports)

    def test_unknown_setting_rejected(self, registry, wavelengths):
        info = registry.get("waveguide")
        with pytest.raises(TypeError, match="unexpected settings"):
            info.evaluate(wavelengths, bogus=1.0)

    @pytest.mark.parametrize("bad", NONFINITE_VALUES, ids=repr)
    def test_every_real_parameter_rejects_none_and_nonfinite_values(self, registry, wavelengths, bad):
        checked = 0
        for info in registry:
            for name, default in info.parameters.items():
                if isinstance(default, bool) or not isinstance(default, (int, float)):
                    continue
                with pytest.raises(ValueError, match=f"setting '{name}' must be a finite number"):
                    info.evaluate(wavelengths, **{name: bad})
                # An array stack (the batched path's variants) holding one
                # non-finite entry is rejected too.
                if bad is not None:
                    with pytest.raises(ValueError, match=f"'{name}'"):
                        info.evaluate(wavelengths, **{name: np.array([default, bad])})
                checked += 1
        assert checked > 40

    def test_names_sorted(self, registry):
        assert list(registry.names()) == sorted(registry.names())

    def test_len_and_iter_consistent(self, registry):
        assert len(list(registry)) == len(registry)


class TestApiDocument:
    def test_contains_every_model(self, registry):
        doc = registry.api_document()
        for name in registry.names():
            assert f"{name}:" in doc

    def test_entry_structure(self, registry):
        entry = registry.get("mzi").api_doc_entry()
        assert "description:" in entry
        assert "input ports: I1" in entry
        assert "delta_length" in entry

    def test_parameterless_entry(self, registry):
        entry = registry.get("terminator").api_doc_entry()
        assert "parameters: none" in entry


class TestCustomRegistry:
    def test_register_and_copy(self, registry, wavelengths):
        custom = registry.copy()
        custom.register(
            ModelInfo(
                name="delayline",
                func=waveguide,
                description="a long waveguide",
                input_ports=("I1",),
                output_ports=("O1",),
                parameters={"length": 1000.0},
            )
        )
        assert "delayline" in custom
        assert "delayline" not in registry
        sm = custom.get("delayline").evaluate(wavelengths, length=10.0)
        assert np.allclose(sm.transmission("O1", "I1"), 1.0)

    def test_contains_rejects_gracefully(self, registry):
        assert "not_a_model" not in registry
