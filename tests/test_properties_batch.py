"""Property-based differential fuzzer for batched execution.

Extends the ``test_properties*.py`` family: hypothesis generates random
two-rail circuit topologies (couplers, MZI cells, crossings, parallel arm
devices, all-pass ring feedback clusters, and an asymmetric isolator-like
device that disables the reciprocity cover) together with random settings
batches, and asserts that batched execution is numerically equivalent
(<= 1e-9) to the per-sample ``CircuitSolver.evaluate`` loop across the
dense backend and the compiled level-batched cascade, with dense as the
reference.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist import Instance, Netlist
from repro.sim import CircuitSolver, ModelInfo, SMatrix, apply_settings, default_registry

EQUIVALENCE_ATOL = 1e-9
WAVELENGTHS = np.linspace(1.51, 1.59, 5)

#: Stage kinds the random two-rail circuits are assembled from.
STAGE_KINDS = ("coupler", "mzi2x2", "crossing", "arms", "ring_top", "isolator_top")


def _registry_with_isolator():
    """The default registry plus a non-reciprocal (isolator-like) device.

    Its asymmetric S-matrix disables the solver's reciprocity-cover
    schedule, so the fuzzer also exercises the full schedule.
    """
    registry = default_registry().copy()
    base = registry.get("waveguide")

    def isolator(wavelengths, **model_settings):
        """One-way waveguide: the backward path is killed."""
        smatrix = base.func(wavelengths, **model_settings)
        data = smatrix.data.copy()
        data[:, 0, 1] = 0.0
        return SMatrix(smatrix.wavelengths, smatrix.ports, data)

    registry.register(
        ModelInfo(
            name="isolator",
            func=isolator,
            description="One-way waveguide (asymmetric test device)",
            input_ports=base.input_ports,
            output_ports=base.output_ports,
            parameters=dict(base.parameters),
        )
    )
    return registry


REGISTRY = _registry_with_isolator()
SOLVER = CircuitSolver(registry=REGISTRY)


def _stage_settings(kind, draw, floats):
    """Draw one sample's settings for every instance of one stage."""
    if kind == "coupler":
        return {"cp": {"coupling": draw(floats(0.05, 0.95))}}
    if kind == "mzi2x2":
        return {
            "mzi": {
                "theta": draw(floats(-np.pi, np.pi)),
                "phi": draw(floats(-np.pi, np.pi)),
            }
        }
    if kind == "crossing":
        return {"x": {"loss_db": draw(floats(0.0, 3.0))}}
    if kind == "arms":
        return {
            "a": {"length": draw(floats(1.0, 150.0)), "loss_db_cm": draw(floats(0.0, 5.0))},
            "b": {"length": draw(floats(1.0, 150.0)), "phase": draw(floats(-np.pi, np.pi))},
        }
    if kind == "ring_top":
        return {
            "cp": {"coupling": draw(floats(0.05, 0.95))},
            "loop": {"length": draw(floats(5.0, 80.0)), "loss_db_cm": draw(floats(0.1, 5.0))},
        }
    assert kind == "isolator_top"
    return {"iso": {"length": draw(floats(1.0, 120.0)), "loss_db_cm": draw(floats(0.0, 5.0))}}


def _build_two_rail(stage_kinds, stage_settings):
    """Assemble a two-rail circuit from stage kinds plus per-stage settings.

    ``stage_settings[i]`` maps the stage's local instance keys to settings;
    returns the netlist and the per-stage instance-name mapping (local key
    to netlist instance name) used to express other samples as overrides.
    """
    instances = {}
    connections = {}
    ports = {}
    models = {
        "coupler": "coupler",
        "mzi2x2": "mzi2x2",
        "crossing": "crossing",
        "waveguide": "waveguide",
        "phase_shifter": "phase_shifter",
        "isolator": "isolator",
    }
    top = None  # open output endpoint of the top rail ("inst,port")
    bot = None
    name_maps = []

    def attach(rail_endpoint, external, input_endpoint):
        """Wire a rail (or the external input) into a stage input."""
        if rail_endpoint is None:
            ports[external] = input_endpoint
        else:
            connections[rail_endpoint] = input_endpoint

    for index, (kind, local_settings) in enumerate(zip(stage_kinds, stage_settings)):
        prefix = f"s{index}"
        name_map = {}
        if kind in ("coupler", "mzi2x2", "crossing"):
            local = {"coupler": "cp", "mzi2x2": "mzi", "crossing": "x"}[kind]
            name = f"{prefix}{local}"
            name_map[local] = name
            instances[name] = Instance(kind, dict(local_settings[local]))
            attach(top, "I1", f"{name},I1")
            attach(bot, "I2", f"{name},I2")
            top, bot = f"{name},O1", f"{name},O2"
        elif kind == "arms":
            name_a, name_b = f"{prefix}a", f"{prefix}b"
            name_map["a"], name_map["b"] = name_a, name_b
            instances[name_a] = Instance("waveguide", dict(local_settings["a"]))
            instances[name_b] = Instance("phase_shifter", dict(local_settings["b"]))
            attach(top, "I1", f"{name_a},I1")
            attach(bot, "I2", f"{name_b},I1")
            top, bot = f"{name_a},O1", f"{name_b},O1"
        elif kind == "ring_top":
            name_cp, name_loop = f"{prefix}cp", f"{prefix}loop"
            name_map["cp"], name_map["loop"] = name_cp, name_loop
            instances[name_cp] = Instance("coupler", dict(local_settings["cp"]))
            instances[name_loop] = Instance("waveguide", dict(local_settings["loop"]))
            attach(top, "I1", f"{name_cp},I1")
            connections[f"{name_cp},O2"] = f"{name_loop},I1"
            connections[f"{name_loop},O1"] = f"{name_cp},I2"
            top = f"{name_cp},O1"
        else:  # isolator_top
            name = f"{prefix}iso"
            name_map["iso"] = name
            instances[name] = Instance("isolator", dict(local_settings["iso"]))
            attach(top, "I1", f"{name},I1")
            top = f"{name},O1"
        name_maps.append(name_map)

    if top is not None:
        ports["O1"] = top
    if bot is not None:
        ports["O2"] = bot
    netlist = Netlist(
        instances=instances, connections=connections, ports=ports, models=models
    )
    return netlist, name_maps


@st.composite
def two_rail_cases(draw):
    """A random topology plus a random settings batch over it."""
    floats = lambda lo, hi: st.floats(  # noqa: E731 - tiny local helper
        min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False
    )
    num_stages = draw(st.integers(min_value=1, max_value=4))
    stage_kinds = tuple(
        draw(st.sampled_from(STAGE_KINDS)) for _ in range(num_stages)
    )
    num_samples = draw(st.integers(min_value=1, max_value=3))
    per_sample = []
    for _ in range(num_samples):
        per_sample.append(
            [_stage_settings(kind, draw, floats) for kind in stage_kinds]
        )
    netlist, name_maps = _build_two_rail(stage_kinds, per_sample[0])
    batch = []
    for sample in per_sample:
        overrides = {}
        for stage_settings, name_map in zip(sample, name_maps):
            for local, settings_dict in stage_settings.items():
                overrides[name_map[local]] = dict(settings_dict)
        batch.append(overrides)
    return netlist, batch


@given(two_rail_cases())
@settings(max_examples=30, deadline=None)
def test_batched_execution_matches_per_sample_loop_across_backends(case):
    netlist, batch = case
    batched_cascade = SOLVER.evaluate_batch(
        netlist, batch, WAVELENGTHS, backend="cascade"
    )
    batched_dense = SOLVER.evaluate_batch(netlist, batch, WAVELENGTHS, backend="dense")
    batched_auto = SOLVER.evaluate_batch(netlist, batch, WAVELENGTHS)

    for overrides, from_cascade, from_dense, from_auto in zip(
        batch, batched_cascade, batched_dense, batched_auto
    ):
        derived = apply_settings(netlist, overrides)
        dense = SOLVER.evaluate(derived, WAVELENGTHS, backend="dense")
        cascade = SOLVER.evaluate(derived, WAVELENGTHS, backend="cascade")

        for result in (from_cascade, from_dense, from_auto, cascade):
            assert float(np.max(np.abs(result.data - dense.data))) <= EQUIVALENCE_ATOL


@given(
    couplings=st.lists(
        st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
        min_size=1,
        max_size=4,
    ),
    lengths=st.lists(
        st.floats(min_value=5.0, max_value=80.0, allow_nan=False),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=25, deadline=None)
def test_feedback_cluster_batches_match_loop(couplings, lengths):
    """Dedicated ring fuzz: every sample re-tunes the feedback cluster."""
    netlist = Netlist(
        instances={
            "cp": Instance("coupler", {"coupling": 0.2}),
            "loop": Instance("waveguide", {"length": 31.4, "loss_db_cm": 1.0}),
        },
        connections={"cp,O2": "loop,I1", "loop,O1": "cp,I2"},
        ports={"I1": "cp,I1", "O1": "cp,O1"},
        models={"coupler": "coupler", "waveguide": "waveguide"},
    )
    batch = [
        {"cp": {"coupling": coupling}, "loop": {"length": length}}
        for coupling, length in zip(couplings, lengths)
    ]
    batched = SOLVER.evaluate_batch(netlist, batch, WAVELENGTHS, backend="cascade")
    for overrides, result in zip(batch, batched):
        loop = SOLVER.evaluate(
            apply_settings(netlist, overrides), WAVELENGTHS, backend="dense"
        )
        assert float(np.max(np.abs(result.data - loop.data))) <= EQUIVALENCE_ATOL
