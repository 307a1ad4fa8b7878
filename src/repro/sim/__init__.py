"""Frequency-domain S-parameter circuit simulator (the SAX substitute).

The public surface mirrors what the benchmark needs from SAX:

* a library of built-in device models (:mod:`repro.sim.models`),
* a :class:`~repro.sim.registry.ModelRegistry` describing them,
* a :class:`~repro.sim.circuit.CircuitSolver` that turns a JSON netlist into a
  wavelength-resolved circuit S-matrix, and
* response analysis utilities (:mod:`repro.sim.analysis`).
"""

from .analysis import ComparisonResult, FrequencyResponse, compare_responses
from .batch import BatchStats, apply_settings, batch_evaluate_model, fuse_sample_matrices
from .circuit import SOLVER_BACKENDS, CircuitSolver, default_solver, evaluate_netlist
from .plan import CascadePlan, CompiledCircuit, compile_netlist
from .registry import ModelInfo, ModelRegistry, UnknownModelError, default_registry
from .sparams import SMatrix, is_reciprocal, is_unitary, power_transmission, sdict_to_smatrix

__all__ = [
    "SMatrix",
    "sdict_to_smatrix",
    "is_reciprocal",
    "is_unitary",
    "power_transmission",
    "ModelInfo",
    "ModelRegistry",
    "UnknownModelError",
    "default_registry",
    "SOLVER_BACKENDS",
    "BatchStats",
    "apply_settings",
    "batch_evaluate_model",
    "fuse_sample_matrices",
    "CascadePlan",
    "CompiledCircuit",
    "compile_netlist",
    "CircuitSolver",
    "default_solver",
    "evaluate_netlist",
    "FrequencyResponse",
    "ComparisonResult",
    "compare_responses",
]
