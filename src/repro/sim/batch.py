"""Batched settings-axis execution over compiled circuit plans.

Sweeps evaluate hundreds of *structurally identical* netlists whose samples
differ only in instance settings (:mod:`repro.sim.plan` compiles the shared
structure exactly once).  Yet each sample still paid a full executor pass:
one seeded workspace, one walk over the level schedule, one set of feedback
solves -- ``S`` samples, ``S`` times the per-pass Python overhead.  This
module adds the missing **batch axis** ``B``:

* :func:`batch_evaluate_model` evaluates one device model for a whole stack
  of settings variants at once -- **vectorised** when the model accepts
  array parameters (the variants' parameters are expanded along a tiled
  wavelength axis and the model is called exactly once), with a
  loop-and-stack **fallback** for models that validate or coerce their
  settings in scalar-only ways.  Either way the result is the stacked
  ``(B, W, n, n)`` instance data the executor needs.
* :func:`fuse_sample_matrices` folds the batch axis into the wavelength
  axis: every step of the compiled executor -- the injection seeds, the
  level pulls, the coefficient gathers and the feedback-cluster
  ``(W, n, n)`` solves -- is elementwise along the wavelength axis, so
  executing the fused ``(B*W, n, n)`` stack *is* executing with a leading
  batch dimension: one pass computes all ``B`` samples, and the per-level
  Python overhead is paid once instead of ``B`` times.  Feedback clusters
  become one ``(B*W, n, n)`` batched solve.
* :func:`apply_settings` derives one sample's concrete netlist from a base
  netlist plus a settings-override mapping -- the per-sample loop the batch
  path replaces (and the representation the engine's batch-aware cache keys
  are computed from, so batched results still hit per-sample entries).

:meth:`repro.sim.circuit.CircuitSolver.evaluate_batch` drives these pieces:
it groups samples by topology fingerprint (a draw that flips a structural
mask -- say a coupling ratio hitting exactly zero -- lands in its own group
with its own compiled plan) and runs one fused executor pass per group.
Because the fused pass performs the very same elementwise operations and
per-wavelength solves as ``B`` individual passes, batched execution matches
the per-sample loop to solver round-off -- well below the 1e-9 budget the
property-based differential suite enforces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..netlist.schema import Instance, Netlist
from .registry import ModelInfo
from .sparams import SMatrix

__all__ = [
    "BatchStats",
    "SettingsBatch",
    "apply_settings",
    "check_override_names",
    "merge_settings",
    "merged_instance_settings",
    "batch_evaluate_model",
    "fuse_sample_matrices",
    "fuse_sample_stacks",
]

#: One sample's settings overrides: per instance name, the settings to merge
#: into that instance's base settings.
SettingsBatch = Mapping[str, Mapping[str, object]]

#: Scalar types a varying parameter may have for the vectorised model path
#: (numpy scalars included; strings and containers force the loop fallback).
_NUMERIC_TYPES = (int, float, np.integer, np.floating)


@dataclass
class BatchStats:
    """Counters of the solver's batched-execution path.

    Attributes
    ----------
    calls:
        Number of ``evaluate_batch`` invocations.
    samples:
        Total settings samples evaluated across all calls.
    executor_passes:
        Fused executor passes actually run (one per topology-fingerprint
        group per call); ``samples - executor_passes`` passes were saved
        relative to the per-sample loop.
    vectorised_model_evals / looped_model_evals:
        Distinct device-model variants evaluated through the vectorised
        array-parameter path versus the scalar loop fallback.
    """

    calls: int = 0
    samples: int = 0
    executor_passes: int = 0
    vectorised_model_evals: int = 0
    looped_model_evals: int = 0

    @property
    def fusion_rate(self) -> float:
        """Fraction of samples whose executor pass was amortised away."""
        if not self.samples:
            return 0.0
        return 1.0 - self.executor_passes / self.samples

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict snapshot (for logs and engine stats)."""
        return {
            "calls": self.calls,
            "samples": self.samples,
            "executor_passes": self.executor_passes,
            "vectorised_model_evals": self.vectorised_model_evals,
            "looped_model_evals": self.looped_model_evals,
            "fusion_rate": self.fusion_rate,
        }


# ----------------------------------------------------------------------
# Settings plumbing
# ----------------------------------------------------------------------
def check_override_names(netlist: Netlist, overrides: Optional[SettingsBatch]) -> None:
    """Raise ``KeyError`` when overrides reference unknown instance names.

    The single definition of the typo guard shared by the per-sample
    (:func:`merged_instance_settings`) and batched
    (:meth:`CircuitSolver.evaluate_batch`) paths.
    """
    unknown = set(overrides or ()) - set(netlist.instances)
    if unknown:
        raise KeyError(
            f"settings overrides reference unknown instance(s) {sorted(unknown)}; "
            f"known instances: {list(netlist.instances)}"
        )


def merge_settings(
    base: Mapping[str, object], override: Optional[Mapping[str, object]]
) -> Dict[str, object]:
    """One instance's effective settings: ``override`` merged into ``base``.

    The single definition of the override semantics -- per-sample
    derivation, batched execution and the engine's batch-aware cache keys
    all share it -- so a Monte-Carlo draw lists only the parameters it
    perturbs.
    """
    if override is None:
        return dict(base)
    return {**base, **override}


def merged_instance_settings(
    netlist: Netlist, overrides: Optional[SettingsBatch]
) -> Dict[str, Dict[str, object]]:
    """Resolve one sample's effective settings for every instance.

    Each override mapping is merged into the instance's base settings
    (:func:`merge_settings`).  Overriding an unknown instance name raises
    ``KeyError`` so a typo in a sweep configuration fails loudly.
    """
    overrides = overrides or {}
    check_override_names(netlist, overrides)
    return {
        name: merge_settings(inst.settings, overrides.get(name))
        for name, inst in netlist.instances.items()
    }


def apply_settings(netlist: Netlist, overrides: Optional[SettingsBatch]) -> Netlist:
    """Derive one sample's concrete netlist from a base plus overrides.

    This is the netlist the per-sample loop would evaluate -- batched
    execution must be indistinguishable from ``evaluate(apply_settings(...))``
    per sample, and the engine keys batched results by the derived netlist's
    content fingerprint so they remain interchangeable with per-sample cache
    entries.
    """
    settings = merged_instance_settings(netlist, overrides)
    return Netlist(
        instances={
            name: Instance(inst.component, settings[name])
            for name, inst in netlist.instances.items()
        },
        connections=dict(netlist.connections),
        ports=dict(netlist.ports),
        models=dict(netlist.models),
    )


# ----------------------------------------------------------------------
# Batched device-model evaluation
# ----------------------------------------------------------------------
def _vectorised_attempt(
    info: ModelInfo,
    wavelengths: np.ndarray,
    settings_list: Sequence[Mapping[str, object]],
) -> Optional[List[SMatrix]]:
    """Try to evaluate all settings variants through one array-parameter call.

    The wavelength grid is tiled ``D`` times and every parameter that varies
    across the variants is expanded to a matching per-point array, so a model
    whose maths is elementwise along the wavelength axis computes all
    variants in one call.  Models that validate (``if not 0 <= x <= 1``) or
    coerce (``float(x)``) their parameters in scalar-only ways raise
    ``TypeError``/``ValueError`` on the array input, which cleanly selects
    the loop fallback.  Variant 0 of a successful call is checked bitwise
    against its scalar evaluation; any deviation (a model that silently
    mishandles array parameters) also falls back.  Returns ``None`` when the
    vectorised path does not apply.
    """
    num_variants = len(settings_list)
    key_sets = {frozenset(settings) for settings in settings_list}
    if len(key_sets) != 1:
        return None
    keys = key_sets.pop()
    try:
        varying = [
            key
            for key in keys
            if any(
                bool(settings_list[0][key] != settings[key])
                for settings in settings_list[1:]
            )
        ]
    except (TypeError, ValueError):
        # Settings whose equality is non-boolean (numpy arrays, exotic
        # objects) are not vectorisable parameter stacks.
        return None
    if not varying:
        return None
    if not all(
        isinstance(settings[key], _NUMERIC_TYPES) and not isinstance(settings[key], bool)
        for key in varying
        for settings in settings_list
    ):
        return None

    num_points = int(wavelengths.size)
    params: Dict[str, object] = {
        key: settings_list[0][key] for key in keys if key not in varying
    }
    for key in varying:
        params[key] = np.repeat(
            np.array([settings[key] for settings in settings_list]), num_points
        )
    try:
        stacked = info.evaluate(np.tile(wavelengths, num_variants), **params)
    except (TypeError, ValueError):
        return None
    num_ports = stacked.num_ports
    if stacked.data.shape != (num_variants * num_points, num_ports, num_ports):
        return None
    data = stacked.data.reshape(num_variants, num_points, num_ports, num_ports)
    # Guard the first AND last variants bitwise against their scalar
    # evaluations: a model that raises on arrays already selected the
    # fallback above, and one that silently collapses an array parameter to
    # a single value (reproducing one variant for all) is caught by the
    # disagreeing endpoint.
    first = info.evaluate(wavelengths, **settings_list[0])
    if first.ports != stacked.ports or not np.array_equal(data[0], first.data):
        return None
    last = info.evaluate(wavelengths, **settings_list[-1])
    if not np.array_equal(data[-1], last.data):
        return None
    variants = [first]
    variants.extend(
        SMatrix(wavelengths, stacked.ports, data[index].copy())
        for index in range(1, num_variants - 1)
    )
    variants.append(last)
    return variants


def batch_evaluate_model(
    info: ModelInfo,
    wavelengths: np.ndarray,
    settings_list: Sequence[Mapping[str, object]],
) -> Tuple[List[SMatrix], bool]:
    """Evaluate one device model for several settings variants.

    Returns the per-variant :class:`~repro.sim.sparams.SMatrix` list (in
    ``settings_list`` order) and whether the vectorised array-parameter path
    was used.  Exceptions raised by the model for a given variant propagate
    exactly as a scalar evaluation of that variant would raise them (the
    vectorised path never swallows them: an array-induced error falls back
    to the scalar loop, which re-raises the genuine per-variant error).
    """
    if len(settings_list) > 1:
        vectorised = _vectorised_attempt(info, wavelengths, settings_list)
        if vectorised is not None:
            return vectorised, True
    return [info.evaluate(wavelengths, **settings) for settings in settings_list], False


# ----------------------------------------------------------------------
# Batch-axis fusion
# ----------------------------------------------------------------------
def fuse_sample_stacks(
    stack_members: Sequence[np.ndarray],
    sample_matrices: Sequence[Sequence[np.ndarray]],
    num_wavelengths: int,
) -> Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray]]:
    """Fuse per-sample instance matrices straight into executor stacks.

    The cascade executor wants both the per-instance ``(B*W, n, n)`` arrays
    (injection seeds, self-loops, cluster fills) and the per-port-count
    stacks its coefficient gathers index
    (:attr:`CompiledCircuit.stack_members`).  Two properties keep the copy
    cost far below a naive per-(member, sample) stack:

    * instances whose per-sample arrays are the *same objects* across the
      whole batch (mesh/fabric netlists instantiate one device dozens of
      times, and the instance cache returns one array per distinct
      settings variant) share a single fused row, and
    * each fused row is copied exactly once, with every member resolving
      to its row through the returned ``stack_positions`` remap.

    Returns ``(matrices, stacks, stack_positions)``: ``matrices[i]`` is a
    view of instance ``i``'s fused ``(B*W, n, n)`` data, ``stacks[k]`` the
    deduplicated ``(u, B*W, n, n)`` stack of stack ``k``, and
    ``stack_positions[k]`` the member-position -> stack-row remap to apply
    to the compiled coefficient gathers.
    """
    num_samples = len(sample_matrices)
    num_instances = len(sample_matrices[0]) if num_samples else 0
    matrices: List[Optional[np.ndarray]] = [None] * num_instances
    stacks: List[np.ndarray] = []
    stack_positions: List[np.ndarray] = []
    for members in stack_members:
        size = int(sample_matrices[0][int(members[0])].shape[1])
        row_of_sources: Dict[Tuple[int, ...], int] = {}
        sources: List[Tuple[np.ndarray, ...]] = []
        positions = np.empty(int(members.size), dtype=int)
        for position, instance in enumerate(members):
            source = tuple(
                sample_matrices[sample][int(instance)] for sample in range(num_samples)
            )
            identity = tuple(map(id, source))
            row = row_of_sources.get(identity)
            if row is None:
                row = len(sources)
                row_of_sources[identity] = row
                sources.append(source)
            positions[position] = row
        fused = np.empty(
            (len(sources), num_samples, num_wavelengths, size, size), dtype=complex
        )
        for row, source in enumerate(sources):
            for sample, data in enumerate(source):
                fused[row, sample] = data
        fused = fused.reshape(len(sources), num_samples * num_wavelengths, size, size)
        stacks.append(fused)
        stack_positions.append(positions)
        for position, instance in enumerate(members):
            matrices[int(instance)] = fused[positions[position]]
    assert all(matrix is not None for matrix in matrices)
    return matrices, stacks, stack_positions  # type: ignore[return-value]


def fuse_sample_matrices(
    sample_matrices: Sequence[Sequence[np.ndarray]], num_wavelengths: int
) -> List[np.ndarray]:
    """Fold per-sample instance matrices into one batch-fused stack.

    ``sample_matrices[b][i]`` is sample ``b``'s ``(W, n, n)`` data for
    instance ``i``; the result holds one ``(B*W, n, n)`` array per instance,
    sample-major, which the compiled executors treat as a ``B*W``-point
    wavelength axis (every executor operation is elementwise along it).
    Samples sharing the *same* array object (instance-cache hits for
    identical settings) are tiled without an intermediate Python-level
    stack.
    """
    num_samples = len(sample_matrices)
    fused: List[np.ndarray] = []
    for index in range(len(sample_matrices[0])):
        first = sample_matrices[0][index]
        if num_samples == 1:
            fused.append(first)
        elif all(sample[index] is first for sample in sample_matrices[1:]):
            fused.append(np.tile(first, (num_samples, 1, 1)))
        else:
            fused.append(
                np.stack([sample[index] for sample in sample_matrices]).reshape(
                    num_samples * num_wavelengths, *first.shape[1:]
                )
            )
    return fused
