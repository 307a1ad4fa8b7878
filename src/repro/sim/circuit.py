"""Frequency-domain circuit evaluation (the SAX-substitute solver).

Given a validated netlist, the solver:

1. evaluates every instance's device model over the wavelength grid (served
   from a per-device LRU sub-cache, looked up once per distinct device per
   call),
2. fetches -- or compiles and caches -- the netlist's
   :class:`~repro.sim.plan.CompiledCircuit`: the flattened port index,
   connection structure, SCC condensation and level-batched execution
   schedule, keyed by a topology fingerprint so structurally identical
   netlists (the common case: pass@k samples mutate settings far more often
   than topology) compile exactly once,
3. executes the compiled plan against the concrete instance S-matrices,
   computing the composed response

   ``S_circuit = E.T @ (I - S @ C)^{-1} @ S @ E``

   where ``S`` is the block-diagonal matrix of all instance S-matrices.

:meth:`CircuitSolver.evaluate`, :meth:`CircuitSolver.evaluate_batch` and
:meth:`CircuitSolver.compile` share one body: a resolve step (1 and 2, for
every settings sample of the call) and a solve step (3, with the samples
fused along the wavelength axis).  ``evaluate`` and ``compile`` pass one
sample with no overrides.

Two executors evaluate that expression (:mod:`repro.sim.plan`):

``dense``
    Assembles the full ``(W, P, P)`` system and batch-solves it with
    ``numpy.linalg.solve`` -- ``O(W * P^3)``.  Because ``C`` and ``E`` are
    permutation-like, the system and right-hand side are built by column
    gathers instead of matmuls, so no ``P x P`` identity or ``S @ C``
    temporary is ever materialised.
``cascade``
    The structure-aware executor: evaluates the acyclic condensation of the
    port-level signal-flow graph in topological *levels* -- each level is one
    fancy-indexed multiply-add plus a segment sum over all of the level's
    edges -- solving a small local dense system only for genuine feedback
    clusters (rings).  Feed-forward meshes and switch fabrics never touch a
    global solve.  The dense backend is the differential oracle the test
    suite checks it against.
``auto``
    Picks ``dense`` for small circuits (where one vectorised solve beats the
    cascade's per-component bookkeeping) and ``cascade`` otherwise.

Both executors evaluate the same linear system and agree to well below 1e-9;
backend choice is a performance knob, never a semantic one (engine cache
keys deliberately exclude it, and the plan cache is shared by both).
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .._cache import CacheStats, LRUCache
from .._fingerprint import func_identity, settings_fingerprint
from ..constants import normalize_wavelengths
from ..netlist.errors import OtherSyntaxError
from ..netlist.schema import Instance, Netlist
from ..netlist.validation import PortSpec, validate_netlist
from .batch import (
    BatchStats,
    SettingsBatch,
    batch_evaluate_model,
    check_override_names,
    fuse_sample_matrices,
    fuse_sample_stacks,
    merge_settings,
)
from .guardrails import collect_degradations
from .plan import (
    CascadePlan,
    CompiledCircuit,
    compile_netlist,
    execute_cascade,
    execute_dense,
    structural_masks,
    topology_fingerprint,
)
from .registry import ModelRegistry, UnknownModelError, default_registry
from .sparams import SMatrix

__all__ = ["SOLVER_BACKENDS", "CircuitSolver", "default_solver", "evaluate_netlist"]

#: Recognised solver backend names.
SOLVER_BACKENDS: Tuple[str, ...] = ("auto", "dense", "cascade")

#: ``auto`` uses the dense backend up to this many flattened instance ports
#: (measured crossover: one vectorised global solve beats the cascade's
#: per-component bookkeeping only for the very smallest circuits).
_AUTO_DENSE_MAX_PORTS = 12

#: Bound on the function-identity memo; exceeding it clears the memo, it
#: never grows past this size.
_MEMO_MAX_ENTRIES = 8192

#: Filename prefix of spilled compiled plans under ``plan_dir``.
_PLAN_PREFIX = "plan-"

#: Layout tag of spilled plans, part of every spill's file name.  Bump it
#: whenever :class:`~repro.sim.plan.CompiledCircuit`'s layout changes: a
#: plan spilled under another layout then sits under another name, so it is
#: recompiled instead of handed to this executor.
_PLAN_FORMAT = "v3"

#: Target bytes of one fused executor pass's working set (coefficient
#: array, workspace, contribution buffer, output block).  Batched execution
#: fuses at most as many samples per pass as fit the budget: fusing more
#: spills the last-level cache and measurably regresses below the
#: per-sample loop on large fabrics, while small circuits fuse whole
#: batches.  Purely a performance knob -- results are identical for any
#: passes split.
_BATCH_FUSION_TARGET_BYTES = 16 << 20

#: One sample with no settings overrides: how :meth:`CircuitSolver.evaluate`
#: and :meth:`CircuitSolver.compile` enter the shared batched body.
_ONE_SAMPLE: Tuple[SettingsBatch, ...] = ({},)

#: Instance-cache key of one device evaluation: ``(registry ref, function
#: identity, settings fingerprint, wavelength-grid bytes)``.
_DeviceKey = Tuple[str, str, str, bytes]


def _check_backend(backend: str) -> str:
    """Validate a backend name, returning it unchanged."""
    if backend not in SOLVER_BACKENDS:
        raise ValueError(
            f"unknown solver backend {backend!r}; choose one of {list(SOLVER_BACKENDS)}"
        )
    return backend


@dataclass(frozen=True)
class _InstanceRecord:
    """One cached device evaluation: the S-matrix plus derived structure.

    The structural mask (and its raw bytes, part of the topology
    fingerprint) and the exact-symmetry flag (gates the reciprocity-cover
    executor) are computed once per distinct device evaluation rather than
    on every ``evaluate`` call.
    """

    smatrix: SMatrix
    mask: np.ndarray
    mask_bytes: bytes
    symmetric: bool


@dataclass
class _Resolved:
    """One call's solve inputs, as :meth:`CircuitSolver._resolve` leaves them.

    ``records[i][v]`` is instance ``i``'s record for its settings variant
    ``v``, and ``variant_of_sample[i][s]`` the variant sample ``s`` uses;
    ``groups`` pairs each topology's compiled plan with its samples.  The
    two counters split the device variants evaluated by this call between
    :func:`batch_evaluate_model`'s vectorised and looped paths.
    """

    records: List[List[_InstanceRecord]]
    variant_of_sample: List[List[int]]
    groups: List[Tuple[CompiledCircuit, List[int]]] = field(default_factory=list)
    vectorised_evals: int = 0
    looped_evals: int = 0

    def record(self, index: int, sample: int) -> _InstanceRecord:
        """The record instance ``index`` uses for ``sample``."""
        return self.records[index][self.variant_of_sample[index][sample]]


def _variant_fingerprint(base: str, override: Optional[Mapping[str, object]]) -> str:
    """Settings fingerprint of one instance under one sample's override.

    Composed from the instance's base fingerprint and the override's
    fingerprint instead of serialising the merged dict: the composition is
    injective on *content* (equal (base, override) contents always produce
    equal strings), so batched instance-cache keys are stable and
    deduplicate across calls -- two different compositions that happen to
    merge to the same settings merely occupy two cache entries, they can
    never serve wrong data.  An absent or empty override leaves the
    instance's own settings, hence its base fingerprint.
    """
    if not override:
        return base
    return "\x1d".join((base, settings_fingerprint(override), "m"))


class CircuitSolver:
    """Evaluates netlists into circuit-level S-matrices.

    Parameters
    ----------
    registry:
        The model registry used to resolve the netlist's ``models`` section;
        defaults to :func:`repro.sim.registry.default_registry`.
    validate:
        When true (default), the netlist is validated before evaluation so
        that failures raise classified :class:`PICBenchError` subclasses.
    instance_cache_entries:
        Capacity of the per-device sub-cache: device model evaluations are
        memoised on ``(model ref, model identity, frozen settings, grid)``,
        so the many structurally repeated instances of mesh and switch-fabric
        netlists (and repeated ``evaluate`` calls on the same grid) evaluate
        each distinct device exactly once.  ``0`` disables the sub-cache.
    backend:
        Default solver backend (one of :data:`SOLVER_BACKENDS`); individual
        :meth:`evaluate` calls may override it.  All backends produce the
        same result; see the module docstring.
    plan_cache_entries:
        Capacity of the compiled-plan cache, keyed by
        :func:`~repro.sim.plan.topology_fingerprint` (instance models +
        structural masks + connections + external ports, invalidated by
        ``func_identity`` like the instance cache).  Repeated evaluations of
        structurally identical netlists skip assembly, condensation and
        schedule construction entirely.  ``0`` disables the cache (every
        call recompiles -- the cold path).
    plan_dir:
        Optional directory for the disk-backed plan-cache spill: every
        compiled plan is additionally pickled (atomically, unless the file
        already exists) to ``plan_dir/plan-v3-<fingerprint>.pkl`` (``v3``
        tags the plan layout), and a memory-tier miss tries the spill
        before recompiling; a spill that fails to load is renamed to
        ``<spill>.corrupt`` and replaced.  This is what lets later
        processes (a later sweep, an isolated retry, a process-mode service
        job) reuse structure work: topology fingerprints are content-derived and model
        identities are ``module.qualname`` strings, so a plan spilled by one
        process is valid in any other process running the same code.  The
        directory is trusted (pickle is loaded from it) -- point it only at
        paths this run controls, like the sweep's cache directory.
    """

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        *,
        validate: bool = True,
        instance_cache_entries: int = 512,
        backend: str = "auto",
        plan_cache_entries: int = 128,
        plan_dir: Optional[Path | str] = None,
    ) -> None:
        self.registry = registry if registry is not None else default_registry()
        self.validate = validate
        self.backend = _check_backend(backend)
        self.plan_dir = Path(plan_dir) if plan_dir is not None else None
        if self.plan_dir is not None:
            try:
                self.plan_dir.mkdir(parents=True, exist_ok=True)
            except (FileExistsError, NotADirectoryError) as exc:
                raise ValueError(
                    f"plan_dir {str(self.plan_dir)!r} exists and is not a directory"
                ) from exc
        self._instance_cache: LRUCache[_DeviceKey, _InstanceRecord] = LRUCache(
            max_entries=instance_cache_entries
        )
        self._plan_cache: LRUCache[str, CompiledCircuit] = LRUCache(
            max_entries=plan_cache_entries
        )
        # Structural-validation verdicts: a (fingerprint, port spec) pair
        # that validated once never needs re-validation -- the fingerprint
        # covers everything validate_netlist inspects (validation is
        # settings-independent).
        self._validated: LRUCache[Tuple[str, Optional[Tuple[int, int]]], bool] = (
            LRUCache(max_entries=max(4 * plan_cache_entries, 64))
        )
        # Function identities keyed by (ref, registry version), see
        # _instance_key.  Guarded by a lock: the solver is shared
        # process-wide through default_solver() and by every parallel sweep
        # worker of one engine, and a plain dict with a clear-on-overflow
        # policy is not safe to mutate concurrently.
        self._memo_lock = threading.Lock()
        self._func_id_memo: Dict[Tuple[str, int], str] = {}
        self._batch_stats = BatchStats()
        # Numerical-guardrail firings (see repro.sim.guardrails): counted
        # under the memo lock, surfaced through degradation_stats().
        self._degradations: Dict[str, int] = {"singular": 0, "nonfinite": 0}

    def instance_cache_stats(self) -> CacheStats:
        """Hit/miss counters of the per-device evaluation sub-cache.

        Every call counts one lookup per distinct device key: a hit when
        the sub-cache held it, a miss when the device was evaluated.
        """
        return self._instance_cache.stats

    def plan_cache_stats(self) -> CacheStats:
        """Hit/miss counters of the compiled-plan cache."""
        return self._plan_cache.stats

    def batch_stats(self) -> BatchStats:
        """Counters of the batched-execution path (see :class:`BatchStats`)."""
        return self._batch_stats

    def degradation_stats(self) -> Dict[str, int]:
        """Numerical-guardrail firings: least-squares fallback solves by reason."""
        with self._memo_lock:
            counts = dict(self._degradations)
        counts["total"] = counts["singular"] + counts["nonfinite"]
        return counts

    def _count_degradations(self, events: Sequence[Dict[str, str]]) -> bool:
        """Fold collected guardrail events into the counters; True when any."""
        if not events:
            return False
        with self._memo_lock:
            for event in events:
                reason = event.get("reason", "nonfinite")
                self._degradations[reason] = self._degradations.get(reason, 0) + 1
        return True

    # ------------------------------------------------------------------
    # Plan cache: memory tier + optional disk spill
    # ------------------------------------------------------------------
    def _plan_path(self, fingerprint: str) -> Optional[Path]:
        """Spill file of one plan under ``plan_dir`` (``None`` without one)."""
        if self.plan_dir is None:
            return None
        return self.plan_dir / f"{_PLAN_PREFIX}{_PLAN_FORMAT}-{fingerprint}.pkl"

    def _plan_lookup(self, fingerprint: str) -> Optional[CompiledCircuit]:
        """Fetch a compiled plan: memory first, then the disk spill.

        A spill that does not unpickle to this fingerprint's plan (corrupt,
        truncated, foreign) is quarantined like a corrupt simulation-cache
        entry: renamed to ``<spill>.corrupt`` and counted in
        ``disk_corrupt``, so the recompiled plan is spilled in its place
        instead of every later process re-reading the bad file.
        """
        compiled = self._plan_cache.get(fingerprint)
        if compiled is not None:
            return compiled
        path = self._plan_path(fingerprint)
        if path is None or not path.exists():
            return None
        try:
            with path.open("rb") as handle:
                compiled = pickle.load(handle)
        except OSError:
            return None  # unreadable right now (I/O trouble): recompile
        except Exception:  # noqa: BLE001 - corrupt/truncated spill
            compiled = None
        if not isinstance(compiled, CompiledCircuit) or compiled.fingerprint != fingerprint:
            try:
                os.replace(path, path.with_name(path.name + ".corrupt"))
            except OSError:
                return None  # already quarantined (or removed) by another reader
            with self._memo_lock:
                self._plan_cache.stats.disk_corrupt += 1
            return None
        with self._memo_lock:
            self._plan_cache.stats.disk_hits += 1
        self._plan_cache.put(fingerprint, compiled)
        return compiled

    def _plan_store(self, fingerprint: str, compiled: CompiledCircuit) -> None:
        """Cache a freshly compiled plan in memory and spill it to disk.

        Same protocol as the simulation cache's ``.npz`` writes: skip the
        write when the spill already exists, else write a temp file and
        rename it into place, so concurrent writers of one topology need no
        lock.  Disk trouble must never fail the evaluation -- the memory
        tier already has the plan.
        """
        self._plan_cache.put(fingerprint, compiled)
        path = self._plan_path(fingerprint)
        if path is None or path.exists():
            return
        tmp_name = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle, tmp_name = tempfile.mkstemp(
                prefix=_PLAN_PREFIX, suffix=".tmp", dir=str(path.parent)
            )
            with os.fdopen(handle, "wb") as tmp:
                pickle.dump(compiled, tmp, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except (OSError, pickle.PicklingError):
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def evaluate(
        self,
        netlist: Netlist,
        wavelengths: Optional[np.ndarray] = None,
        *,
        port_spec: Optional[PortSpec] = None,
        backend: Optional[str] = None,
    ) -> SMatrix:
        """Simulate ``netlist`` and return the external S-matrix.

        ``backend`` overrides the solver's default backend for this call.
        Raises a classified :class:`PICBenchError` subclass when the netlist
        is invalid, or :class:`OtherSyntaxError` when a device model rejects
        its settings.
        """
        wavelengths = normalize_wavelengths(wavelengths)
        chosen = _check_backend(backend if backend is not None else self.backend)
        resolved = self._resolve(netlist, _ONE_SAMPLE, wavelengths, port_spec)
        results, _ = self._solve(resolved, wavelengths, chosen)
        return results[0]

    def evaluate_batch(
        self,
        netlist: Netlist,
        settings_batch: Sequence[SettingsBatch],
        wavelengths: Optional[np.ndarray] = None,
        *,
        port_spec: Optional[PortSpec] = None,
        backend: Optional[str] = None,
    ) -> List[SMatrix]:
        """Evaluate ``S`` settings samples of one netlist in fused executor passes.

        ``settings_batch`` holds one mapping per sample: instance name to the
        settings overrides of that sample, merged into the instance's base
        settings.
        Device models are evaluated once per *distinct* settings variant --
        vectorised through array parameters where the model supports them,
        loop-and-stack otherwise -- and samples are grouped by topology
        fingerprint: every group runs the level-batched cascade (or dense)
        executor exactly once with the batch axis fused into the wavelength
        axis, so ``S`` structurally identical samples cost one executor pass
        instead of ``S``.  Results are returned in sample order and are
        numerically identical (to solver round-off) to the per-sample loop
        ``[evaluate(apply_settings(netlist, s)) for s in settings_batch]``.

        Invalid settings raise the same classified errors the per-sample
        loop raises; when several samples are invalid, which sample's error
        surfaces first may differ from strict per-sample order (instances
        are checked instance-major).
        """
        if not settings_batch:
            return []
        wavelengths = normalize_wavelengths(wavelengths)
        chosen = _check_backend(backend if backend is not None else self.backend)
        resolved = self._resolve(netlist, settings_batch, wavelengths, port_spec)
        out, executor_passes = self._solve(resolved, wavelengths, chosen)
        with self._memo_lock:
            self._batch_stats.calls += 1
            self._batch_stats.samples += len(settings_batch)
            self._batch_stats.executor_passes += executor_passes
            self._batch_stats.vectorised_model_evals += resolved.vectorised_evals
            self._batch_stats.looped_model_evals += resolved.looped_evals
        return out

    def compile(
        self,
        netlist: Netlist,
        wavelengths: Optional[np.ndarray] = None,
        *,
        port_spec: Optional[PortSpec] = None,
    ) -> CompiledCircuit:
        """Compile ``netlist`` (or fetch its cached plan) without executing.

        Exposes the compiled structure -- port index, condensation, level
        schedule -- for introspection, tests and benchmarks; :meth:`evaluate`
        reuses the exact same cached artifact.
        """
        wavelengths = normalize_wavelengths(wavelengths)
        return self._resolve(netlist, _ONE_SAMPLE, wavelengths, port_spec).groups[0][0]

    def cascade_plan(
        self,
        netlist: Netlist,
        wavelengths: Optional[np.ndarray] = None,
        *,
        port_spec: Optional[PortSpec] = None,
    ) -> CascadePlan:
        """Return the cascade backend's evaluation plan for ``netlist``.

        A thin view over :meth:`compile`: exposes the condensation structure
        (topological component order, feedback clusters) of the shared
        :class:`~repro.sim.plan.CompiledCircuit`, so a subsequent
        :meth:`evaluate` on the same topology is a plan-cache hit.
        """
        compiled = self.compile(netlist, wavelengths, port_spec=port_spec)
        if compiled.plan is None:
            raise ValueError(
                "cascade plan undefined: a port is connected to several partners"
            )
        return compiled.plan

    # ------------------------------------------------------------------
    # The shared body: resolve, then solve
    # ------------------------------------------------------------------
    def _resolve(
        self,
        netlist: Netlist,
        settings_batch: Sequence[SettingsBatch],
        wavelengths: np.ndarray,
        port_spec: Optional[PortSpec],
    ) -> _Resolved:
        """Resolve every sample's instance records and each topology's plan.

        Per instance, the registry ref, function identity and base settings
        fingerprint are resolved once per call (overrides never change an
        instance's component or the models section).  Device keys are
        deduplicated across the call -- the dozens of same-device instances
        of a mesh or fabric share one key per settings variant -- and the
        instance cache is looked up once per distinct key: a hit, or a miss
        whose device is then evaluated, instance-major, each instance's
        missing variants in one :func:`batch_evaluate_model` call.  Samples
        are grouped by topology fingerprint, and each group's plan is
        fetched from the plan cache or compiled.

        Validation is orchestrated here so the fully warm path can skip it:
        the fingerprint covers everything structural validation inspects
        (and validation is settings-independent), so a netlist whose
        ``(fingerprint, port_spec)`` validated once never re-validates.  Any
        instance-cache miss validates first, so structural errors outrank
        model-settings errors on content not seen before.
        """
        grid_bytes = np.ascontiguousarray(wavelengths).tobytes()
        spec_key = (
            (port_spec.num_inputs, port_spec.num_outputs)
            if port_spec is not None
            else None
        )
        for overrides in settings_batch:
            check_override_names(netlist, overrides)
        try:
            meta = [
                (
                    name,
                    inst,
                    *self._instance_key(netlist, inst),
                    settings_fingerprint(inst.settings),
                )
                for name, inst in netlist.instances.items()
            ]
        except (UnknownModelError, TypeError):
            if self.validate:
                # Raise the classified error (UndefinedModelError for an
                # unknown ref, InstancesModelsConfusedError for a non-string
                # models value that is not even hashable) instead of the raw
                # KeyError/TypeError.
                validate_netlist(netlist, self.registry, port_spec)
            raise

        # Per instance: the distinct settings variants of the call and each
        # sample's variant index.
        found: Dict[_DeviceKey, Optional[_InstanceRecord]] = {}
        variant_keys: List[List[_DeviceKey]] = []
        variant_overrides: List[List[Optional[Mapping[str, object]]]] = []
        variant_of_sample: List[List[int]] = []
        for name, inst, ref, func_id, base_fp in meta:
            keys: List[_DeviceKey] = []
            overrides_list: List[Optional[Mapping[str, object]]] = []
            index_of_fp: Dict[str, int] = {}
            sample_map: List[int] = []
            for overrides in settings_batch:
                override = overrides.get(name) if overrides else None
                fingerprint = _variant_fingerprint(base_fp, override)
                index = index_of_fp.get(fingerprint)
                if index is None:
                    index = len(keys)
                    index_of_fp[fingerprint] = index
                    key = (ref, func_id, fingerprint, grid_bytes)
                    keys.append(key)
                    overrides_list.append(override)
                    if key not in found:
                        found[key] = self._instance_cache.get(key)
                sample_map.append(index)
            variant_keys.append(keys)
            variant_overrides.append(overrides_list)
            variant_of_sample.append(sample_map)

        validated = False
        if self.validate and any(record is None for record in found.values()):
            # Unknown content: validate before evaluating device models.
            validate_netlist(netlist, self.registry, port_spec)
            validated = True

        resolved = _Resolved(records=[], variant_of_sample=variant_of_sample)
        for (name, inst, ref, _, _), keys, overrides_list in zip(
            meta, variant_keys, variant_overrides
        ):
            missing = [index for index, key in enumerate(keys) if found[key] is None]
            if missing:
                info = self.registry.get(ref)
                variants = [
                    merge_settings(inst.settings, overrides_list[index])
                    for index in missing
                ]
                try:
                    smatrices, vectorised = batch_evaluate_model(
                        info, wavelengths, variants
                    )
                except (TypeError, ValueError) as exc:
                    # Surface the first failing variant with the same
                    # classified error a per-sample evaluation would raise.
                    failing = variants[0]
                    if len(variants) > 1:
                        for settings in variants:
                            try:
                                info.evaluate(wavelengths, **settings)
                            except (TypeError, ValueError):
                                failing = settings
                                break
                    raise OtherSyntaxError(
                        f"instance {name!r} (model {ref!r}) rejected its settings "
                        f"{failing!r}: {exc}"
                    ) from exc
                if vectorised:
                    resolved.vectorised_evals += len(missing)
                else:
                    resolved.looped_evals += len(missing)
                for index, smatrix in zip(missing, smatrices):
                    found[keys[index]] = self._record_from_smatrix(
                        smatrix, keys[index]
                    )
            resolved.records.append([found[key] for key in keys])

        record = resolved.record

        def sample_fingerprint(sample: int) -> str:
            """Topology fingerprint of one sample (its masks are the only
            sample-dependent input)."""
            return topology_fingerprint(
                netlist,
                (
                    (
                        name,
                        inst.component,
                        ref,
                        func_id,
                        record(index, sample).smatrix.ports,
                        record(index, sample).mask_bytes,
                    )
                    for index, (name, inst, ref, func_id, _) in enumerate(meta)
                ),
            )

        # Group samples by topology fingerprint: a draw that flips a
        # structural mask (e.g. a coupling hitting exactly zero) compiles --
        # and executes -- separately from the common-structure group.  The
        # overwhelmingly common case -- every variant of every instance
        # shares one structural mask -- needs no per-sample work at all.
        groups: Dict[str, List[int]] = {}
        masks_uniform = all(
            all(entry.mask_bytes == variants[0].mask_bytes for entry in variants[1:])
            for variants in resolved.records
        )
        if masks_uniform:
            groups[sample_fingerprint(0)] = list(range(len(settings_batch)))
        else:
            # The fingerprint only depends on a sample through its mask
            # signature, so it is hashed once per distinct signature.
            fingerprint_of_signature: Dict[Tuple[bytes, ...], str] = {}
            for sample in range(len(settings_batch)):
                signature = tuple(
                    record(index, sample).mask_bytes for index in range(len(meta))
                )
                fingerprint = fingerprint_of_signature.get(signature)
                if fingerprint is None:
                    fingerprint = sample_fingerprint(sample)
                    fingerprint_of_signature[signature] = fingerprint
                groups.setdefault(fingerprint, []).append(sample)

        if self.validate:
            for fingerprint in groups:
                if not validated and self._validated.get((fingerprint, spec_key)) is None:
                    validate_netlist(netlist, self.registry, port_spec)
                    validated = True
                self._validated.put((fingerprint, spec_key), True)

        for fingerprint, sample_ids in groups.items():
            compiled = self._plan_lookup(fingerprint)
            if compiled is None:
                first = sample_ids[0]
                compiled = compile_netlist(
                    netlist,
                    {
                        name: record(index, first).smatrix
                        for index, (name, _, _, _, _) in enumerate(meta)
                    },
                    masks=[record(index, first).mask for index in range(len(meta))],
                    fingerprint=fingerprint,
                )
                self._plan_store(fingerprint, compiled)
            resolved.groups.append((compiled, sample_ids))
        return resolved

    def _solve(
        self, resolved: _Resolved, wavelengths: np.ndarray, backend: str
    ) -> Tuple[List[SMatrix], int]:
        """Run each group's plan in fused executor passes.

        Returns the results in sample order and the number of executor
        passes run.  The cascade executor takes its instance stacks from
        one deduplicated copy pass (:func:`fuse_sample_stacks`), sharing
        rows across the same-device instances of meshes and fabrics.
        """
        num_points = int(wavelengths.size)
        num_instances = len(resolved.records)
        record = resolved.record
        # One pass over the records decides symmetry for the common
        # all-symmetric case; only mixed calls need per-group work.
        all_symmetric = all(
            entry.symmetric for variants in resolved.records for entry in variants
        )
        out: Dict[int, SMatrix] = {}
        executor_passes = 0
        for compiled, sample_ids in resolved.groups:
            chosen = self._choose_backend(compiled, backend)
            symmetric = all_symmetric or all(
                record(index, sample).symmetric
                for index in range(num_instances)
                for sample in sample_ids
            )
            per_pass = self._samples_per_pass(compiled, num_points, symmetric)
            for start in range(0, len(sample_ids), per_pass):
                pass_ids = sample_ids[start : start + per_pass]
                executor_passes += 1
                sample_matrices = [
                    [record(index, sample).smatrix.data for index in range(num_instances)]
                    for sample in pass_ids
                ]
                fused_points = len(pass_ids) * num_points
                with collect_degradations() as events:
                    if chosen == "cascade":
                        # Blocks are capped at one sample's grid width: the
                        # per-sample block size is what the executor's
                        # cache-residency targets were tuned for, and letting
                        # a fused pass widen the working set measurably
                        # regresses it.
                        matrices, stacks, stack_positions = fuse_sample_stacks(
                            compiled.stack_members, sample_matrices, num_points
                        )
                        data = execute_cascade(
                            compiled,
                            matrices,
                            fused_points,
                            max_block=num_points,
                            symmetric=symmetric,
                            stacks=stacks,
                            stack_positions=stack_positions,
                        )
                    else:
                        data = execute_dense(
                            compiled,
                            fuse_sample_matrices(sample_matrices, num_points),
                            fused_points,
                        )
                # A fused pass solves every sample in one system, so a
                # guardrail firing is attributed to all of the pass's samples.
                degraded = self._count_degradations(events)
                data = data.reshape(
                    len(pass_ids), num_points, compiled.num_external, compiled.num_external
                )
                for position, sample in enumerate(pass_ids):
                    # Copy each sample out of a multi-sample pass buffer: a
                    # caller (or a cache) retaining one sample must not pin
                    # the whole pass's output.
                    out[sample] = SMatrix(
                        wavelengths,
                        compiled.external_names,
                        data[position] if len(pass_ids) == 1 else data[position].copy(),
                        degraded=degraded,
                    )
        return [out[sample] for sample in range(len(out))], executor_passes

    def _samples_per_pass(
        self, compiled: CompiledCircuit, num_points: int, symmetric: bool
    ) -> int:
        """How many samples one fused executor pass should carry.

        Derived from the compiled schedule's per-sample working set
        (coefficient rows, compacted workspace rows, contribution buffer
        and output block) against :data:`_BATCH_FUSION_TARGET_BYTES`:
        fusing beyond the last-level cache hurts more than the saved
        per-pass overhead on large fabrics, while small circuits fuse
        whole batches.
        """
        schedule = compiled.schedule_for(symmetric)
        if schedule is None:
            return max(1, _BATCH_FUSION_TARGET_BYTES // max(1, 16 * num_points))
        cells_per_wavelength = (
            schedule.num_edges
            + (schedule.num_rows + schedule.max_push_edges) * schedule.columns.size
            + 2 * compiled.num_external * compiled.num_external
        )
        per_sample_bytes = 16 * num_points * max(1, cells_per_wavelength)
        return max(1, _BATCH_FUSION_TARGET_BYTES // per_sample_bytes)

    def _choose_backend(self, compiled: CompiledCircuit, chosen: str) -> str:
        """Resolve ``auto`` and the multi-partner fallback for one plan."""
        if chosen == "auto":
            chosen = (
                "dense"
                if not compiled.supports_cascade
                or compiled.num_ports <= _AUTO_DENSE_MAX_PORTS
                else "cascade"
            )
        if chosen == "cascade" and not compiled.supports_cascade:
            # A port wired to several partners cannot occur on a validated
            # netlist; fall back to the general dense formulation.
            chosen = "dense"
        return chosen

    def _instance_key(self, netlist: Netlist, inst: Instance) -> Tuple[str, str]:
        """Resolve one instance's ``(registry ref, function identity)``.

        The function identity is memoised on ``(ref, registry version)`` --
        re-registering a model bumps the registry version, so a replaced
        implementation can never serve a stale identity (and therefore never
        a stale instance-cache or plan-cache entry).
        """
        ref = netlist.models.get(inst.component, inst.component)
        memo_key = (ref, self.registry.version)
        # Lock-free read: dict.get is atomic under the GIL and a stale miss
        # only recomputes; writes (and the clear-on-overflow) stay locked.
        func_id = self._func_id_memo.get(memo_key)
        if func_id is None:
            func_id = func_identity(self.registry.get(ref).func)
            with self._memo_lock:
                if len(self._func_id_memo) >= _MEMO_MAX_ENTRIES:
                    self._func_id_memo.clear()
                self._func_id_memo[memo_key] = func_id
        return ref, func_id

    def _record_from_smatrix(self, smatrix: SMatrix, key: _DeviceKey) -> _InstanceRecord:
        """Derive the cached record (mask, symmetry) of one device evaluation."""
        mask = structural_masks([smatrix.data])[0]
        record = _InstanceRecord(
            smatrix=smatrix,
            mask=mask,
            mask_bytes=mask.tobytes(),
            symmetric=bool(
                np.array_equal(smatrix.data, smatrix.data.transpose(0, 2, 1))
            ),
        )
        self._instance_cache.put(key, record)
        return record


# ----------------------------------------------------------------------
# Module-level default solver
# ----------------------------------------------------------------------
_DEFAULT_SOLVER: Optional[CircuitSolver] = None
_DEFAULT_SOLVER_PID: Optional[int] = None
_DEFAULT_SOLVER_LOCK = threading.Lock()


def default_solver() -> CircuitSolver:
    """The process-wide default :class:`CircuitSolver` (default registry).

    Shared by every :func:`evaluate_netlist` call that does not pass its own
    registry, so repeated convenience-API calls hit one warm per-device
    instance cache -- and one warm compiled-plan cache -- instead of
    rebuilding an empty solver each time.

    The singleton is pinned to the creating process id and lazily rebuilt in
    any other process: a forked sweep worker must not keep mutating memo
    state it shares (copy-on-write) with its siblings' history, and a
    spawn-mode worker must never need the solver to be picklable.  Each
    worker therefore gets its own fresh solver on first use.
    """
    global _DEFAULT_SOLVER, _DEFAULT_SOLVER_PID
    pid = os.getpid()
    with _DEFAULT_SOLVER_LOCK:
        if _DEFAULT_SOLVER is None or _DEFAULT_SOLVER_PID != pid:
            _DEFAULT_SOLVER = CircuitSolver()
            _DEFAULT_SOLVER_PID = pid
        return _DEFAULT_SOLVER


def evaluate_netlist(
    netlist: Netlist,
    wavelengths: Optional[np.ndarray] = None,
    *,
    registry: Optional[ModelRegistry] = None,
    port_spec: Optional[PortSpec] = None,
    backend: Optional[str] = None,
) -> SMatrix:
    """Convenience wrapper: evaluate ``netlist`` with the default solver.

    Calls without a custom ``registry`` share the module-level
    :func:`default_solver` (and its instance and plan caches); passing a
    registry builds a dedicated solver for that call.
    """
    solver = default_solver() if registry is None else CircuitSolver(registry=registry)
    return solver.evaluate(netlist, wavelengths, port_spec=port_spec, backend=backend)
