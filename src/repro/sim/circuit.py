"""Frequency-domain circuit evaluation (the SAX-substitute solver).

Given a validated netlist, the solver:

1. evaluates every instance's device model over the wavelength grid (served
   from a per-device LRU sub-cache),
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
    global solve.  (:mod:`repro.sim.cascade` keeps the original per-port
    reference implementation the test suite checks the executor against.)
``auto``
    Picks ``dense`` for small circuits (where one vectorised solve beats the
    cascade's per-component bookkeeping) and ``cascade`` otherwise.

Both executors evaluate the same linear system and agree to well below 1e-9;
backend choice is a performance knob, never a semantic one (engine cache
keys deliberately exclude it, and the plan cache is shared by both).
"""

from __future__ import annotations

import copy
import os
import pickle
import tempfile
import threading
from dataclasses import dataclass
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
from .cascade import CascadePlan, structural_masks
from .guardrails import collect_degradations
from .plan import (
    CompiledCircuit,
    build_stacks,
    compile_netlist,
    execute_cascade,
    execute_dense,
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

#: Bound on the per-instance memo dictionaries (function identities and
#: settings fingerprints); exceeding it clears the memo, it never grows past
#: this size.
_MEMO_MAX_ENTRIES = 8192

#: Filename prefix of spilled compiled plans under ``plan_dir``.
_PLAN_PREFIX = "plan-"

#: Target bytes of one fused executor pass's working set (coefficient
#: array, workspace, contribution buffer, output block).  Batched execution
#: fuses at most as many samples per pass as fit the budget: fusing more
#: spills the last-level cache and measurably regresses below the
#: per-sample loop on large fabrics, while small circuits fuse whole
#: batches.  Purely a performance knob -- results are identical for any
#: passes split.
_BATCH_FUSION_TARGET_BYTES = 16 << 20


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
        already exists) to ``plan_dir/plan-<fingerprint>.pkl``, and a
        memory-tier miss tries the spill before recompiling.  This is what
        lets later processes (a later sweep, an isolated retry, a
        process-mode service job) reuse structure work: topology
        fingerprints are content-derived and model identities are
        ``module.qualname`` strings, so a plan spilled by one process is
        valid in any other process running the same code.  The directory is
        trusted (pickle is loaded from it) -- point it only at paths this
        run controls, like the sweep's cache directory.
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
        self._instance_cache: LRUCache[Tuple[str, str, str, bytes], _InstanceRecord] = (
            LRUCache(max_entries=instance_cache_entries)
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
        # Per-instance key memos (see _instance_key): function identities
        # keyed by (ref, registry version), settings fingerprints keyed by
        # Instance object id with an equality guard.  Guarded by a lock: the
        # solver is shared process-wide through default_solver() and by
        # every parallel sweep worker of one engine, and plain dicts with a
        # clear-on-overflow policy are not safe to mutate concurrently
        # (mirroring the PR 2 fix of the suite module's _CACHE).
        self._memo_lock = threading.Lock()
        self._func_id_memo: Dict[Tuple[str, int], str] = {}
        self._settings_memo: Dict[int, Tuple[Dict[str, object], str]] = {}
        # Batched-evaluation override-fingerprint memo: override mapping id
        # -> (shallow content snapshot, fingerprint); see _override_fp.
        self._override_fp_memo: Dict[int, Tuple[Dict[str, object], str]] = {}
        self._batch_stats = BatchStats()
        # Numerical-guardrail firings (see repro.sim.guardrails): counted
        # under the memo lock, surfaced through degradation_stats().
        self._degradations: Dict[str, int] = {"singular": 0, "nonfinite": 0}
        # Stacked instance matrices per (plan, concrete instance arrays).
        # Deliberately small: it only pays off for repeated evaluation of
        # content-identical netlists (instance-cache hits return the same
        # arrays), while settings-mutating sweeps produce fresh arrays per
        # call -- a large memo would just pin dead copies (see _stacks_for).
        self._stack_memo: LRUCache[
            Tuple[str, Tuple[int, ...]], Tuple[List[np.ndarray], List[np.ndarray]]
        ] = LRUCache(max_entries=8)

    def instance_cache_stats(self) -> CacheStats:
        """Hit/miss counters of the per-device evaluation sub-cache."""
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
        if self.plan_dir is None:
            return None
        return self.plan_dir / f"{_PLAN_PREFIX}{fingerprint}.pkl"

    def _plan_lookup(self, fingerprint: str) -> Optional[CompiledCircuit]:
        """Fetch a compiled plan: memory first, then the disk spill."""
        compiled = self._plan_cache.get(fingerprint)
        if compiled is not None:
            return compiled
        path = self._plan_path(fingerprint)
        if path is None or not path.exists():
            return None
        try:
            with path.open("rb") as handle:
                compiled = pickle.load(handle)
        except Exception:  # noqa: BLE001 - corrupt/truncated spill: recompile
            return None
        if not isinstance(compiled, CompiledCircuit) or compiled.fingerprint != fingerprint:
            return None  # foreign or stale file under the expected name
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
        compiled, matrices, symmetric = self._compiled(netlist, wavelengths, port_spec)
        chosen = self._choose_backend(compiled, chosen)
        with collect_degradations() as events:
            data = self._execute(compiled, matrices, wavelengths.size, chosen, symmetric)
        degraded = self._count_degradations(events)
        return SMatrix(wavelengths, compiled.external_names, data, degraded=degraded)

    def evaluate_batch(
        self,
        netlist: Netlist,
        settings_batch: Sequence[SettingsBatch],
        wavelengths: Optional[np.ndarray] = None,
        *,
        port_spec: Optional[PortSpec] = None,
        backend: Optional[str] = None,
        merge: bool = True,
    ) -> List[SMatrix]:
        """Evaluate ``S`` settings samples of one netlist in fused executor passes.

        ``settings_batch`` holds one mapping per sample: instance name to the
        settings overrides of that sample (merged into the instance's base
        settings by default; ``merge=False`` substitutes them wholesale).
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
        chosen_base = _check_backend(backend if backend is not None else self.backend)
        num_samples = len(settings_batch)
        num_points = int(wavelengths.size)
        grid_bytes = np.ascontiguousarray(wavelengths).tobytes()
        spec_key = (
            (port_spec.num_inputs, port_spec.num_outputs)
            if port_spec is not None
            else None
        )
        for overrides in settings_batch:
            check_override_names(netlist, overrides)

        # Resolve per-instance (ref, function identity) once -- overrides can
        # never change an instance's component or the models section.
        try:
            meta = [
                (name, inst, *self._instance_key(netlist, inst))
                for name, inst in netlist.instances.items()
            ]
        except (UnknownModelError, TypeError):
            if self.validate:
                validate_netlist(netlist, self.registry, port_spec)
            raise

        # Per instance: the distinct settings variants of the batch and each
        # sample's variant index.  Cache keys are deduplicated *globally* --
        # the dozens of same-device instances of a mesh or fabric share one
        # key per settings variant -- so the instance cache is probed once
        # per unique key per call (evaluate's one probe per consumer, with
        # the repeated consumers collapsed).
        all_hit = True
        probed: Dict[Tuple[str, str, str, bytes], Optional[_InstanceRecord]] = {}
        variant_keys: List[List[Tuple[str, str, str, bytes]]] = []
        variant_overrides: List[List[Optional[Mapping[str, object]]]] = []
        variant_of_sample: List[List[int]] = []
        for name, inst, ref, func_id in meta:
            keys: List[Tuple[str, str, str, bytes]] = []
            overrides_list: List[Optional[Mapping[str, object]]] = []
            index_of_fp: Dict[str, int] = {}
            sample_map: List[int] = []
            for overrides in settings_batch:
                override = overrides.get(name) if overrides else None
                fingerprint = self._merged_settings_fp(inst, override, merge)
                index = index_of_fp.get(fingerprint)
                if index is None:
                    index = len(keys)
                    index_of_fp[fingerprint] = index
                    key = (ref, func_id, fingerprint, grid_bytes)
                    keys.append(key)
                    overrides_list.append(override)
                    if key not in probed:
                        probed[key] = self._instance_cache.peek(key)
                        if probed[key] is None:
                            all_hit = False
                sample_map.append(index)
            variant_keys.append(keys)
            variant_overrides.append(overrides_list)
            variant_of_sample.append(sample_map)

        validated = False
        if self.validate and not all_hit:
            # Structural validation is settings-independent, so validating
            # the base netlist covers every sample of the batch.
            validate_netlist(netlist, self.registry, port_spec)
            validated = True

        # Evaluate every missing settings variant, instance-major; variants
        # already resolved (by the cache or by an earlier same-key instance
        # of this call) are reused directly.
        resolved: Dict[Tuple[str, str, str, bytes], _InstanceRecord] = {}
        records_by_variant: List[List[_InstanceRecord]] = []
        vectorised_evals = 0
        looped_evals = 0
        for (name, inst, ref, func_id), keys, overrides_list in zip(
            meta, variant_keys, variant_overrides
        ):
            missing = [
                index
                for index, key in enumerate(keys)
                if key not in resolved and probed.get(key) is None
            ]
            if missing:
                info = self.registry.get(ref)
                variants = [
                    self._merged_one(inst, overrides_list[index], merge)
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
                    vectorised_evals += len(missing)
                else:
                    looped_evals += len(missing)
                for index, smatrix in zip(missing, smatrices):
                    resolved[keys[index]] = self._record_from_smatrix(
                        smatrix, keys[index]
                    )
            variant_records: List[_InstanceRecord] = []
            for index, key in enumerate(keys):
                record = resolved.get(key)
                if record is None:
                    record = self._instance_cache.get(key)
                if record is None:  # evicted between put and get (tiny caches)
                    record = self._evaluate_instance(
                        name,
                        Instance(
                            inst.component,
                            self._merged_one(inst, overrides_list[index], merge),
                        ),
                        ref,
                        key,
                        wavelengths,
                    )
                resolved[key] = record
                variant_records.append(record)
            records_by_variant.append(variant_records)

        def record_of(index: int, sample: int) -> _InstanceRecord:
            """The cached record instance ``index`` uses for ``sample``."""
            return records_by_variant[index][variant_of_sample[index][sample]]

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
                        record_of(index, sample).smatrix.ports,
                        record_of(index, sample).mask_bytes,
                    )
                    for index, (name, inst, ref, func_id) in enumerate(meta)
                ),
            )

        # Group samples by topology fingerprint: a draw that flips a
        # structural mask (e.g. a coupling hitting exactly zero) compiles --
        # and executes -- separately from the common-structure group.  The
        # overwhelmingly common case -- every variant of every instance
        # shares one structural mask -- needs no per-sample work at all.
        groups: Dict[str, List[int]] = {}
        masks_uniform = all(
            all(
                record.mask_bytes == variants[0].mask_bytes
                for record in variants[1:]
            )
            for variants in records_by_variant
        )
        if masks_uniform:
            groups[sample_fingerprint(0)] = list(range(num_samples))
        else:
            # The fingerprint only depends on a sample through its mask
            # signature, so it is hashed once per distinct signature.
            fingerprint_of_signature: Dict[Tuple[bytes, ...], str] = {}
            for sample in range(num_samples):
                signature = tuple(
                    record_of(index, sample).mask_bytes for index in range(len(meta))
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

        # One pass over the (deduplicated) records decides symmetry for the
        # common all-symmetric case; only mixed batches need per-group work.
        all_symmetric = all(record.symmetric for record in resolved.values())

        out: List[Optional[SMatrix]] = [None] * num_samples
        executor_passes = 0
        for fingerprint, sample_ids in groups.items():
            compiled = self._plan_lookup(fingerprint)
            if compiled is None:
                first = sample_ids[0]
                compiled = compile_netlist(
                    netlist,
                    {
                        name: record_of(index, first).smatrix
                        for index, (name, _, _, _) in enumerate(meta)
                    },
                    masks=[record_of(index, first).mask for index in range(len(meta))],
                    fingerprint=fingerprint,
                    instance_refs=tuple(ref for _, _, ref, _ in meta),
                    func_identities=tuple(func_id for _, _, _, func_id in meta),
                )
                self._plan_store(fingerprint, compiled)
            chosen = self._choose_backend(compiled, chosen_base)
            symmetric = all_symmetric or all(
                record_of(index, sample).symmetric
                for index in range(len(meta))
                for sample in sample_ids
            )
            per_pass = self._samples_per_pass(compiled, num_points, symmetric)
            for start in range(0, len(sample_ids), per_pass):
                pass_ids = sample_ids[start : start + per_pass]
                executor_passes += 1
                sample_matrices = [
                    [record_of(index, sample).smatrix.data for index in range(len(meta))]
                    for sample in pass_ids
                ]
                fused_points = len(pass_ids) * num_points
                with collect_degradations() as events:
                    if chosen == "cascade" and compiled.stack_members:
                        # One deduplicated copy pass: fuse straight into the
                        # executor's stacks, sharing rows across the
                        # same-device instances of meshes and fabrics.
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
                        data = self._execute(
                            compiled,
                            fuse_sample_matrices(sample_matrices, num_points),
                            fused_points,
                            chosen,
                            symmetric,
                            memo_stacks=False,
                        )
                # A fused pass solves every sample in one system, so a
                # guardrail firing is attributed to all of the pass's samples.
                degraded = self._count_degradations(events)
                data = data.reshape(
                    len(pass_ids), num_points, compiled.num_external, compiled.num_external
                )
                for position, sample in enumerate(pass_ids):
                    # Copy each sample out of the fused pass buffer: a
                    # caller (or a cache) retaining one sample must not pin
                    # the whole pass's output.
                    out[sample] = SMatrix(
                        wavelengths,
                        compiled.external_names,
                        data[position].copy(),
                        degraded=degraded,
                    )

        with self._memo_lock:
            self._batch_stats.calls += 1
            self._batch_stats.samples += num_samples
            self._batch_stats.executor_passes += executor_passes
            self._batch_stats.vectorised_model_evals += vectorised_evals
            self._batch_stats.looped_model_evals += looped_evals
        assert all(smatrix is not None for smatrix in out)
        return out  # type: ignore[return-value]

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
        groups = (
            compiled.cover_groups
            if symmetric and compiled.cover_groups is not None
            else compiled.groups
        )
        if not groups:
            return max(1, _BATCH_FUSION_TARGET_BYTES // max(1, 16 * num_points))
        cells_per_wavelength = sum(
            group.num_edges
            + (group.num_rows + group.max_push_edges) * group.workspace_cols
            for group in groups
        ) + 2 * compiled.num_external * compiled.num_external
        per_sample_bytes = 16 * num_points * max(1, cells_per_wavelength)
        return max(1, _BATCH_FUSION_TARGET_BYTES // per_sample_bytes)

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
        compiled, _, _ = self._compiled(netlist, wavelengths, port_spec)
        return compiled

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
    # Internal helpers
    # ------------------------------------------------------------------
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

    def _execute(
        self,
        compiled: CompiledCircuit,
        matrices: List[np.ndarray],
        num_wavelengths: int,
        chosen: str,
        symmetric: bool,
        *,
        memo_stacks: bool = True,
    ) -> np.ndarray:
        """Run the chosen executor over the whole wavelength axis.

        The cascade executor sizes its own wavelength blocks for cache
        residency.  ``memo_stacks=False`` skips the stacked-matrix memo:
        batch-fused matrices are freshly allocated per call, so memoising
        them would only pin dead ``B``-times-larger copies in the LRU.
        """
        if chosen == "cascade":
            return execute_cascade(
                compiled,
                matrices,
                num_wavelengths,
                symmetric=symmetric,
                stacks=self._stacks_for(compiled, matrices) if memo_stacks else None,
            )
        return execute_dense(compiled, matrices, num_wavelengths)

    def _stacks_for(
        self, compiled: CompiledCircuit, matrices: List[np.ndarray]
    ) -> List[np.ndarray]:
        """Memo of :func:`~repro.sim.plan.build_stacks` per concrete inputs.

        Keyed by ``(plan fingerprint, instance array identities)``; each
        entry holds strong references to the arrays it was built from, so a
        live entry's ids can never be recycled by other arrays -- an
        instance-cache eviction simply misses and rebuilds.
        """
        key = (compiled.fingerprint, tuple(map(id, matrices)))
        entry = self._stack_memo.get(key)
        if entry is not None:
            return entry[1]
        stacks = build_stacks(compiled, matrices)
        self._stack_memo.put(key, (list(matrices), stacks))
        return stacks

    def _compiled(
        self,
        netlist: Netlist,
        wavelengths: np.ndarray,
        port_spec: Optional[PortSpec] = None,
    ) -> Tuple[CompiledCircuit, List[np.ndarray], bool]:
        """Resolve the netlist's compiled plan and its instance matrix data.

        Evaluates (or fetches) every instance's S-matrix, fingerprints the
        topology, and serves the structure work from the plan cache; a miss
        compiles and caches.  The returned matrices are in the compiled
        plan's ``instance_names`` order -- by construction also the netlist's
        instance iteration order, which the fingerprint pins.  The final
        flag reports whether every instance matrix is exactly symmetric
        (reciprocal), which gates the cover executor.

        Validation is orchestrated here so the fully warm path can skip it:
        the fingerprint covers everything structural validation inspects, so
        a netlist whose ``(fingerprint, port_spec)`` validated once never
        re-validates.  Any instance-cache miss falls back to validate-first
        order, preserving the error-classification precedence (structural
        errors before model-settings errors) on netlists not seen before.
        """
        grid_bytes = np.ascontiguousarray(wavelengths).tobytes()
        validate_needed = self.validate
        spec_key = (
            (port_spec.num_inputs, port_spec.num_outputs)
            if port_spec is not None
            else None
        )

        # Pass 1: resolve per-instance keys and peek at the instance cache
        # (stats-neutral -- the real lookups happen in pass 2).
        entries: List[Tuple[str, Instance, str, str, Tuple[str, str, str, bytes]]] = []
        all_hit = True
        try:
            for name, inst in netlist.instances.items():
                ref, func_id = self._instance_key(netlist, inst)
                key = (ref, func_id, self._settings_fp(inst), grid_bytes)
                if self._instance_cache.peek(key) is None:
                    all_hit = False
                entries.append((name, inst, ref, func_id, key))
        except (UnknownModelError, TypeError):
            if validate_needed:
                # Raise the classified error (UndefinedModelError for an
                # unknown ref, InstancesModelsConfusedError for a non-string
                # models value that is not even hashable) instead of the raw
                # KeyError/TypeError.
                validate_netlist(netlist, self.registry, port_spec)
            raise

        validated = False
        if validate_needed and not all_hit:
            # Unknown content: validate before evaluating device models so
            # structural errors outrank settings errors, as always.
            validate_netlist(netlist, self.registry, port_spec)
            validated = True

        names: List[str] = []
        refs: List[str] = []
        func_ids: List[str] = []
        records: List[_InstanceRecord] = []
        symmetric = True
        for name, inst, ref, func_id, key in entries:
            record = self._instance_cache.get(key)
            if record is None:
                record = self._evaluate_instance(name, inst, ref, key, wavelengths)
            names.append(name)
            refs.append(ref)
            func_ids.append(func_id)
            records.append(record)
            symmetric = symmetric and record.symmetric

        fingerprint = topology_fingerprint(
            netlist,
            (
                (name, inst.component, ref, func_id, record.smatrix.ports, record.mask_bytes)
                for (name, inst, ref, func_id, _), record in zip(entries, records)
            ),
        )
        if validate_needed and not validated:
            # Fully warm content: skip re-validation when this exact
            # structure (and port spec) already validated once.
            if self._validated.get((fingerprint, spec_key)) is None:
                validate_netlist(netlist, self.registry, port_spec)
        if validate_needed:
            self._validated.put((fingerprint, spec_key), True)

        compiled = self._plan_lookup(fingerprint)
        if compiled is None:
            compiled = compile_netlist(
                netlist,
                {name: record.smatrix for name, record in zip(names, records)},
                masks=[record.mask for record in records],
                fingerprint=fingerprint,
                instance_refs=tuple(refs),
                func_identities=tuple(func_ids),
            )
            self._plan_store(fingerprint, compiled)
        return compiled, [record.smatrix.data for record in records], symmetric

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

    def _settings_fp(self, inst: Instance) -> str:
        """Memoised :func:`settings_fingerprint` of one instance.

        Keyed by the :class:`Instance` object's id with a value-equality
        guard: the fingerprint is recomputed whenever the stored settings
        snapshot no longer equals the instance's current settings, so both
        in-place mutation and id reuse after garbage collection are safe
        (the guard compares *content*, and the fingerprint is a pure
        function of content).
        """
        memo = self._settings_memo
        entry = memo.get(id(inst))  # lock-free read (see _instance_key)
        if entry is not None:
            try:
                if bool(entry[0] == inst.settings):
                    return entry[1]
            except (TypeError, ValueError):
                # Settings containing numpy arrays (or other objects whose
                # equality is non-boolean) just skip the memo.
                pass
        fingerprint = settings_fingerprint(inst.settings)
        snapshot = copy.deepcopy(inst.settings)
        with self._memo_lock:
            if len(memo) >= _MEMO_MAX_ENTRIES:
                memo.clear()
            memo[id(inst)] = (snapshot, fingerprint)
        return fingerprint

    def _merged_one(
        self,
        inst: Instance,
        override: Optional[Mapping[str, object]],
        merge: bool,
    ) -> Dict[str, object]:
        """One sample's effective settings for one instance."""
        return merge_settings(inst.settings, override, merge)

    def _merged_settings_fp(
        self,
        inst: Instance,
        override: Optional[Mapping[str, object]],
        merge: bool,
    ) -> str:
        """Compositional settings fingerprint of one (instance, override) pair.

        Composed from the instance's memoised base fingerprint and the
        override mapping's memoised fingerprint instead of serialising the
        merged dict: the composition is injective on *content* (equal
        (base, override, merge) contents always produce equal strings), so
        batched instance-cache keys are stable and deduplicate across calls
        -- two different compositions that happen to merge to the same
        settings merely occupy two cache entries, they can never serve
        wrong data.
        """
        if override is None or (merge and not override):
            # No override, or an empty merge: the effective settings are the
            # instance's own.  An empty override with merge=False is NOT
            # equivalent -- it replaces the settings with the model
            # defaults -- and must keep its own composite fingerprint.
            return self._settings_fp(inst)
        return "\x1d".join(
            (self._settings_fp(inst), self._override_fp(override), "m" if merge else "r")
        )

    def _override_fp(self, override: Mapping[str, object]) -> str:
        """Memoised fingerprint of one override mapping.

        Keyed by the mapping's object id with a value-equality guard.  Only
        mappings whose values are all immutable scalars are memoised -- a
        shallow snapshot then fully captures the content, so in-place
        mutation and id reuse are both detected by the guard.
        """
        memo = self._override_fp_memo
        entry = memo.get(id(override))  # lock-free read (see _instance_key)
        if entry is not None:
            try:
                if bool(entry[0] == override):
                    return entry[1]
            except (TypeError, ValueError):
                pass  # non-boolean equality (numpy values): skip the memo
        fingerprint = settings_fingerprint(override)
        if all(
            value is None or isinstance(value, (str, int, float, bool))
            for value in override.values()
        ):
            snapshot = dict(override)
            with self._memo_lock:
                if len(memo) >= _MEMO_MAX_ENTRIES:
                    memo.clear()
                memo[id(override)] = (snapshot, fingerprint)
        return fingerprint

    def _evaluate_instance(
        self,
        name: str,
        inst: Instance,
        ref: str,
        key: Tuple[str, str, str, bytes],
        wavelengths: np.ndarray,
    ) -> _InstanceRecord:
        """Evaluate one instance's device model and store it in the sub-cache."""
        info = self.registry.get(ref)
        try:
            smatrix = info.evaluate(wavelengths, **inst.settings)
        except (TypeError, ValueError) as exc:
            raise OtherSyntaxError(
                f"instance {name!r} (model {ref!r}) rejected its settings "
                f"{inst.settings!r}: {exc}"
            ) from exc
        return self._record_from_smatrix(smatrix, key)

    def _record_from_smatrix(
        self, smatrix: SMatrix, key: Tuple[str, str, str, bytes]
    ) -> _InstanceRecord:
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
