"""Stable content fingerprints for the execution engine.

The simulation cache is *content addressed*: a result is reusable exactly when
the canonical netlist, the wavelength grid and the model registry that
produced it are identical.  Every helper here therefore hashes the canonical
serialised form of its input (sorted-key JSON, raw float64 bytes) rather than
object identities, so fingerprints are stable across processes and runs and
can be used as on-disk cache file names.  Execution details that do not
change the mathematics -- the solver backend (``dense``/``cascade``), worker
count, cache configuration -- are deliberately excluded, so results and
golden artefacts are shared across engine configurations.

The same SHA-256 mixing also derives the per-sample generation seeds: a seed
is a pure function of ``(base_seed, problem name, sample index)``, which makes
every ``(client, restrictions, problem, sample)`` work unit independent of
execution order -- the property the parallel scheduler relies on for
byte-identical reports.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

import numpy as np

from .._fingerprint import func_identity, settings_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..netlist.schema import Netlist
    from ..sim.registry import ModelRegistry

__all__ = [
    "stable_hash",
    "netlist_fingerprint",
    "grid_fingerprint",
    "registry_fingerprint",
    "settings_fingerprint",
    "sample_seed",
]


def stable_hash(*parts: object) -> str:
    """SHA-256 hex digest of the ``||``-joined string form of ``parts``."""
    payload = "||".join(str(p) for p in parts)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def netlist_fingerprint(netlist: "Netlist") -> str:
    """Hash of the canonical (sorted-key JSON) form of a netlist.

    Two netlists that serialise to the same document -- regardless of the
    insertion order of their instances, connections or ports -- share a
    fingerprint, so structurally identical drafts from different samples hit
    the same cache entry.
    """
    canonical = json.dumps(netlist.to_dict(), sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def grid_fingerprint(wavelengths: np.ndarray) -> str:
    """Hash of the raw float64 bytes of a wavelength grid."""
    grid = np.ascontiguousarray(np.atleast_1d(np.asarray(wavelengths, dtype=float)))
    return hashlib.sha256(grid.tobytes()).hexdigest()


def registry_fingerprint(registry: "ModelRegistry") -> str:
    """Hash of a registry's model surface (names, code identity, ports, defaults).

    The function identity (``module.qualname``) is part of the fingerprint, so
    swapping a model implementation under the same name invalidates every
    cached result computed with the old registry.
    """
    entries = []
    for name in registry.names():
        info = registry.get(name)
        entries.append(
            (
                info.name,
                func_identity(info.func),
                tuple(info.input_ports),
                tuple(info.output_ports),
                tuple(sorted((str(k), repr(v)) for k, v in info.parameters.items())),
            )
        )
    return stable_hash(*entries)


def sample_seed(base_seed: int, problem_name: str, sample_index: int) -> int:
    """Derive the generation seed of one ``(problem, sample)`` work unit.

    Mixing a stable hash of the problem name fixes the seed-collision bug of
    the original ``base_seed * 100_003 + sample_index`` derivation, where
    every problem replayed the same seed sequence.
    """
    digest = hashlib.sha256(
        f"{int(base_seed)}||{problem_name}||{int(sample_index)}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "little")
