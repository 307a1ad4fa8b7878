"""The content-addressed simulation cache backing the execution engine.

:class:`SimulationCache` is a store of simulated
:class:`~repro.sim.sparams.SMatrix` results keyed on ``(canonical netlist
hash, wavelength-grid hash, registry fingerprint, port spec)``.  The memory
tier is a thread-safe :class:`~repro._cache.LRUCache`; optionally every entry
is also persisted as an ``.npz`` file under ``cache_dir`` so later processes
(later sweeps, a sweep's isolated retries, process-mode service jobs) start
warm.

Only *successful* simulations are cached: a classified
:class:`~repro.netlist.errors.PICBenchError` always propagates to the caller
uncached, so error semantics are identical with and without the cache.

Disk-tier resilience: reads and writes run under a small
:class:`~repro.faults.RetryPolicy` (transient ``OSError`` trouble is retried
with backoff, counted in ``CacheStats.disk_retries``), and an entry whose
*content* cannot be parsed is quarantined -- renamed to ``<entry>.corrupt``
and counted in ``CacheStats.disk_corrupt`` -- instead of being silently
re-read and re-failed forever.  The ``cache.disk_read`` / ``cache.disk_write``
fault points make both paths testable deterministically.
"""

from __future__ import annotations

import logging
import os
import tempfile
import threading
import zipfile
from pathlib import Path
from typing import Optional

import numpy as np

from .._cache import CacheStats, LRUCache
from ..faults import RetryPolicy, fault_point, retry_call
from ..sim.sparams import SMatrix

__all__ = ["CacheStats", "LRUCache", "SimulationCache"]

logger = logging.getLogger(__name__)

#: Default disk-I/O retry: one quick retry, tiny backoff.  Real disk faults
#: are either transient (NFS hiccup, AV scanner) or permanent; more attempts
#: only slow the degrade-to-recompute path down.
_DEFAULT_IO_RETRY = RetryPolicy(attempts=2, base_delay=0.02, max_delay=0.2)

#: Errors meaning "the entry's content is corrupt" (quarantine + recompute),
#: as opposed to transient OSError I/O trouble (retry, then recompute).
_CORRUPT_ERRORS = (KeyError, ValueError, zipfile.BadZipFile)


class SimulationCache:
    """Content-addressed memoisation of circuit simulations.

    Parameters
    ----------
    max_entries:
        Capacity of the in-memory LRU tier; ``<= 0`` disables caching.
    cache_dir:
        Optional directory for ``.npz`` persistence.  Entries are written
        atomically (temp file + rename) so processes sharing a directory
        never observe partial files.
    retry_policy:
        Retry behaviour for transient disk I/O errors on both the read and
        the write path.  Defaults to one quick retry with a short backoff.
    """

    _DISK_PREFIX = "sim-"

    def __init__(
        self,
        max_entries: int = 2048,
        cache_dir: Optional[Path | str] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self._memory: LRUCache[str, SMatrix] = LRUCache(max_entries=max_entries)
        self._stats_lock = threading.Lock()
        self._retry_policy = retry_policy or _DEFAULT_IO_RETRY
        self._quarantined: set = set()
        self._nonfinite_rejected = 0
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            # Fail fast with a clear error: a bad cache_dir discovered during
            # a sweep would be classified as a per-sample evaluation failure.
            try:
                self.cache_dir.mkdir(parents=True, exist_ok=True)
            except (FileExistsError, NotADirectoryError) as exc:
                raise ValueError(
                    f"cache_dir {str(self.cache_dir)!r} exists and is not a directory"
                ) from exc

    @property
    def stats(self) -> CacheStats:
        """Counters of the memory tier (disk hits are tracked separately)."""
        return self._memory.stats

    @property
    def enabled(self) -> bool:
        """Whether the cache can store anything at all."""
        return self._memory.max_entries > 0 or self.cache_dir is not None

    @property
    def nonfinite_rejected(self) -> int:
        """How many puts were refused because their data was not finite."""
        with self._stats_lock:
            return self._nonfinite_rejected

    def __len__(self) -> int:
        return len(self._memory)

    # ------------------------------------------------------------------
    def _disk_path(self, key: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{self._DISK_PREFIX}{key}.npz"

    def _load_entry(self, key: str, path: Path) -> SMatrix:
        """One disk-read attempt (fault-injectable, raises on failure)."""
        fault_point("cache.disk_read", key=key, path=path)
        with np.load(path) as payload:
            return SMatrix(
                wavelengths=payload["wavelengths"],
                ports=tuple(str(p) for p in payload["ports"]),
                data=payload["data"],
                # Entries written before the flag existed load as pristine.
                degraded=bool(payload["degraded"]) if "degraded" in payload else False,
            )

    def _quarantine(self, key: str, path: Path, error: Exception) -> None:
        """Move a corrupt entry aside so it is never re-read (and re-failed).

        The rename is atomic, so concurrent readers either still see the
        corrupt entry (and race us to quarantine it -- one rename wins) or
        see a plain miss.  Logged once per key per cache instance.
        """
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            return  # already quarantined (or removed) by a concurrent reader
        with self._stats_lock:
            self.stats.disk_corrupt += 1
            first = key not in self._quarantined
            self._quarantined.add(key)
        if first:
            logger.warning(
                "quarantined corrupt cache entry %s (%s: %s)",
                path.name,
                type(error).__name__,
                error,
            )

    def get(self, key: str) -> Optional[SMatrix]:
        """Look ``key`` up in memory first, then on disk (promoting to memory).

        Transient I/O errors are retried per the cache's retry policy;
        unparseable entries are quarantined (renamed to ``*.corrupt``).
        Either way a failed disk read degrades to a miss -- the caller
        recomputes and overwrites.
        """
        cached = self._memory.get(key)
        if cached is not None:
            return cached
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        try:
            smatrix = retry_call(
                lambda: self._load_entry(key, path),
                policy=self._retry_policy,
                seed=f"cache.disk_read:{key}",
                on_retry=self._count_disk_retry,
            )
        except FileNotFoundError:
            return None  # evicted/quarantined between the exists() probe and the read
        except OSError:
            return None  # persistent I/O trouble: recompute without quarantining
        except _CORRUPT_ERRORS as exc:
            self._quarantine(key, path, exc)
            return None
        with self._stats_lock:
            self.stats.disk_hits += 1
        self._memory.put(key, smatrix)
        return smatrix

    def _count_disk_retry(self, attempt: int, error: Exception) -> None:
        with self._stats_lock:
            self.stats.disk_retries += 1

    def put(self, key: str, smatrix: SMatrix) -> None:
        """Store one simulated result in every configured tier.

        The disk write is skipped when the entry already exists, and is
        otherwise atomic (temp file + rename), so no lock is needed: two
        processes that write the same content-addressed key at once both
        rename a complete file carrying equal content, and readers see one
        or the other.  Process-tier sweeps give each worker whole problems,
        so within a sweep that race does not arise at all.
        """
        if not np.all(np.isfinite(smatrix.data)):
            # A NaN/inf result must never be served from cache as if it were
            # a valid simulation: refuse every tier and count the refusal.
            with self._stats_lock:
                self._nonfinite_rejected += 1
            logger.warning("refusing to cache non-finite simulation result %s", key)
            return
        self._memory.put(key, smatrix)
        path = self._disk_path(key)
        if path is None or path.exists():
            return  # an existing content-addressed entry is already valid
        # Mid-run disk trouble (directory removed, disk full) must not fail
        # the simulation itself: degrade to memory-only caching.
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            retry_call(
                lambda: self._write_entry(path, smatrix),
                policy=self._retry_policy,
                seed=f"cache.disk_write:{key}",
                on_retry=self._count_disk_retry,
            )
        except OSError:
            pass  # persistent disk trouble: degrade to memory-only caching

    @staticmethod
    def _write_entry(path: Path, smatrix: SMatrix) -> None:
        """Atomically persist one entry (temp file + rename); raises OSError."""
        tmp_name = None
        try:
            handle, tmp_name = tempfile.mkstemp(
                prefix=path.stem, suffix=".tmp", dir=str(path.parent)
            )
            with os.fdopen(handle, "wb") as tmp:
                np.savez(
                    tmp,
                    wavelengths=np.asarray(smatrix.wavelengths, dtype=float),
                    ports=np.asarray(smatrix.ports, dtype=str),
                    data=np.asarray(smatrix.data, dtype=complex),
                    degraded=np.asarray(smatrix.degraded, dtype=bool),
                )
            # The fault point sits between write and rename: a "corrupt" rule
            # truncates the temp file that is about to become the live entry,
            # reproducing a torn write that the read side must quarantine.
            fault_point("cache.disk_write", key=path.name, path=Path(tmp_name))
            os.replace(tmp_name, path)
        except OSError:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            raise

    def clear_memory(self) -> None:
        """Drop the memory tier (disk entries, if any, remain valid)."""
        self._memory.clear()
