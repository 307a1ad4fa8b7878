"""Deterministic task scheduling for the execution engine.

The evaluation pipeline is embarrassingly parallel once flattened: every
``(client, restrictions, problem, sample)`` trajectory is an independent pure
function of its inputs (seeds are content-derived, see
:func:`repro.engine.fingerprint.sample_seed`).  The scheduler exploits that by
running an order-preserving ``map`` over a thread pool: results come back in
submission order regardless of completion order, so callers fold them into
reports exactly as the sequential loops did and the output is byte-identical
for any worker count.

Threads (not processes) are the right pool here: the hot path is
``numpy.linalg.solve`` over wavelength-batched matrices, which releases the
GIL, and threads share the simulation caches for free.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, TypeVar

__all__ = ["TaskScheduler", "resolve_workers"]

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(workers: int) -> int:
    """Normalise a ``--workers`` value: ``0`` or negative means "all cores"."""
    if workers > 0:
        return int(workers)
    return max(os.cpu_count() or 1, 1)


class TaskScheduler:
    """Order-preserving parallel ``map`` over a configurable worker pool."""

    def __init__(self, workers: int = 1) -> None:
        """Size the pool: ``workers`` threads, all cores when ``<= 0``."""
        self.workers = resolve_workers(workers)

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Apply ``fn`` to every item, returning results in input order.

        With one worker the items run inline on the calling thread (no pool
        overhead); exceptions propagate to the caller either way, matching
        the sequential loops the scheduler replaces.
        """
        items = list(items)
        if self.workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=min(self.workers, len(items))) as pool:
            return list(pool.map(fn, items))
