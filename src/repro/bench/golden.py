"""Golden frequency responses for the benchmark problems.

The paper pre-computes each golden design's frequency response and stores it
alongside the problem ("the correct design is subsequently fed into the
simulator, and its frequency response is directly saved", Section III-B).
This module provides the same behaviour with an in-process cache keyed by
pack, problem name, wavelength grid and golden fingerprint.  The golden
simulations run through the engine, whose ``.npz`` tier persists them under
a ``cache_dir``.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from ..constants import DEFAULT_NUM_WAVELENGTHS, default_wavelength_grid
from ..engine.engine import ExecutionEngine
from ..sim.analysis import FrequencyResponse
from ..sim.circuit import CircuitSolver
from ..sim.registry import ModelRegistry
from .packs import CORE_PACK_NAME, PackParams
from .problem import Problem
from .suite import all_problems, get_problem

__all__ = ["GoldenStore", "golden_response"]


class GoldenStore:
    """Computes and caches golden frequency responses.

    Parameters
    ----------
    num_wavelengths:
        Number of points of the evaluation wavelength grid (1510-1590 nm).
    registry:
        Optional custom model registry (ignored when ``engine`` is given --
        the engine already carries one).
    engine:
        The :class:`~repro.engine.ExecutionEngine` golden simulations route
        through.  Sharing one engine between the store and the evaluator
        deduplicates golden and candidate simulations in a single
        content-addressed cache.  Defaults to a private engine over
        ``registry``.
    pack:
        Problem pack used to resolve string problem names and by
        :meth:`precompute_all`; also namespaces the cache keys, so one
        store can serve several packs without collisions.
    pack_params:
        Optional generation parameters of ``pack`` (parametric packs).
    """

    def __init__(
        self,
        num_wavelengths: int = DEFAULT_NUM_WAVELENGTHS,
        registry: Optional[ModelRegistry] = None,
        *,
        engine: Optional[ExecutionEngine] = None,
        pack: str = CORE_PACK_NAME,
        pack_params: Optional[PackParams] = None,
    ) -> None:
        """Initialise the store (see the class docstring for the parameters)."""
        self.num_wavelengths = int(num_wavelengths)
        self.wavelengths = default_wavelength_grid(self.num_wavelengths)
        self.engine = engine if engine is not None else ExecutionEngine(registry=registry)
        self.pack = pack
        self.pack_params = pack_params
        self._memory: Dict[str, FrequencyResponse] = {}
        self._lock = threading.Lock()

    @property
    def solver(self) -> CircuitSolver:
        """The circuit solver of the underlying engine."""
        return self.engine.solver

    # ------------------------------------------------------------------
    def _golden_key(self, problem: Problem) -> str:
        """Cache key of one golden response: pack, name and golden fingerprint.

        Including the golden netlist's content fingerprint means parametric
        rebuilds of a pack (same problem name, different golden design) can
        never hit a stale entry.
        """
        fingerprint = problem.golden_fingerprint[:12]
        return f"{problem.pack}.{problem.name}.golden.{self.num_wavelengths}.{fingerprint}"

    def response_for(self, problem: Problem | str) -> FrequencyResponse:
        """Return (computing and caching if needed) the golden response.

        String names are resolved against the store's pack.  Safe to call
        from parallel sweep workers: the per-problem memory is lock-protected,
        and in the worst case two threads racing on a cold entry compute the
        same (deterministic) response twice.
        """
        if isinstance(problem, str):
            problem = get_problem(problem, self.pack, self.pack_params)
        memory_key = self._golden_key(problem)
        with self._lock:
            if memory_key in self._memory:
                return self._memory[memory_key]
        smatrix = self.engine.evaluate(
            problem.golden_netlist(), self.wavelengths, port_spec=problem.port_spec
        )
        response = FrequencyResponse.from_smatrix(smatrix)
        with self._lock:
            self._memory[memory_key] = response
        return response

    def precompute_all(self) -> Dict[str, FrequencyResponse]:
        """Compute the golden responses of every problem in the store's pack."""
        return {
            problem.name: self.response_for(problem)
            for problem in all_problems(self.pack, self.pack_params)
        }


_DEFAULT_STORES: Dict[Tuple[int, str], GoldenStore] = {}
_DEFAULT_STORES_LOCK = threading.Lock()


def golden_response(
    problem: Problem | str,
    num_wavelengths: int = DEFAULT_NUM_WAVELENGTHS,
    pack: str = CORE_PACK_NAME,
) -> FrequencyResponse:
    """Module-level convenience wrapper around shared :class:`GoldenStore` instances.

    One store is kept per ``(num_wavelengths, pack)`` pair; string problem
    names resolve against ``pack`` (default-parameter build).
    """
    if isinstance(problem, Problem):
        pack = problem.pack
    with _DEFAULT_STORES_LOCK:
        store = _DEFAULT_STORES.get((num_wavelengths, pack))
        if store is None:
            store = GoldenStore(num_wavelengths=num_wavelengths, pack=pack)
            _DEFAULT_STORES[(num_wavelengths, pack)] = store
    return store.response_for(problem)
