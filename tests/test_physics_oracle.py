"""Physical sanity of every registered pack's golden designs.

Each golden netlist is solved on the dense and on the compiled cascade
backend, and every solved S-matrix must be finite, reciprocal (``S = Sᵀ``;
every model the packs use is reciprocal) and passive (largest singular value
at most one).  None of these checks compares one executor with another, so
they still catch an error that both executors share.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.packs import get_pack, pack_names
from repro.constants import default_wavelength_grid

#: The default sweep's grid.
WAVELENGTHS = default_wavelength_grid(41)

#: Round-off allowance of the reciprocity and passivity checks.
TOLERANCE = 1e-12

#: Idealised gate-switch fabrics: leakage through their finite-extinction
#: gates can interfere constructively, so their largest singular value may
#: exceed one (``tests/test_bench_golden.py`` allows 1e-2 above unity per
#: |S|² entry for the same reason).
IDEALISED_FABRICS = frozenset(
    f"{architecture}_{n}x{n}"
    for architecture in ("spanke", "benes", "spankebenes", "crossbar")
    for n in (4, 8)
)
FABRIC_PASSIVITY_MARGIN = 2e-2


def _registered_goldens():
    """One pytest param per problem of every registered pack (default params)."""
    return [
        pytest.param(problem, id=f"{pack_name}:{problem.name}")
        for pack_name in pack_names()
        for problem in get_pack(pack_name).build_problems()
    ]


@pytest.mark.parametrize("backend", ["dense", "cascade"])
@pytest.mark.parametrize("problem", _registered_goldens())
def test_golden_is_finite_reciprocal_and_passive(problem, backend, solver):
    data = solver.evaluate(
        problem.golden_netlist(), WAVELENGTHS, port_spec=problem.port_spec, backend=backend
    ).data
    assert np.all(np.isfinite(data))
    assert np.max(np.abs(data - data.transpose(0, 2, 1))) <= TOLERANCE
    margin = FABRIC_PASSIVITY_MARGIN if problem.name in IDEALISED_FABRICS else TOLERANCE
    assert np.max(np.linalg.svd(data, compute_uv=False)) <= 1.0 + margin
