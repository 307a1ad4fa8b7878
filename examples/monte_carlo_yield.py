"""Monte-Carlo fabrication-yield analysis over the batched executor.

This walks the ``variability`` pack's yield workflow end to end:

1. take a nominal design (the pack's add/drop ring filter, a genuine
   feedback cluster),
2. draw seeded Gaussian fabrication corners perturbing its coupler ratios
   and waveguide losses,
3. push the whole draw stack through the batched settings-axis executor
   (one compiled plan, a handful of fused executor passes instead of one
   pass per draw), and
4. score every draw against a drop-port transmission spec.

Run with ``PYTHONPATH=src python examples/monte_carlo_yield.py``.
"""

from __future__ import annotations

import numpy as np

from repro.bench.problems.variability import (
    YieldSpec,
    monte_carlo_settings,
    monte_carlo_yield,
    ring_filter_nominal,
)
from repro.constants import default_wavelength_grid
from repro.engine import ExecutionEngine

#: Number of fabrication draws (kept small so the example runs in seconds).
DRAWS = 48

#: Wavelength grid of the analysis (a coarse slice of the evaluation band).
WAVELENGTHS = default_wavelength_grid(41)


def main() -> int:
    """Run the yield analysis and print a small report."""
    netlist = ring_filter_nominal()
    # The spec: the drop port must peak above 30% power transmission
    # somewhere in the band (the ring still resonates despite the corner).
    spec = YieldSpec("O2", "I1", min_transmission=0.30, metric="max")

    # Through an engine, the draws fuse into batched executor passes and land
    # in the content-addressed simulation cache under the very same keys
    # individual evaluations would use.
    engine = ExecutionEngine()

    result = monte_carlo_yield(
        netlist,
        spec,
        draws=DRAWS,
        seed=42,
        wavelengths=WAVELENGTHS,
        engine=engine,
        sigma_coupling=0.03,
        sigma_loss_db_cm=1.0,
    )

    print(f"draws:           {result.draws}")
    print(f"passes:          {result.passes}")
    print(f"yield:           {result.yield_fraction:.1%}")
    print(f"worst drop peak: {min(result.metrics):.3f}")
    print(f"best drop peak:  {max(result.metrics):.3f}")

    # The same draws are reproducible sample by sample ...
    batches = monte_carlo_settings(
        netlist, DRAWS, seed=42, sigma_coupling=0.03, sigma_loss_db_cm=1.0
    )
    print(f"corner 0 bus coupling: {batches[0]['cpBus']['coupling']}")

    # ... and the solver's batch counters show the batching at work.
    batch = engine.solver.batch_stats()
    print(f"fused executor passes: {batch.executor_passes}")
    print(f"batch fusion rate:     {batch.fusion_rate:.1%}")

    assert result.draws == DRAWS
    assert 0.0 <= result.yield_fraction <= 1.0
    assert np.all(np.asarray(result.metrics) >= 0.0)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
