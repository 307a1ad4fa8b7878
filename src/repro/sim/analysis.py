"""Frequency-response containers and golden-vs-candidate comparison.

The functional evaluation of the benchmark (Section III-C of the paper)
"simply compare[s] the simulation results between generated code completions
and golden reference solutions".  We compare the power transmission ``|S|^2``
between every pair of external ports over the full wavelength grid; the port
*names* must also match, since the problem descriptions specify them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..constants import DEFAULT_FUNCTIONAL_ATOL
from .sparams import SMatrix

__all__ = ["FrequencyResponse", "ComparisonResult", "compare_responses"]


@dataclass(frozen=True)
class FrequencyResponse:
    """A serialisable snapshot of a circuit's power frequency response.

    Attributes
    ----------
    wavelengths:
        Wavelength grid in microns.
    ports:
        External port names of the circuit.
    transmission:
        Mapping ``(output_port, input_port) -> |S|^2`` spectrum.
    """

    wavelengths: np.ndarray
    ports: Tuple[str, ...]
    transmission: Mapping[Tuple[str, str], np.ndarray]

    @classmethod
    def from_smatrix(cls, smatrix: SMatrix) -> "FrequencyResponse":
        """Extract the power response from a simulated S-matrix."""
        transmission = {
            (po, pi): np.abs(smatrix.s(po, pi)) ** 2
            for po in smatrix.ports
            for pi in smatrix.ports
        }
        return cls(
            wavelengths=np.asarray(smatrix.wavelengths, dtype=float),
            ports=tuple(smatrix.ports),
            transmission=transmission,
        )

    def to_dict(self) -> Dict[str, object]:
        """Serialise to plain Python containers (JSON friendly)."""
        return {
            "wavelengths": self.wavelengths.tolist(),
            "ports": list(self.ports),
            "transmission": {
                f"{po}->{pi}": spectrum.tolist()
                for (po, pi), spectrum in self.transmission.items()
            },
        }

    # Array views of ``transmission`` for :func:`compare_responses`, built
    # once per response (golden responses are compared many times).
    @cached_property
    def pairs(self) -> Tuple[Tuple[str, str], ...]:
        """The ``(output_port, input_port)`` keys of :attr:`transmission`, in order."""
        return tuple(self.transmission)

    @cached_property
    def power(self) -> np.ndarray:
        """Every spectrum of :attr:`transmission` as one read-only ``(pairs, W)`` array."""
        power = np.array([self.transmission[pair] for pair in self.pairs], dtype=float)
        power.flags.writeable = False
        return power

    @cached_property
    def pair_ports(self) -> Tuple[Tuple[str, ...], np.ndarray, np.ndarray]:
        """The port names of :attr:`pairs`, and each pair's output and input index into them."""
        names = tuple(dict.fromkeys(port for pair in self.pairs for port in pair))
        index = {name: position for position, name in enumerate(names)}
        outputs = np.array([index[output] for output, _ in self.pairs], dtype=np.intp)
        inputs = np.array([index[source] for _, source in self.pairs], dtype=np.intp)
        return names, outputs, inputs

    @classmethod
    def from_dict(cls, obj: Mapping[str, object]) -> "FrequencyResponse":
        """Inverse of :meth:`to_dict`."""
        transmission: Dict[Tuple[str, str], np.ndarray] = {}
        for key, spectrum in dict(obj["transmission"]).items():  # type: ignore[index]
            out_port, in_port = str(key).split("->")
            transmission[(out_port, in_port)] = np.asarray(spectrum, dtype=float)
        return cls(
            wavelengths=np.asarray(obj["wavelengths"], dtype=float),
            ports=tuple(obj["ports"]),  # type: ignore[arg-type]
            transmission=transmission,
        )


@dataclass
class ComparisonResult:
    """Outcome of comparing a candidate response against the golden response."""

    passed: bool
    max_abs_error: float
    reason: Optional[str] = None
    mismatched_pairs: List[Tuple[str, str]] = field(default_factory=list)

    def __bool__(self) -> bool:  # pragma: no cover - trivial
        return self.passed


def compare_responses(
    candidate: FrequencyResponse | SMatrix,
    golden: FrequencyResponse | SMatrix,
    *,
    atol: float = DEFAULT_FUNCTIONAL_ATOL,
) -> ComparisonResult:
    """Compare a candidate frequency response against the golden one.

    The comparison fails when the external port names differ, the wavelength
    grids differ, or any ``|S|^2`` spectrum deviates by more than ``atol``.
    A golden pair the candidate lacks, or whose difference is not finite
    (a NaN or infinite spectrum), counts as deviating by ``inf``.
    """
    if isinstance(golden, SMatrix):
        golden = FrequencyResponse.from_smatrix(golden)

    if set(candidate.ports) != set(golden.ports):
        missing = sorted(set(golden.ports) - set(candidate.ports))
        extra = sorted(set(candidate.ports) - set(golden.ports))
        return ComparisonResult(
            passed=False,
            max_abs_error=float("inf"),
            reason=(
                "external port names differ from the specification"
                + (f"; missing {missing}" if missing else "")
                + (f"; unexpected {extra}" if extra else "")
            ),
        )

    if candidate.wavelengths.shape != golden.wavelengths.shape or not (
        # Equal grids, the usual case, skip the slower tolerance check.
        np.array_equal(candidate.wavelengths, golden.wavelengths)
        or np.allclose(candidate.wavelengths, golden.wavelengths)
    ):
        return ComparisonResult(
            passed=False,
            max_abs_error=float("inf"),
            reason="wavelength grids of candidate and golden responses differ",
        )

    pairs = golden.pairs
    if not pairs:
        return ComparisonResult(passed=True, max_abs_error=0.0)
    power, missing = _candidate_power(candidate, golden)
    errors = np.max(np.abs(power - golden.power), axis=1)
    errors[missing | ~np.isfinite(errors)] = np.inf
    max_error = float(np.max(errors))
    mismatched = [pairs[index] for index in np.flatnonzero(errors > atol)]

    if mismatched:
        return ComparisonResult(
            passed=False,
            max_abs_error=max_error,
            reason=(
                f"power transmission deviates from the golden response by up to "
                f"{max_error:.3e} (tolerance {atol:.1e}) on {len(mismatched)} port pair(s)"
            ),
            mismatched_pairs=mismatched,
        )
    return ComparisonResult(passed=True, max_abs_error=max_error)


def _candidate_power(
    candidate: FrequencyResponse | SMatrix, golden: FrequencyResponse
) -> Tuple[np.ndarray, np.ndarray]:
    """The candidate's ``|S|^2`` on ``golden.pairs`` and a mask of the pairs it lacks.

    The spectra form a ``(pairs, W)`` array in ``golden.pairs`` order; the rows
    of lacking pairs hold arbitrary values.
    """
    if isinstance(candidate, FrequencyResponse):
        spectra = [candidate.transmission.get(pair) for pair in golden.pairs]
        missing = np.array([spectrum is None for spectrum in spectra])
        filler = np.zeros(golden.wavelengths.shape)
        power = np.array([filler if s is None else s for s in spectra], dtype=float)
        return power, missing
    names, outputs, inputs = golden.pair_ports
    position = {port: index for index, port in enumerate(candidate.ports)}
    # A port the candidate lacks maps to -1, which still indexes (the last
    # port); the mask marks those rows, so their values are never used.
    columns = np.array([position.get(name, -1) for name in names], dtype=np.intp)
    rows, cols = columns[outputs], columns[inputs]
    power = (np.abs(candidate.data[:, rows, cols]) ** 2).T
    return power, (rows < 0) | (cols < 0)
