"""The :class:`Problem` dataclass describing one PICBench design task.

Each of the 24 benchmark problems bundles (Section III-B of the paper):

* a natural-language **description** of the desired circuit, including its
  configuration parameters and the number of input/output ports (Fig. 2),
* the expert-written **golden netlist**, and
* the golden **frequency response**, obtained by simulating the golden design
  (computed lazily and cached by :mod:`repro.bench.golden`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Tuple

from ..engine.fingerprint import netlist_fingerprint
from ..netlist.schema import Netlist
from ..netlist.validation import PortSpec

__all__ = ["Category", "Problem"]


class Category:
    """Problem categories of Table I."""

    OPTICAL_COMPUTING = "Optical Computing"
    OPTICAL_INTERCONNECTS = "Optical Interconnects"
    OPTICAL_SWITCH = "Optical Switch"
    FUNDAMENTAL_DEVICES = "Fundamental Devices"

    ALL: Tuple[str, ...] = (
        OPTICAL_COMPUTING,
        OPTICAL_INTERCONNECTS,
        OPTICAL_SWITCH,
        FUNDAMENTAL_DEVICES,
    )


@dataclass(frozen=True)
class Problem:
    """One benchmark design problem.

    Attributes
    ----------
    name:
        Unique identifier (e.g. ``"mzi_ps"``, ``"benes_8x8"``).
    title:
        Display name matching Table I (e.g. ``"Benes 8 x 8"``).
    category:
        One of the four :class:`Category` values.
    summary:
        The one-line description from Table I.
    description:
        The full natural-language task statement handed to the LLM.
    golden_factory:
        Zero-argument callable building the golden netlist.
    port_spec:
        Expected number of external input / output ports.
    pack:
        Name of the problem pack the problem belongs to.  The paper's 24
        problems live in the ``"core"`` pack; parametric packs stamp their own
        name when building (see :mod:`repro.bench.packs`).
    """

    name: str
    title: str
    category: str
    summary: str
    description: str
    golden_factory: Callable[[], Netlist] = field(repr=False)
    port_spec: PortSpec
    pack: str = "core"

    # The golden design is built once per problem, on first use.  Rebuilding a
    # pack (or ``dataclasses.replace``) makes new problems with fresh memos.
    @cached_property
    def shared_golden(self) -> Netlist:
        """The golden netlist, shared by every caller: read it, never mutate it."""
        return self.golden_factory()

    @cached_property
    def golden_fingerprint(self) -> str:
        """Content fingerprint of the golden netlist (``netlist_fingerprint``)."""
        return netlist_fingerprint(self.shared_golden)

    @cached_property
    def golden_json(self) -> str:
        """``Netlist.to_json()`` of the golden netlist: the text of an error-free draft."""
        return self.shared_golden.to_json()

    @cached_property
    def complexity(self) -> int:
        """Number of instances in the golden design (a difficulty proxy)."""
        return self.shared_golden.num_instances()

    def golden_netlist(self) -> Netlist:
        """A fresh, independently mutable copy of the expert-written golden netlist."""
        return self.shared_golden.copy()
