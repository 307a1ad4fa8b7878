"""Model registry: the library of built-in devices a netlist may reference.

The paper's system prompt (Fig. 3) contains an "API document" section that
lists every built-in device together with its ports and parameters, and the
restrictions forbid using any model not in that list ("Use undefined models"
is the first failure type of Table II).  The registry is the single source of
truth for both the simulator and the generated API document.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from . import models as _models
from .sparams import SMatrix

__all__ = ["ModelInfo", "ModelRegistry", "default_registry", "UnknownModelError"]

ModelFunc = Callable[..., SMatrix]


class UnknownModelError(KeyError):
    """Raised when a netlist references a model that is not registered."""


#: Types of a real-number parameter default; a ``bool`` default is not one.
_REAL = (int, float, np.integer, np.floating)


def _nonfinite(value: object) -> bool:
    """Whether a numeric setting's value is ``None`` or holds a NaN or infinity."""
    if value is None:
        return True
    if isinstance(value, (float, np.floating)):
        return not math.isfinite(value)
    if isinstance(value, np.ndarray) and value.dtype.kind in "fc":
        return not bool(np.isfinite(value).all())
    return False


@dataclass(frozen=True)
class ModelInfo:
    """Metadata describing one built-in device model.

    Attributes
    ----------
    name:
        The reference name used in the ``models`` section of a netlist.
    func:
        The callable producing the device's :class:`SMatrix`.
    description:
        One-line human readable description (used in the API document).
    input_ports / output_ports:
        Port names, in order.
    parameters:
        Mapping of user-facing parameter names to their default values.
    """

    name: str
    func: ModelFunc
    description: str
    input_ports: Tuple[str, ...]
    output_ports: Tuple[str, ...]
    parameters: Mapping[str, object] = field(default_factory=dict)

    @property
    def ports(self) -> Tuple[str, ...]:
        """All ports of the device, inputs first."""
        return tuple(self.input_ports) + tuple(self.output_ports)

    def evaluate(self, wavelengths: np.ndarray, **settings: object) -> SMatrix:
        """Evaluate the model, checking the passed settings first.

        Only known parameters may be passed (``TypeError`` otherwise), and a
        parameter whose default is a real number rejects ``None`` and any
        value holding a NaN or infinity (``ValueError``, naming it): JSON
        drafts may spell ``NaN``, ``Infinity``, ``null`` or ``1e999``, and
        a model would turn them into a non-finite response.  Array values
        (the batched path's stacked variants) are checked entry by entry.
        """
        unknown = sorted(set(settings) - set(self.parameters))
        if unknown:
            raise TypeError(
                f"model {self.name!r} got unexpected settings {unknown}; "
                f"allowed parameters: {sorted(self.parameters)}"
            )
        for name, value in settings.items():
            default = self.parameters[name]
            if isinstance(default, _REAL) and not isinstance(default, bool) and _nonfinite(value):
                raise ValueError(
                    f"model {self.name!r} setting {name!r} must be a finite number, got {value!r}"
                )
        return self.func(wavelengths, **settings)

    def api_doc_entry(self) -> str:
        """Render this model as one entry of the system-prompt API document."""
        params = ", ".join(
            f"{key} (default {value!r})" for key, value in self.parameters.items()
        )
        if not params:
            params = "none"
        return (
            f"{self.name}:\n"
            f"    description: {self.description}\n"
            f"    input ports: {', '.join(self.input_ports)}  "
            f"output ports: {', '.join(self.output_ports)}\n"
            f"    parameters: {params}"
        )


class ModelRegistry:
    """A named collection of :class:`ModelInfo` entries."""

    def __init__(self, infos: Optional[Iterable[ModelInfo]] = None) -> None:
        self._infos: Dict[str, ModelInfo] = {}
        self._version = 0
        self._api_document: Tuple[int, str] = (-1, "")
        for info in infos or ():
            self.register(info)

    def register(self, info: ModelInfo) -> None:
        """Add (or replace) a model in the registry."""
        self._infos[info.name] = info
        self._version += 1

    @property
    def version(self) -> int:
        """Mutation counter, bumped on every :meth:`register` call.

        Content caches keyed on the registry use it to notice that a model
        was added or replaced and refresh their fingerprint.
        """
        return self._version

    def __contains__(self, name: object) -> bool:
        return name in self._infos

    def __iter__(self):
        return iter(self._infos.values())

    def __len__(self) -> int:
        return len(self._infos)

    def names(self) -> Tuple[str, ...]:
        """All registered model names, sorted."""
        return tuple(sorted(self._infos))

    def get(self, name: str) -> ModelInfo:
        """Look up a model by name, raising :class:`UnknownModelError` if absent."""
        try:
            return self._infos[name]
        except KeyError as exc:
            raise UnknownModelError(
                f"model {name!r} is not a built-in device; "
                f"available models: {list(self.names())}"
            ) from exc

    def api_document(self) -> str:
        """Render the full API document section of the system prompt.

        Rendered once per registry :attr:`version`.
        """
        version, document = self._api_document
        if version != self._version:
            version = self._version
            document = "\n".join(self.get(name).api_doc_entry() for name in self.names())
            self._api_document = (version, document)
        return document

    def copy(self) -> "ModelRegistry":
        """Return a shallow copy (useful for registering custom models)."""
        return ModelRegistry(self._infos.values())


def _waveguide_like_parameters(length_default: float = 10.0) -> Dict[str, object]:
    return {
        "length": length_default,
        "neff": 2.34,
        "ng": 3.4,
        "wl0": 1.55,
        "loss_db_cm": 0.0,
    }


def default_registry() -> ModelRegistry:
    """Build the registry of built-in devices shipped with the benchmark.

    The set matches Section IV-A of the paper: "We constructed the
    S-parameters for essential devices, including waveguides, couplers, MMIs,
    MZIs, MRRs, and phase shifters", extended with the modulator and switch
    elements the interconnect / switch problems need.
    """
    infos = [
        ModelInfo(
            name="waveguide",
            func=_models.waveguide,
            description="Straight single-mode waveguide",
            input_ports=("I1",),
            output_ports=("O1",),
            parameters=_waveguide_like_parameters(),
        ),
        ModelInfo(
            name="phase_shifter",
            func=_models.phase_shifter,
            description="Phase shifter applying a static phase on top of propagation",
            input_ports=("I1",),
            output_ports=("O1",),
            parameters={**_waveguide_like_parameters(), "phase": 0.0},
        ),
        ModelInfo(
            name="coupler",
            func=_models.coupler,
            description="Directional coupler with configurable power coupling ratio",
            input_ports=("I1", "I2"),
            output_ports=("O1", "O2"),
            parameters={"coupling": 0.5},
        ),
        ModelInfo(
            name="mmi1x2",
            func=_models.mmi1x2,
            description="1x2 multimode interference splitter (50/50)",
            input_ports=("I1",),
            output_ports=("O1", "O2"),
            parameters={"loss_db": 0.0},
        ),
        ModelInfo(
            name="mmi2x1",
            func=_models.mmi2x1,
            description="2x1 multimode interference combiner",
            input_ports=("I1", "I2"),
            output_ports=("O1",),
            parameters={"loss_db": 0.0},
        ),
        ModelInfo(
            name="mmi2x2",
            func=_models.mmi2x2,
            description="2x2 multimode interference coupler (50/50)",
            input_ports=("I1", "I2"),
            output_ports=("O1", "O2"),
            parameters={"loss_db": 0.0},
        ),
        ModelInfo(
            name="mzi",
            func=_models.mzi,
            description="Mach-Zehnder interferometer with one input and one output",
            input_ports=("I1",),
            output_ports=("O1",),
            parameters={**_waveguide_like_parameters(), "delta_length": 10.0},
        ),
        ModelInfo(
            name="mzi2x2",
            func=_models.mzi2x2,
            description="2x2 Mach-Zehnder interferometer cell with internal (theta) and external (phi) phase shifters",
            input_ports=("I1", "I2"),
            output_ports=("O1", "O2"),
            parameters={
                **_waveguide_like_parameters(),
                "theta": 0.0,
                "phi": 0.0,
                "delta_length": 0.0,
            },
        ),
        ModelInfo(
            name="mrr_allpass",
            func=_models.mrr_allpass,
            description="All-pass microring resonator (notch filter)",
            input_ports=("I1",),
            output_ports=("O1",),
            parameters={
                "radius": 5.0,
                "coupling": 0.1,
                "neff": 2.34,
                "ng": 3.4,
                "wl0": 1.55,
                "loss_db_cm": 3.0,
            },
        ),
        ModelInfo(
            name="mrr_adddrop",
            func=_models.mrr_adddrop,
            description="Add/drop microring resonator (channel filter)",
            input_ports=("I1", "I2"),
            output_ports=("O1", "O2"),
            parameters={
                "radius": 5.0,
                "coupling_in": 0.1,
                "coupling_out": 0.1,
                "neff": 2.34,
                "ng": 3.4,
                "wl0": 1.55,
                "loss_db_cm": 3.0,
            },
        ),
        ModelInfo(
            name="mzm",
            func=_models.mzm,
            description="Push-pull Mach-Zehnder modulator at a static drive point",
            input_ports=("I1",),
            output_ports=("O1",),
            parameters={
                "vpi": 3.0,
                "voltage": 0.0,
                "bias_phase": 0.0,
                "length": 100.0,
                "neff": 2.34,
                "ng": 3.4,
                "wl0": 1.55,
                "loss_db_cm": 0.0,
            },
        ),
        ModelInfo(
            name="phase_modulator",
            func=_models.phase_modulator,
            description="Travelling-wave phase modulator at a static drive point",
            input_ports=("I1",),
            output_ports=("O1",),
            parameters={
                "vpi": 3.0,
                "voltage": 0.0,
                "length": 100.0,
                "neff": 2.34,
                "ng": 3.4,
                "wl0": 1.55,
                "loss_db_cm": 0.0,
            },
        ),
        ModelInfo(
            name="eam",
            func=_models.eam,
            description="Electro-absorption modulator at a static bias",
            input_ports=("I1",),
            output_ports=("O1",),
            parameters={
                "attenuation_db": 0.0,
                "length": 50.0,
                "neff": 2.34,
                "ng": 3.4,
                "wl0": 1.55,
            },
        ),
        ModelInfo(
            name="attenuator",
            func=_models.attenuator,
            description="Ideal wavelength-flat attenuator",
            input_ports=("I1",),
            output_ports=("O1",),
            parameters={"attenuation_db": 0.0},
        ),
        ModelInfo(
            name="amplifier",
            func=_models.amplifier,
            description="Ideal wavelength-flat optical amplifier",
            input_ports=("I1",),
            output_ports=("O1",),
            parameters={"gain_db": 0.0},
        ),
        ModelInfo(
            name="crossing",
            func=_models.crossing,
            description="Waveguide crossing (I1->O1 and I2->O2 without coupling)",
            input_ports=("I1", "I2"),
            output_ports=("O1", "O2"),
            parameters={"loss_db": 0.0},
        ),
        ModelInfo(
            name="switch1x2",
            func=_models.switch1x2,
            description="1x2 gate switch selecting one of two outputs",
            input_ports=("I1",),
            output_ports=("O1", "O2"),
            parameters={"state": 1, "extinction_db": 60.0},
        ),
        ModelInfo(
            name="switch2x1",
            func=_models.switch2x1,
            description="2x1 gate switch selecting one of two inputs",
            input_ports=("I1", "I2"),
            output_ports=("O1",),
            parameters={"state": 1, "extinction_db": 60.0},
        ),
        ModelInfo(
            name="switch2x2",
            func=_models.switch2x2,
            description="2x2 optical switch with bar/cross states",
            input_ports=("I1", "I2"),
            output_ports=("O1", "O2"),
            parameters={"state": "cross", "extinction_db": 60.0},
        ),
        ModelInfo(
            name="terminator",
            func=_models.terminator,
            description="Perfectly matched termination for unused ports",
            input_ports=("I1",),
            output_ports=(),
            parameters={},
        ),
    ]
    return ModelRegistry(infos)
