"""Netlist data model.

The JSON format follows the schema in the paper's system prompt (Fig. 3):

.. code-block:: json

    {
      "netlist": {
        "instances": {
          "<instance_name>": "<component>",
          "<instance_name>": {"component": "<component>", "settings": {"<param>": value}}
        },
        "connections": {"<instance>,<port>": "<instance>,<port>"},
        "ports": {"<port_name>": "<instance>,<port>"}
      },
      "models": {"<component>": "<ref>"}
    }

Instance values may be either a bare component-type string or an object with
``component`` and optional ``settings``.  The ``models`` section maps every
component type used in ``instances`` to a built-in model reference.
"""

from __future__ import annotations

import copy
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Dict, List, Optional, Tuple

from .errors import OtherSyntaxError

__all__ = ["Instance", "Netlist", "parse_endpoint", "format_endpoint"]

#: Settings values :meth:`Netlist.copy` can share instead of deep-copying.
_IMMUTABLE_SCALARS = (str, int, float, complex, type(None))

_INF = float("inf")


def _float_json(value: float) -> str:
    """A float the way ``json``'s encoder spells it (``allow_nan`` on)."""
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


#: JSON spellings of the exact leaf types, as ``json.dumps`` writes them.
_LEAF_JSON: Dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    float: _float_json,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_value(value: Any, pad: str) -> str:
    """``value`` as JSON, for a line indented by ``pad`` (indent 2).

    Exact leaf types are spelled directly; anything else goes through
    ``json.dumps(value, indent=2)`` with its lines shifted right by ``pad``
    (encoded strings hold no raw newline).
    """
    spell = _LEAF_JSON.get(type(value))
    if spell is not None:
        return spell(value)
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _write_object(parts: List[str], obj: Any, pad: str) -> None:
    """Append ``obj`` as an indent-2 JSON object starting on a line indented by ``pad``.

    Only a plain ``dict`` with ``str`` keys is written here; anything else
    goes whole through :func:`_json_value`, which keeps ``json``'s key
    coercion and its errors.
    """
    if type(obj) is not dict:
        parts.append(_json_value(obj, pad))
        return
    if not obj:
        parts.append("{}")
        return
    mark = len(parts)
    inner = pad + "  "
    separator = "{\n" + inner
    for key, value in obj.items():
        if type(key) is not str:
            del parts[mark:]
            parts.append(_json_value(obj, pad))
            return
        parts += (separator, encode_basestring_ascii(key), ": ", _json_value(value, inner))
        separator = ",\n" + inner
    parts += ("\n", pad, "}")


def parse_endpoint(endpoint: str) -> Tuple[str, str]:
    """Split an ``"instance,port"`` endpoint string into its two parts."""
    if not isinstance(endpoint, str):
        raise OtherSyntaxError(f"connection endpoint must be a string, got {endpoint!r}")
    instance, comma, port = endpoint.partition(",")
    instance, port = instance.strip(), port.strip()
    if not comma or not instance or not port or "," in port:
        raise OtherSyntaxError(
            f"connection endpoint {endpoint!r} must have the form '<instance>,<port>'"
        )
    return instance, port


def format_endpoint(instance: str, port: str) -> str:
    """Inverse of :func:`parse_endpoint`."""
    return f"{instance},{port}"


@dataclass
class Instance:
    """One component instantiation inside a netlist."""

    component: str
    settings: Dict[str, Any] = field(default_factory=dict)

    def to_obj(self) -> Any:
        """Serialise back to the JSON form (a bare string when there are no settings)."""
        if not self.settings:
            return self.component
        return {"component": self.component, "settings": copy.deepcopy(self.settings)}

    @classmethod
    def from_obj(cls, obj: Any) -> "Instance":
        """Build an :class:`Instance` from the JSON value of the instances section."""
        if isinstance(obj, str):
            return cls(component=obj)
        if isinstance(obj, Mapping):
            if "component" not in obj:
                raise OtherSyntaxError(
                    f"instance object {obj!r} is missing the 'component' key"
                )
            component = obj["component"]
            if not isinstance(component, str):
                raise OtherSyntaxError(
                    f"instance 'component' must be a string, got {component!r}"
                )
            settings = obj.get("settings", {})
            if settings is None:
                settings = {}
            if not isinstance(settings, Mapping):
                raise OtherSyntaxError(
                    f"instance 'settings' must be an object, got {settings!r}"
                )
            if len(obj) != 1 + ("settings" in obj):
                extra_keys = sorted(set(obj) - {"component", "settings"})
                raise OtherSyntaxError(
                    f"instance object has unsupported keys {extra_keys}; "
                    "only 'component' and 'settings' are allowed"
                )
            return cls(component=component, settings=dict(settings))
        raise OtherSyntaxError(
            f"instance value must be a string or an object, got {type(obj).__name__}"
        )


@dataclass
class Netlist:
    """An in-memory PIC netlist.

    Attributes
    ----------
    instances:
        Mapping of instance name to :class:`Instance`.
    connections:
        Mapping of ``"instance,port"`` endpoint to ``"instance,port"`` endpoint.
    ports:
        Mapping of external port name (e.g. ``"I1"``, ``"O1"``) to the
        ``"instance,port"`` endpoint it is attached to.
    models:
        Mapping of component type (as used by instances) to the name of a
        built-in model in the registry.
    """

    instances: Dict[str, Instance] = field(default_factory=dict)
    connections: Dict[str, str] = field(default_factory=dict)
    ports: Dict[str, str] = field(default_factory=dict)
    models: Dict[str, str] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    def model_for(self, instance_name: str) -> Optional[str]:
        """Return the registry reference for an instance, or None if unmapped."""
        instance = self.instances.get(instance_name)
        if instance is None:
            return None
        return self.models.get(instance.component)

    def external_inputs(self) -> Tuple[str, ...]:
        """External port names that look like inputs (start with 'I' or 'i')."""
        return tuple(p for p in self.ports if p.upper().startswith("I"))

    def external_outputs(self) -> Tuple[str, ...]:
        """External port names that look like outputs (start with 'O' or 'o')."""
        return tuple(p for p in self.ports if p.upper().startswith("O"))

    def num_instances(self) -> int:
        """Number of component instances (a simple complexity proxy)."""
        return len(self.instances)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Serialise to the nested-dictionary JSON structure of Fig. 3."""
        return {
            "netlist": {
                "instances": {name: inst.to_obj() for name, inst in self.instances.items()},
                "connections": dict(self.connections),
                "ports": dict(self.ports),
            },
            "models": dict(self.models),
        }

    def to_json(self) -> str:
        """Serialise to the indent-2 JSON document.

        Byte-identical to ``json.dumps(self.to_dict(), indent=2)``, written
        straight from the fields: no settings deep copy and no pure-Python
        generator encoder (which ``indent`` forces on ``json``).
        """
        parts = ['{\n  "netlist": {\n    "instances": ']
        instances = self.instances
        if not instances:
            parts.append("{}")
        elif not all(type(name) is str for name in instances):
            parts.append(
                _json_value({name: inst.to_obj() for name, inst in instances.items()}, "    ")
            )
        else:
            separator = "{\n      "
            for name, inst in instances.items():
                parts += (separator, encode_basestring_ascii(name), ": ")
                separator = ",\n      "
                if not inst.settings:
                    parts.append(_json_value(inst.component, "      "))
                    continue
                parts += (
                    '{\n        "component": ',
                    _json_value(inst.component, "        "),
                    ',\n        "settings": ',
                )
                _write_object(parts, inst.settings, "        ")
                parts.append("\n      }")
            parts.append("\n    }")
        for title, section in (("connections", self.connections), ("ports", self.ports)):
            parts.append(f',\n    "{title}": ')
            _write_object(parts, section if type(section) is dict else dict(section), "    ")
        parts.append('\n  },\n  "models": ')
        models = self.models
        _write_object(parts, models if type(models) is dict else dict(models), "  ")
        parts.append("\n}")
        return "".join(parts)

    def copy(self) -> "Netlist":
        """Deep copy (mutation operators rely on this).

        Immutable scalar settings values are shared; anything else is deep-copied.
        """
        return Netlist(
            instances={
                name: Instance(
                    inst.component,
                    {
                        key: value if isinstance(value, _IMMUTABLE_SCALARS) else copy.deepcopy(value)
                        for key, value in inst.settings.items()
                    },
                )
                for name, inst in self.instances.items()
            },
            connections=dict(self.connections),
            ports=dict(self.ports),
            models=dict(self.models),
        )

    @classmethod
    def from_dict(cls, obj: Mapping[str, Any]) -> "Netlist":
        """Build a :class:`Netlist` from the parsed JSON structure.

        Raises :class:`repro.netlist.errors.OtherSyntaxError` when required
        sections are missing or have the wrong shape.  Semantic checks (ports
        exist, models defined, ...) live in :mod:`repro.netlist.validation`.
        """
        if not isinstance(obj, Mapping):
            raise OtherSyntaxError(f"netlist document must be a JSON object, got {type(obj).__name__}")
        if "netlist" not in obj:
            raise OtherSyntaxError("top-level JSON object is missing the 'netlist' section")
        body = obj["netlist"]
        if not isinstance(body, Mapping):
            raise OtherSyntaxError("the 'netlist' section must be a JSON object")
        models_obj = obj.get("models", {})
        if models_obj is None:
            models_obj = {}
        if not isinstance(models_obj, Mapping):
            raise OtherSyntaxError("the 'models' section must be a JSON object")

        instances_obj = body.get("instances", {})
        connections_obj = body.get("connections", {})
        ports_obj = body.get("ports", {})
        for section_name, section in (
            ("instances", instances_obj),
            ("connections", connections_obj),
            ("ports", ports_obj),
        ):
            if not isinstance(section, Mapping):
                raise OtherSyntaxError(f"the '{section_name}' section must be a JSON object")

        instances = {
            str(name): Instance.from_obj(value) for name, value in instances_obj.items()
        }
        connections: Dict[str, str] = {}
        for key, value in connections_obj.items():
            if not isinstance(value, str):
                raise OtherSyntaxError(
                    f"connection value for {key!r} must be a string endpoint, got {value!r}"
                )
            connections[str(key)] = value
        ports: Dict[str, str] = {}
        for key, value in ports_obj.items():
            if not isinstance(value, str):
                raise OtherSyntaxError(
                    f"port mapping for {key!r} must be a string endpoint, got {value!r}"
                )
            ports[str(key)] = value
        models: Dict[str, str] = {}
        for key, value in models_obj.items():
            models[str(key)] = value  # non-string values detected by validation
        return cls(instances=instances, connections=connections, ports=ports, models=models)
