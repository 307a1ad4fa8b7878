"""Structural netlist validation implementing the Table II failure taxonomy.

:func:`validate_netlist` checks a parsed :class:`~repro.netlist.schema.Netlist`
against a model registry and (optionally) a port specification, raising the
most specific :class:`~repro.netlist.errors.PICBenchError` subclass for the
first problem it finds.  :func:`collect_violations` returns *all* problems,
which is useful for diagnostics and for the error-breakdown ablation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Generator, Iterator, List, Optional, Tuple

from .errors import (
    BadComponentNameError,
    BoundIOPortError,
    DanglingPortError,
    DuplicateConnectionError,
    InstancesModelsConfusedError,
    NetlistSyntaxError,
    OtherSyntaxError,
    UndefinedModelError,
    WrongPortCountError,
    WrongPortError,
)
from .schema import Netlist, parse_endpoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.registry import ModelRegistry

__all__ = ["PortSpec", "validate_netlist", "collect_violations"]

_VALID_INSTANCE_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9]*$")


@dataclass(frozen=True)
class PortSpec:
    """Expected number of external input and output ports of a design."""

    num_inputs: int
    num_outputs: int

    def describe(self) -> str:
        """Human readable summary used in error messages."""
        return f"{self.num_inputs} input port(s) and {self.num_outputs} output port(s)"


def _check_instance_names(netlist: Netlist) -> Iterator[NetlistSyntaxError]:
    if not netlist.instances:
        yield OtherSyntaxError("the netlist declares no instances")
        return
    for name in netlist.instances:
        if "," in name:
            yield BadComponentNameError(f"instance name {name!r} must not contain commas")
        elif not _VALID_INSTANCE_NAME_RE.match(name):
            yield BadComponentNameError(
                f"instance name {name!r} is invalid; names must be alphanumeric "
                "and must not contain underscores"
            )


def _check_models_section(
    netlist: Netlist, registry: ModelRegistry
) -> Iterator[NetlistSyntaxError]:
    components_in_use = {inst.component for inst in netlist.instances.values()}

    # Detect an inverted models section: keys are registry references while the
    # values are the component types the instances actually use.
    inverted_hits = sum(
        1
        for key, value in netlist.models.items()
        if key in registry and isinstance(value, str) and value in components_in_use
        and key not in components_in_use
    )
    if netlist.models and inverted_hits == len(netlist.models) and inverted_hits > 0:
        yield InstancesModelsConfusedError(
            "the models section appears inverted: entries must map "
            "'<component>': '<ref>' where <component> is the type used in "
            "instances and <ref> is a built-in model name"
        )
        return

    for component, ref in netlist.models.items():
        if not isinstance(ref, str):
            yield InstancesModelsConfusedError(
                f"models entry {component!r} must map to a built-in model name "
                f"string, got {ref!r}"
            )
        elif ref not in registry:
            yield UndefinedModelError(
                f"models entry {component!r} references unknown model {ref!r}; "
                f"available models: {list(registry.names())}"
            )

    for name, inst in netlist.instances.items():
        if inst.component in netlist.models:
            continue
        if inst.component in registry:
            # Implicit model reference (component name equals a built-in model):
            # accepted, as SAX also resolves these directly.
            continue
        yield UndefinedModelError(
            f"instance {name!r} uses component {inst.component!r} which is neither "
            "declared in the models section nor a built-in device"
        )


#: Instance name -> the ports of its model, or None when the model is unresolved.
PortTable = Dict[str, Optional[Tuple[str, ...]]]


def _port_table(netlist: Netlist, registry: ModelRegistry) -> PortTable:
    """The :data:`PortTable` of a netlist, resolving each model reference once."""
    ports_of_ref: Dict[str, Optional[Tuple[str, ...]]] = {}
    table: PortTable = {}
    for name, inst in netlist.instances.items():
        ref = netlist.models.get(inst.component, inst.component)
        if not isinstance(ref, str):
            table[name] = None
            continue
        if ref not in ports_of_ref:
            ports_of_ref[ref] = registry.get(ref).ports if ref in registry else None
        table[name] = ports_of_ref[ref]
    return table


def _check_endpoint(
    ports_of: PortTable, endpoint: str, label: str, raw: str
) -> Tuple[Optional[Tuple[str, str]], Optional[NetlistSyntaxError]]:
    """Validate one ``instance,port`` endpoint: ``(pair, None)`` or ``(None, error)``.

    Errors are prefixed with the context ``f"{label} {raw!r}"``, built only
    when one is reported.
    """
    try:
        instance_name, port = parse_endpoint(endpoint)
    except OtherSyntaxError as exc:
        return None, OtherSyntaxError(f"{label} {raw!r}: {exc.detail}")
    if instance_name not in ports_of:
        return None, DanglingPortError(
            f"{label} {raw!r}: instance {instance_name!r} does not exist in the netlist; "
            "do not introduce arbitrary or unused instance names"
        )
    ports = ports_of[instance_name]
    if ports is not None and port not in ports:
        return None, WrongPortError(
            f"{label} {raw!r}: instance {instance_name!r} does not contain port {port!r}. "
            f"Available ports: {list(ports)}"
        )
    return (instance_name, port), None


def _check_connections(
    netlist: Netlist, ports_of: PortTable, exposed: Dict[Tuple[str, str], str]
) -> Iterator[NetlistSyntaxError]:
    seen: Dict[Tuple[str, str], str] = {}
    for key, value in netlist.connections.items():
        key_pair, error = _check_endpoint(ports_of, key, "connection key", key)
        if error is not None:
            yield error
        value_pair, error = _check_endpoint(ports_of, value, "connection value", value)
        if error is not None:
            yield error
        for pair, raw in ((key_pair, key), (value_pair, value)):
            if pair is None:
                continue
            if pair in seen:
                yield DuplicateConnectionError(
                    f"port {raw!r} is connected more than once; each port can only "
                    "be connected once"
                )
            else:
                seen[pair] = raw
            if pair in exposed:
                yield BoundIOPortError(
                    f"endpoint {raw!r} is exposed as a top-level port and must not "
                    "appear in any internal connection"
                )
        if key_pair is not None and value_pair is not None and key_pair == value_pair:
            yield DuplicateConnectionError(f"connection {key!r} connects a port to itself")


def _check_ports(
    netlist: Netlist, ports_of: PortTable, port_spec: Optional[PortSpec]
) -> Generator[NetlistSyntaxError, None, Dict[Tuple[str, str], str]]:
    """Check the external ports; return each usable endpoint's external port name.

    An unusable endpoint can never equal a usable connection endpoint (the
    verdict depends only on the pair), so leaving it out changes no bound-I/O
    verdict.
    """
    exposed: Dict[Tuple[str, str], str] = {}
    if not netlist.ports:
        yield WrongPortCountError("the netlist exposes no external ports")
    for ext_name, endpoint in netlist.ports.items():
        pair, error = _check_endpoint(ports_of, endpoint, "external port", ext_name)
        if error is not None:
            yield error
        elif pair in exposed:
            yield DuplicateConnectionError(
                f"external ports {exposed[pair]!r} and {ext_name!r} map to "
                f"the same instance port {endpoint!r}"
            )
        else:
            exposed[pair] = ext_name

    if port_spec is not None:
        num_inputs = len(netlist.external_inputs())
        num_outputs = len(netlist.external_outputs())
        unnamed = len(netlist.ports) - num_inputs - num_outputs
        if unnamed:
            yield WrongPortCountError(
                "external port names must start with 'I' for inputs and 'O' for "
                f"outputs; found {unnamed} port(s) that follow neither convention"
            )
        elif (num_inputs, num_outputs) != (port_spec.num_inputs, port_spec.num_outputs):
            yield WrongPortCountError(
                f"the design must expose {port_spec.describe()}, but the netlist "
                f"exposes {num_inputs} input(s) and {num_outputs} output(s)"
            )
    return exposed


def _violations(
    netlist: Netlist, registry: Optional[ModelRegistry], port_spec: Optional[PortSpec]
) -> Iterator[NetlistSyntaxError]:
    """Every violation of the netlist rules, lazily, most fundamental first."""
    from ..sim.registry import default_registry  # local import to avoid an import cycle

    registry = registry if registry is not None else default_registry()
    yield from _check_instance_names(netlist)
    yield from _check_models_section(netlist, registry)
    ports_of = _port_table(netlist, registry)
    exposed = yield from _check_ports(netlist, ports_of, port_spec)
    yield from _check_connections(netlist, ports_of, exposed)


def collect_violations(
    netlist: Netlist,
    registry: Optional[ModelRegistry] = None,
    port_spec: Optional[PortSpec] = None,
) -> List[NetlistSyntaxError]:
    """Return every detectable violation of the netlist rules (may be empty)."""
    return list(_violations(netlist, registry, port_spec))


def validate_netlist(
    netlist: Netlist,
    registry: Optional[ModelRegistry] = None,
    port_spec: Optional[PortSpec] = None,
) -> None:
    """Validate a netlist, raising the first (most fundamental) violation found.

    The order of checks mirrors how SAX would fail: bad names and undefined
    models are reported before connection-level problems.  Checking stops at
    the first violation, which is ``collect_violations(...)[0]``.
    """
    first = next(_violations(netlist, registry, port_spec), None)
    if first is not None:
        raise first
