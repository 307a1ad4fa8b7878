"""Netlist corruption operators, one per Table II failure category.

The simulated designer models an imperfect LLM by starting from the golden
netlist and injecting the error classes a real model exhibits.  Every operator
takes the current netlist (and a random generator) and returns a
:class:`MutationResult`: a possibly-modified netlist plus an optional
text-level wrapper applied after serialisation (used for the "extra content"
and "malformed JSON" classes that live at the text level rather than the
netlist level).  The returned netlist is always a fresh copy; the designer
uses the in-place forms (:func:`mutate_in_place`,
:func:`functional_mutation_in_place`) to copy the golden once per draft.

The operators are also reused directly by the validator tests: applying the
operator for category ``X`` to a valid netlist must make the evaluation
pipeline report category ``X``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..netlist.errors import ErrorCategory
from ..netlist.schema import Instance, Netlist, parse_endpoint
from ..sim.registry import ModelRegistry, default_registry

__all__ = [
    "MutationResult",
    "apply_syntax_mutation",
    "apply_functional_mutation",
    "functional_mutation_in_place",
    "mutate_in_place",
    "SYNTAX_MUTATORS",
]


@dataclass
class MutationResult:
    """Outcome of a mutation operator."""

    netlist: Netlist
    text_wrapper: Optional[Callable[[str], str]] = None


def _rng_choice(rng: np.random.Generator, items: List[str]) -> str:
    return items[int(rng.integers(0, len(items)))]


# ----------------------------------------------------------------------
# Syntax mutators (one per Table II category)
#
# Each operator changes the netlist it is given in place and returns its
# text-level wrapper, if any.  The public entry points copy first; the
# simulated designer copies the golden once per draft and chains the
# operators on that copy.
# ----------------------------------------------------------------------
TextWrapper = Callable[[str], str]


def _mutate_undefined_model(netlist: Netlist, rng: np.random.Generator) -> None:
    """Reference a model that does not exist in the built-in library."""
    bogus_models = ["ring", "mmi", "beamsplitter", "ybranch", "dcoupler", "modulator"]
    if netlist.models and rng.random() < 0.5:
        component = _rng_choice(rng, list(netlist.models))
        netlist.models[component] = _rng_choice(rng, bogus_models)
    else:
        name = _rng_choice(rng, list(netlist.instances))
        bogus = _rng_choice(rng, bogus_models)
        netlist.instances[name] = Instance(bogus, dict(netlist.instances[name].settings))


def _mutate_bound_io_port(netlist: Netlist, rng: np.random.Generator) -> None:
    """Connect an endpoint that is already exposed as a top-level port."""
    if not netlist.ports or not netlist.instances:
        return
    ext_name = _rng_choice(rng, list(netlist.ports))
    exposed_endpoint = netlist.ports[ext_name]
    # Wire the exposed endpoint to some other instance port internally.
    other_instance = _rng_choice(rng, list(netlist.instances))
    netlist.connections[exposed_endpoint] = f"{other_instance},O1"


def _mutate_instances_models_confused(netlist: Netlist, rng: np.random.Generator) -> None:
    """Mix up the instances and models sections.

    The classic confusion (seen with real LLMs, per the paper) is writing the
    model binding as an instance-style object instead of a plain reference
    string, i.e. ``"mmi1x2": {"component": "mmi1x2"}`` inside ``models``.
    """
    if netlist.models:
        component = _rng_choice(rng, list(netlist.models))
        ref = netlist.models[component]
        netlist.models[component] = {"component": ref}  # type: ignore[assignment]
    else:
        name = _rng_choice(rng, list(netlist.instances))
        netlist.models[name] = {"component": netlist.instances[name].component}  # type: ignore[assignment]


def _wrap_in_prose(text: str) -> str:
    return (
        "Here is the netlist you asked for:\n```json\n"
        + text
        + "\n```\nLet me know if you need any adjustment."
    )


def _mutate_extra_content(netlist: Netlist, rng: np.random.Generator) -> TextWrapper:
    """Wrap the JSON in markdown fences and add trailing commentary."""
    return _wrap_in_prose


def _mutate_duplicate_connection(netlist: Netlist, rng: np.random.Generator) -> None:
    """Connect an already-connected port a second time (multi-pin net).

    Only existing connection endpoints are reused, so the injected failure is
    unambiguously a duplicate-connection error rather than a wrong-port or
    bound-I/O error.
    """
    keys = list(netlist.connections)
    if len(keys) >= 2:
        first, second = rng.choice(len(keys), size=2, replace=False)
        # Point the second connection at the first connection's target, so that
        # target now has two drivers.
        netlist.connections[keys[int(second)]] = netlist.connections[keys[int(first)]]
    elif len(keys) == 1:
        key = keys[0]
        value = netlist.connections[key]
        netlist.connections[value] = key  # both endpoints now appear twice


def _mutate_dangling_port(netlist: Netlist, rng: np.random.Generator) -> None:
    """Introduce a connection to an instance that does not exist."""
    if not netlist.instances:
        return
    source = _rng_choice(rng, list(netlist.instances))
    netlist.connections[f"{source},O1"] = "floatingNode,I1"


def _mutate_wrong_port_count(netlist: Netlist, rng: np.random.Generator) -> None:
    """Drop one external port (or rename it off-convention) so the count is wrong."""
    if len(netlist.ports) > 1:
        victim = _rng_choice(rng, list(netlist.ports))
        del netlist.ports[victim]
    else:
        # A single-port netlist: renaming it to something that is neither an
        # input (I*) nor an output (O*) also violates the port specification.
        victim = _rng_choice(rng, list(netlist.ports))
        netlist.ports[f"port{len(netlist.ports)}"] = netlist.ports.pop(victim)


def _mutate_wrong_port(netlist: Netlist, rng: np.random.Generator) -> None:
    """Reference a port the instance does not have (e.g. ``I2`` on an mmi1x2)."""
    if netlist.connections and rng.random() < 0.8:
        key = _rng_choice(rng, list(netlist.connections))
        instance, _port = parse_endpoint(netlist.connections[key])
        netlist.connections[key] = f"{instance},I9"
    elif netlist.ports:
        ext = _rng_choice(rng, list(netlist.ports))
        instance, _port = parse_endpoint(netlist.ports[ext])
        netlist.ports[ext] = f"{instance},O9"


def _mutate_bad_component_name(netlist: Netlist, rng: np.random.Generator) -> None:
    """Rename an instance so it contains an underscore (prohibited)."""
    old_name = _rng_choice(rng, list(netlist.instances))
    new_name = f"{old_name}_1"

    def rename(endpoint: str) -> str:
        instance, port = parse_endpoint(endpoint)
        return f"{new_name},{port}" if instance == old_name else endpoint

    netlist.instances[new_name] = netlist.instances.pop(old_name)
    netlist.connections = {rename(k): rename(v) for k, v in netlist.connections.items()}
    netlist.ports = {name: rename(v) for name, v in netlist.ports.items()}


def _truncate_closing_brace(text: str) -> str:
    closing = text.rfind("}")
    return text[:closing] if closing > 0 else text + "{"


def _mutate_other_syntax(netlist: Netlist, rng: np.random.Generator) -> TextWrapper:
    """Emit structurally broken JSON (truncated closing braces)."""
    return _truncate_closing_brace


_IN_PLACE_MUTATORS: Dict[
    ErrorCategory, Callable[[Netlist, np.random.Generator], Optional[TextWrapper]]
] = {
    ErrorCategory.UNDEFINED_MODEL: _mutate_undefined_model,
    ErrorCategory.BOUND_IO_PORT: _mutate_bound_io_port,
    ErrorCategory.INSTANCES_MODELS_CONFUSED: _mutate_instances_models_confused,
    ErrorCategory.EXTRA_CONTENT: _mutate_extra_content,
    ErrorCategory.DUPLICATE_CONNECTION: _mutate_duplicate_connection,
    ErrorCategory.DANGLING_PORT: _mutate_dangling_port,
    ErrorCategory.WRONG_PORT_COUNT: _mutate_wrong_port_count,
    ErrorCategory.WRONG_PORT: _mutate_wrong_port,
    ErrorCategory.BAD_COMPONENT_NAME: _mutate_bad_component_name,
    ErrorCategory.OTHER_SYNTAX: _mutate_other_syntax,
}


def _copying(
    mutate: Callable[[Netlist, np.random.Generator], Optional[TextWrapper]]
) -> Callable[[Netlist, np.random.Generator], MutationResult]:
    """The public form of an in-place operator: it changes a copy, never its input."""

    @functools.wraps(mutate, assigned=("__module__", "__name__", "__qualname__", "__doc__"))
    def mutator(netlist: Netlist, rng: np.random.Generator) -> MutationResult:
        mutated = netlist.copy()
        return MutationResult(mutated, mutate(mutated, rng))

    return mutator


SYNTAX_MUTATORS: Dict[ErrorCategory, Callable[[Netlist, np.random.Generator], MutationResult]] = {
    category: _copying(mutate) for category, mutate in _IN_PLACE_MUTATORS.items()
}


def mutate_in_place(
    netlist: Netlist, category: ErrorCategory, rng: np.random.Generator
) -> Optional[TextWrapper]:
    """Apply one syntax error category's operator to ``netlist`` itself.

    Returns the text-level wrapper the category adds after serialisation,
    or ``None``.  :func:`apply_syntax_mutation` is the copying form.
    """
    try:
        mutate = _IN_PLACE_MUTATORS[category]
    except KeyError as exc:
        raise ValueError(f"no syntax mutator for category {category!r}") from exc
    return mutate(netlist, rng)


def apply_syntax_mutation(
    netlist: Netlist, category: ErrorCategory, rng: np.random.Generator
) -> MutationResult:
    """Apply the corruption operator for one syntax error category to a copy."""
    try:
        mutator = SYNTAX_MUTATORS[category]
    except KeyError as exc:
        raise ValueError(f"no syntax mutator for category {category!r}") from exc
    return mutator(netlist, rng)


# ----------------------------------------------------------------------
# Functional mutation (syntax stays valid, the response changes)
# ----------------------------------------------------------------------
_PREFERRED_FUNCTIONAL_PARAMETERS: Tuple[str, ...] = (
    "coupling",
    "coupling_in",
    "attenuation_db",
    "radius",
    "theta",
    "delta_length",
    "bias_phase",
    "state",
    "loss_db",
    "length",
)


def functional_mutation_in_place(
    netlist: Netlist,
    rng: np.random.Generator,
    registry: Optional[ModelRegistry] = None,
) -> None:
    """Perturb a magnitude-affecting parameter of ``netlist`` itself.

    :func:`apply_functional_mutation` is the copying form.
    """
    registry = registry if registry is not None else default_registry()
    candidates: List[Tuple[str, str, object]] = []
    for name, instance in netlist.instances.items():
        ref = netlist.models.get(instance.component, instance.component)
        if ref not in registry:
            continue
        parameters = registry.get(ref).parameters
        for param in _PREFERRED_FUNCTIONAL_PARAMETERS:
            if param in parameters:
                candidates.append((name, param, parameters[param]))
                break
    if not candidates:
        return
    name, param, default = candidates[int(rng.integers(0, len(candidates)))]
    current = netlist.instances[name].settings.get(param, default)
    new_value: object
    if param == "state":
        # Switch states are categorical: flip bar/cross or output 1/output 2.
        if isinstance(current, str):
            new_value = "bar" if current == "cross" else "cross"
        else:
            new_value = 2 if int(current) == 1 else 1
    elif isinstance(current, (int, float)):
        if param in ("coupling", "coupling_in"):
            new_value = 0.85 if float(current) < 0.5 else 0.15
        elif param == "theta":
            new_value = float(current) + 1.2
        else:
            new_value = float(current) * 1.6 + 1.0
    else:  # non-numeric parameter: flip bar/cross style values
        new_value = "bar" if current == "cross" else "cross"
    netlist.instances[name].settings[param] = new_value


def apply_functional_mutation(
    netlist: Netlist,
    rng: np.random.Generator,
    registry: Optional[ModelRegistry] = None,
) -> Netlist:
    """Perturb a magnitude-affecting parameter so the response deviates.

    The mutated netlist still validates and simulates; only its frequency
    response differs from the golden design, which is exactly the "functional
    error" case of the benchmark.  ``netlist`` itself is not changed.
    """
    mutated = netlist.copy()
    functional_mutation_in_place(mutated, rng, registry)
    return mutated
