"""Old-versus-new differential tests for the evaluator's comparison and validation.

``compare_responses`` compares a candidate with one array gather against a
cached golden ``|S|^2`` array, and ``collect_violations`` checks endpoints
against one instance-to-ports table per netlist, parsing each endpoint once.
The per-pair and per-endpoint implementations they replaced are kept below as
references.  ``validate_netlist`` stops at the first violation; it must raise
``collect_violations(...)[0]``.  The rewrites must return exactly what the references return,
with one deliberate difference: a non-finite spectrum now fails the
comparison, where the old loop let it pass.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.packs import get_pack
from repro.bench.suite import get_problem
from repro.constants import DEFAULT_FUNCTIONAL_ATOL
from repro.evalkit.evaluator import AttemptOutcome
from repro.llm import format_response
from repro.llm.mutations import SYNTAX_MUTATORS, apply_functional_mutation
from repro.netlist import (
    BoundIOPortError,
    DanglingPortError,
    DuplicateConnectionError,
    Instance,
    Netlist,
    NetlistSyntaxError,
    OtherSyntaxError,
    WrongPortCountError,
    WrongPortError,
    collect_violations,
    parse_endpoint,
    validate_netlist,
)
from repro.netlist.validation import _check_instance_names, _check_models_section
from repro.sim import SMatrix, compare_responses
from repro.sim.analysis import ComparisonResult, FrequencyResponse
from repro.sim.registry import default_registry

REGISTRY = default_registry()


# ----------------------------------------------------------------------
# Reference implementations (the replaced code)
# ----------------------------------------------------------------------
def reference_parse_endpoint(endpoint):
    """The ``split``-based ``parse_endpoint``."""
    if not isinstance(endpoint, str):
        raise OtherSyntaxError(f"connection endpoint must be a string, got {endpoint!r}")
    parts = [p.strip() for p in endpoint.split(",")]
    if len(parts) != 2 or not all(parts):
        raise OtherSyntaxError(
            f"connection endpoint {endpoint!r} must have the form '<instance>,<port>'"
        )
    return parts[0], parts[1]


def reference_compare_responses(candidate, golden, *, atol=DEFAULT_FUNCTIONAL_ATOL, nonfinite_fails=False):
    """The per-pair loop ``compare_responses``.

    ``nonfinite_fails`` adds the fixed semantics: a non-finite pair error
    counts as ``inf``.  Without it, ``max(0.0, nan)`` is ``0.0`` and
    ``nan > atol`` is ``False``, so NaN spectra pass.
    """
    if isinstance(candidate, SMatrix):
        candidate = FrequencyResponse.from_smatrix(candidate)
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

    if candidate.wavelengths.shape != golden.wavelengths.shape or not np.allclose(
        candidate.wavelengths, golden.wavelengths
    ):
        return ComparisonResult(
            passed=False,
            max_abs_error=float("inf"),
            reason="wavelength grids of candidate and golden responses differ",
        )

    max_error = 0.0
    mismatched: List[Tuple[str, str]] = []
    for pair, golden_spectrum in golden.transmission.items():
        candidate_spectrum = candidate.transmission.get(pair)
        if candidate_spectrum is None:
            mismatched.append(pair)
            max_error = float("inf")
            continue
        error = float(np.max(np.abs(candidate_spectrum - golden_spectrum)))
        if nonfinite_fails and not np.isfinite(error):
            error = float("inf")
        max_error = max(max_error, error)
        if error > atol:
            mismatched.append(pair)

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


def _ports_of_instance(netlist, registry, instance_name) -> Optional[Tuple[str, ...]]:
    """Return the port tuple of an instance, or None when it cannot be resolved."""
    inst = netlist.instances.get(instance_name)
    if inst is None:
        return None
    ref = netlist.models.get(inst.component, inst.component)
    if not isinstance(ref, str) or ref not in registry:
        return None
    return registry.get(ref).ports


def _reference_check_endpoint(netlist, registry, endpoint, context, errors):
    try:
        instance_name, port = reference_parse_endpoint(endpoint)
    except OtherSyntaxError as exc:
        errors.append(OtherSyntaxError(f"{context}: {exc.detail}"))
        return None
    if instance_name not in netlist.instances:
        errors.append(
            DanglingPortError(
                f"{context}: instance {instance_name!r} does not exist in the netlist; "
                "do not introduce arbitrary or unused instance names"
            )
        )
        return None
    ports = _ports_of_instance(netlist, registry, instance_name)
    if ports is not None and port not in ports:
        errors.append(
            WrongPortError(
                f"{context}: instance {instance_name!r} does not contain port {port!r}. "
                f"Available ports: {list(ports)}"
            )
        )
        return None
    return instance_name, port


def _reference_check_connections(netlist, registry, errors):
    seen: Dict[Tuple[str, str], str] = {}
    exposed = set()
    for ext_name, endpoint in netlist.ports.items():
        try:
            exposed.add(reference_parse_endpoint(endpoint))
        except OtherSyntaxError:
            continue  # reported by _check_ports

    for key, value in netlist.connections.items():
        key_pair = _reference_check_endpoint(netlist, registry, key, f"connection key {key!r}", errors)
        value_pair = _reference_check_endpoint(
            netlist, registry, value, f"connection value {value!r}", errors
        )
        for pair, raw in ((key_pair, key), (value_pair, value)):
            if pair is None:
                continue
            if pair in seen:
                errors.append(
                    DuplicateConnectionError(
                        f"port {raw!r} is connected more than once; each port can only "
                        "be connected once"
                    )
                )
            else:
                seen[pair] = raw
            if pair in exposed:
                errors.append(
                    BoundIOPortError(
                        f"endpoint {raw!r} is exposed as a top-level port and must not "
                        "appear in any internal connection"
                    )
                )
        if key_pair is not None and value_pair is not None and key_pair == value_pair:
            errors.append(
                DuplicateConnectionError(
                    f"connection {key!r} connects a port to itself"
                )
            )


def _reference_check_ports(netlist, registry, port_spec, errors):
    if not netlist.ports:
        errors.append(
            WrongPortCountError("the netlist exposes no external ports")
        )
    seen_endpoints: Dict[Tuple[str, str], str] = {}
    for ext_name, endpoint in netlist.ports.items():
        pair = _reference_check_endpoint(
            netlist, registry, endpoint, f"external port {ext_name!r}", errors
        )
        if pair is not None:
            if pair in seen_endpoints:
                errors.append(
                    DuplicateConnectionError(
                        f"external ports {seen_endpoints[pair]!r} and {ext_name!r} map to "
                        f"the same instance port {endpoint!r}"
                    )
                )
            else:
                seen_endpoints[pair] = ext_name

    if port_spec is not None:
        num_inputs = len(netlist.external_inputs())
        num_outputs = len(netlist.external_outputs())
        unnamed = len(netlist.ports) - num_inputs - num_outputs
        if unnamed:
            errors.append(
                WrongPortCountError(
                    "external port names must start with 'I' for inputs and 'O' for "
                    f"outputs; found {unnamed} port(s) that follow neither convention"
                )
            )
        elif (num_inputs, num_outputs) != (port_spec.num_inputs, port_spec.num_outputs):
            errors.append(
                WrongPortCountError(
                    f"the design must expose {port_spec.describe()}, but the netlist "
                    f"exposes {num_inputs} input(s) and {num_outputs} output(s)"
                )
            )


def reference_collect_violations(netlist, registry, port_spec=None) -> List[NetlistSyntaxError]:
    """``collect_violations`` with the per-endpoint checks it replaced.

    The instance-name and models-section checks were not changed and are
    shared with the program.
    """
    errors: List[NetlistSyntaxError] = []
    errors.extend(_check_instance_names(netlist))
    errors.extend(_check_models_section(netlist, registry))
    _reference_check_ports(netlist, registry, port_spec, errors)
    _reference_check_connections(netlist, registry, errors)
    return errors


def _violations(collect, netlist, port_spec=None):
    return [(type(error), error.detail) for error in collect(netlist, REGISTRY, port_spec)]


def assert_same_violations(netlist, port_spec=None):
    for spec in (None, port_spec):
        new = _violations(collect_violations, netlist, spec)
        assert new == _violations(reference_collect_violations, netlist, spec)
        assert_raises_first_violation(netlist, spec)


def assert_raises_first_violation(netlist, port_spec=None):
    """``validate_netlist`` raises ``collect_violations(...)[0]``: same type and detail."""
    violations = collect_violations(netlist, REGISTRY, port_spec)
    try:
        validate_netlist(netlist, REGISTRY, port_spec)
    except NetlistSyntaxError as error:
        assert violations, "validate_netlist raised on a netlist without violations"
        assert (type(error), error.detail) == (type(violations[0]), violations[0].detail)
    else:
        assert not violations


# ----------------------------------------------------------------------
# parse_endpoint
# ----------------------------------------------------------------------
def _parse_outcome(parse, endpoint):
    try:
        return "ok", parse(endpoint)
    except OtherSyntaxError as error:
        return "error", error.detail


ENDPOINT_TEXT = st.text(alphabet=" ,\t\n  abI1O2_", max_size=10)


@settings(max_examples=300, deadline=None)
@given(endpoint=st.one_of(ENDPOINT_TEXT, st.integers(), st.none(), st.lists(st.text(max_size=2), max_size=2)))
def test_parse_endpoint_matches_the_split_reference(endpoint):
    assert _parse_outcome(parse_endpoint, endpoint) == _parse_outcome(reference_parse_endpoint, endpoint)


# ----------------------------------------------------------------------
# compare_responses
# ----------------------------------------------------------------------
PORT_POOL = ("I1", "I2", "I3", "O1", "O2", "O3", "X")
ATOLS = (DEFAULT_FUNCTIONAL_ATOL, 1e-6, 0.0, 0.05)
#: Noise amplitudes around the default tolerance, so pair errors straddle it.
NOISE = (0.0, 1e-4, 4e-4, 1e-3, 3e-3, 0.3)


def _random_smatrix(rng, wavelengths, ports):
    size = (wavelengths.size, len(ports), len(ports))
    data = rng.uniform(-0.8, 0.8, size) + 1j * rng.uniform(-0.8, 0.8, size)
    return SMatrix(wavelengths, tuple(ports), data)


@st.composite
def comparison_cases(draw):
    """A golden response and a candidate derived from it, with an atol."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ports = draw(st.lists(st.sampled_from(PORT_POOL), min_size=1, max_size=4, unique=True))
    wavelengths = np.linspace(1.51, 1.59, draw(st.integers(1, 6)))
    golden_smatrix = _random_smatrix(rng, wavelengths, ports)
    golden_form = draw(st.sampled_from(("response", "smatrix", "stray pairs")))
    golden = {
        "response": FrequencyResponse.from_smatrix(golden_smatrix),
        "smatrix": golden_smatrix,
        "stray pairs": None,
    }[golden_form]
    if golden is None:
        # A transmission pair naming a port outside ``ports``: no candidate has it.
        response = FrequencyResponse.from_smatrix(golden_smatrix)
        transmission = dict(response.transmission)
        stray = draw(st.sampled_from(((ports[0], "Z"), ("Z", ports[0]))))
        transmission[stray] = np.zeros(wavelengths.size)
        golden = FrequencyResponse(response.wavelengths, response.ports, transmission)

    # Candidate ports: a permutation of the golden's, possibly with one port
    # dropped, one added and one renamed.
    candidate_ports = draw(st.permutations(ports))
    if len(candidate_ports) > 1 and draw(st.integers(0, 5)) == 0:
        candidate_ports.pop(draw(st.integers(0, len(candidate_ports) - 1)))
    spare = [port for port in PORT_POOL if port not in candidate_ports]
    if spare and draw(st.integers(0, 5)) == 0:
        candidate_ports.append(draw(st.sampled_from(spare)))
    if spare and draw(st.integers(0, 5)) == 0:
        candidate_ports[draw(st.integers(0, len(candidate_ports) - 1))] = draw(st.sampled_from(spare))
    candidate_ports = list(dict.fromkeys(candidate_ports))

    grid = draw(st.sampled_from(("same", "same", "same", "nudged", "shifted", "longer")))
    candidate_wavelengths = {
        "same": wavelengths.copy(),
        "nudged": wavelengths + 1e-13,
        "shifted": wavelengths + 1e-3,
        "longer": np.linspace(1.51, 1.59, wavelengths.size + 1),
    }[grid]

    # Candidate data: the golden's entries where both ports exist, plus noise
    # per entry; fresh random entries elsewhere.
    candidate = _random_smatrix(rng, candidate_wavelengths, candidate_ports)
    data = candidate.data.copy()
    noise_levels = draw(st.sampled_from((NOISE[:1], NOISE[:3], NOISE)))
    if grid in ("same", "nudged"):
        position = {port: index for index, port in enumerate(ports)}
        for i, out_port in enumerate(candidate_ports):
            for j, in_port in enumerate(candidate_ports):
                if out_port in position and in_port in position:
                    noise = noise_levels[int(rng.integers(0, len(noise_levels)))]
                    data[:, i, j] = golden_smatrix.data[:, position[out_port], position[in_port]]
                    data[:, i, j] += noise * (rng.uniform(-1, 1, len(candidate_wavelengths)) + 0.5j)
    nonfinite = draw(st.sampled_from((None, None, None, "nan-entry", "inf-entry", "all-nan")))
    if nonfinite == "all-nan":
        data[:] = np.nan
    elif nonfinite is not None:
        index = tuple(int(rng.integers(0, n)) for n in data.shape)
        data[index] = np.nan if nonfinite == "nan-entry" else np.inf
    candidate = SMatrix(candidate_wavelengths, tuple(candidate_ports), data)

    if draw(st.booleans()):
        # A response, possibly lacking some pairs.
        response = FrequencyResponse.from_smatrix(candidate)
        transmission = dict(response.transmission)
        for pair in draw(st.lists(st.sampled_from(sorted(transmission)), max_size=3)):
            transmission.pop(pair, None)
        candidate = FrequencyResponse(response.wavelengths, response.ports, transmission)
    return candidate, golden, draw(st.sampled_from(ATOLS)), nonfinite is None


@settings(max_examples=300, deadline=None)
@given(case=comparison_cases())
def test_compare_responses_matches_the_loop_reference(case):
    candidate, golden, atol, finite = case
    result = compare_responses(candidate, golden, atol=atol)
    assert result == reference_compare_responses(candidate, golden, atol=atol, nonfinite_fails=True)
    if finite:
        assert result == reference_compare_responses(candidate, golden, atol=atol)


def test_nonfinite_spectra_fail_with_infinite_error():
    wavelengths = np.linspace(1.51, 1.59, 5)
    golden = FrequencyResponse.from_smatrix(
        _random_smatrix(np.random.default_rng(0), wavelengths, ("I1", "O1"))
    )
    for bad in (np.nan, np.inf, -np.inf):
        data = np.stack([np.eye(2, dtype=complex)] * wavelengths.size)
        data[2, 1, 0] = bad
        result = compare_responses(SMatrix(wavelengths, ("I1", "O1"), data), golden, atol=10.0)
        assert not result.passed
        assert result.max_abs_error == float("inf")
        assert result.mismatched_pairs == [("O1", "I1")]


def test_repeated_comparisons_reuse_the_golden_arrays():
    wavelengths = np.linspace(1.51, 1.59, 4)
    golden_smatrix = _random_smatrix(np.random.default_rng(1), wavelengths, ("I1", "O1", "O2"))
    golden = FrequencyResponse.from_smatrix(golden_smatrix)
    first = compare_responses(golden_smatrix, golden)
    power = golden.power
    assert compare_responses(golden_smatrix.reordered(("O2", "I1", "O1")), golden) == first
    assert golden.power is power and first.passed and first.max_abs_error == 0.0


# ----------------------------------------------------------------------
# collect_violations: every syntax mutator on every pack golden
# ----------------------------------------------------------------------
PACKS = ("core", "wdm-links", "variability")
PACK_PROBLEMS = [
    pytest.param(problem, id=f"{pack}:{problem.name}")
    for pack in PACKS
    for problem in get_pack(pack).build_problems()
]


@pytest.mark.parametrize("problem", PACK_PROBLEMS)
def test_mutated_goldens_get_the_reference_violations(problem, evaluator):
    golden = problem.golden_netlist()
    assert_same_violations(golden, problem.port_spec)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        assert_same_violations(apply_functional_mutation(golden, rng, REGISTRY), problem.port_spec)
        chained = golden
        for mutator in SYNTAX_MUTATORS.values():
            assert_same_violations(mutator(golden, rng).netlist, problem.port_spec)
            chained = mutator(chained, rng).netlist
            assert_same_violations(chained, problem.port_spec)

    # The evaluator classifies every mutated draft and never raises.
    rng = np.random.default_rng(0)
    for mutator in SYNTAX_MUTATORS.values():
        result = mutator(golden, rng)
        text = result.netlist.to_json()
        if result.text_wrapper is not None:
            text = result.text_wrapper(text)
        outcome = evaluator.evaluate_response(problem, format_response("a", text))
        assert isinstance(outcome, AttemptOutcome)
        assert outcome.error is not None or (outcome.syntax_ok and outcome.functional_ok)


# ----------------------------------------------------------------------
# collect_violations: generated hostile endpoints
# ----------------------------------------------------------------------
HOSTILE_BASES = ("mzi_ps", "clements_4x4", "optical_hybrid")
HOSTILE_ENDPOINTS = st.one_of(
    ENDPOINT_TEXT,  # no comma, extra commas, whitespace only, empty parts
    st.builds(
        "{},{}".format,
        st.sampled_from(("mmi1", "mzi1", "phaseShifter", "ghost", " mzi2 ", "")),
        st.sampled_from(("I1", "O1", "O2", "Q7", " I2", "")),
    ),
    st.integers(),
    st.none(),
)
MODEL_VALUES = st.one_of(
    st.sampled_from(REGISTRY.names()),
    st.text(max_size=4),
    st.integers(),
    st.none(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.sampled_from(("component",)), st.sampled_from(REGISTRY.names()), max_size=1),
)
SECTIONS = ("connection key", "connection value", "port", "new connection", "new port")


@st.composite
def hostile_netlists(draw):
    """A small golden with hostile endpoints, models values and instances."""
    problem = get_problem(draw(st.sampled_from(HOSTILE_BASES)))
    netlist = problem.golden_netlist()
    for _ in range(draw(st.integers(1, 4))):
        section = draw(st.sampled_from(SECTIONS))
        connections = list(netlist.connections.items())
        # Reusing an existing endpoint makes duplicate and bound-I/O errors.
        existing = [endpoint for pair in connections for endpoint in pair]
        existing += list(netlist.ports.values())
        endpoint = draw(st.one_of(HOSTILE_ENDPOINTS, st.sampled_from(existing)))
        if section == "connection key" and connections:
            index = draw(st.integers(0, len(connections) - 1))
            connections[index] = (endpoint, connections[index][1])
            netlist.connections = dict(connections)
        elif section == "connection value" and connections:
            key = draw(st.sampled_from([key for key, _ in connections]))
            netlist.connections[key] = endpoint
        elif section == "port" and netlist.ports:
            netlist.ports[draw(st.sampled_from(sorted(netlist.ports)))] = endpoint
        elif section == "new connection":
            netlist.connections[endpoint] = draw(HOSTILE_ENDPOINTS)
        else:
            netlist.ports[draw(st.sampled_from(("I9", "O9", "x")))] = endpoint
    for _ in range(draw(st.integers(0, 2))):
        component = draw(st.sampled_from(sorted(netlist.models) + ["mystery"]))
        netlist.models[component] = draw(MODEL_VALUES)
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(netlist.instances)))
        netlist.instances[name] = Instance(draw(st.sampled_from(("unknownPart", "mmi1x2", "waveguide"))))
    return problem, netlist


@settings(max_examples=200, deadline=None)
@given(case=hostile_netlists())
def test_hostile_endpoints_get_the_reference_violations(case, evaluator):
    problem, netlist = case
    assert_same_violations(netlist, problem.port_spec)
    outcome = evaluator.evaluate_response(problem, format_response("a", netlist.to_json()))
    assert isinstance(outcome, AttemptOutcome)
    assert outcome.error is not None or (outcome.syntax_ok and outcome.functional_ok)


def test_hostile_netlist_without_instances_or_ports():
    for netlist in (
        Netlist(),
        Netlist(connections={"a,I1": "b,O1"}),
        Netlist(ports={"I1": "a,I1", "O1": 7}),  # type: ignore[dict-item]
        Netlist(instances={"a": Instance("waveguide")}, ports={"I1": " a , I1 ", "O1": "a,O1,"}),
    ):
        assert_same_violations(netlist)
