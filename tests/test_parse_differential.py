"""Old-versus-new differential tests for the netlist writer and the JSON extractor.

``Netlist.to_json`` writes the indent-2 document straight from the netlist's
fields, and ``extract_json_object`` tokenises each scan phase once instead of
walking the text character by character from every ``{`` (keeping the latest
two tokenisations, so starts of either quote parity reuse one).  The replaced
implementations are kept below as references: the writer must return exactly
what ``json.dumps(netlist.to_dict(), indent=2)`` returns, or raise the same
exception type, and the extractor must return exactly what the character scan
returns.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.packs import get_pack
from repro.llm.mutations import SYNTAX_MUTATORS, apply_functional_mutation
from repro.netlist import Instance, Netlist, extract_json_object
from repro.netlist.errors import ErrorCategory
from repro.sim.registry import default_registry

REGISTRY = default_registry()


# ----------------------------------------------------------------------
# Reference implementations (the replaced code)
# ----------------------------------------------------------------------
def reference_to_json(netlist: Netlist) -> str:
    """The ``json.dumps``-based ``Netlist.to_json``."""
    return json.dumps(netlist.to_dict(), indent=2)


def reference_extract_json_object(text):
    """The character-scan ``extract_json_object``."""
    start = text.find("{")
    while start != -1:
        depth = 0
        in_string = False
        escaped = False
        for idx in range(start, len(text)):
            char = text[idx]
            if in_string:
                if escaped:
                    escaped = False
                elif char == "\\":
                    escaped = True
                elif char == '"':
                    in_string = False
                continue
            if char == '"':
                in_string = True
            elif char == "{":
                depth += 1
            elif char == "}":
                depth -= 1
                if depth == 0:
                    return text[start : idx + 1]
        start = text.find("{", start + 1)
    return None


def assert_same_json(netlist: Netlist) -> None:
    """The writer returns the reference's string, or raises its exception type."""
    try:
        expected = reference_to_json(netlist)
    except Exception as error:  # noqa: BLE001 - the type is compared below
        with pytest.raises(type(error)):
            netlist.to_json()
    else:
        assert netlist.to_json() == expected


def assert_same_extraction(text: str) -> None:
    assert extract_json_object(text) == reference_extract_json_object(text)


PACKS = ("core", "wdm-links", "variability")
PACK_PROBLEMS = [
    pytest.param(problem, id=f"{pack}:{problem.name}")
    for pack in PACKS
    for problem in get_pack(pack).build_problems()
]


# ----------------------------------------------------------------------
# Netlist.to_json
# ----------------------------------------------------------------------
@pytest.mark.parametrize("problem", PACK_PROBLEMS)
def test_pack_goldens_and_mutants_match_the_reference_writer(problem):
    golden = problem.golden_netlist()
    assert_same_json(golden)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        assert_same_json(apply_functional_mutation(golden, rng, REGISTRY))
        chained = golden
        for mutator in SYNTAX_MUTATORS.values():
            assert_same_json(mutator(golden, rng).netlist)
            chained = mutator(chained, rng).netlist
            assert_same_json(chained)


SPECIAL_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-5, 1e16, 1.5e300, 5e-324]
)
LEAVES = st.one_of(
    SPECIAL_FLOATS,
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.just(10**30),
    st.integers(),
    st.booleans(),
    st.none(),
    # Non-ASCII and control characters, escaped by the encoder.
    st.text(max_size=6),
    st.sampled_from(["é", "\u2028", "\x00\x1f", "tab\there", 'quote"back\\slash', "😀"]),
)
ANY_KEYS = st.one_of(
    st.text(max_size=4), st.integers(-2, 2), st.floats(), st.booleans(), st.none()
)
NESTED = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.tuples(children),
        st.dictionaries(ANY_KEYS, children, max_size=3),
    ),
    max_leaves=8,
)
#: Values ``json`` cannot encode: both writers must raise ``TypeError``.
UNENCODABLE = st.one_of(
    st.complex_numbers(max_magnitude=10),
    st.sets(st.integers(), max_size=2),
    st.builds(np.arange, st.integers(0, 3)),
)
SETTINGS_VALUES = st.one_of(NESTED, UNENCODABLE)
SECTION_KEYS = st.one_of(st.text(max_size=4), st.integers(-2, 2), st.none(), st.tuples())


@st.composite
def netlists(draw):
    """Small netlists whose fields hold every value the encoder treats specially."""
    instances = {}
    for name in draw(st.lists(st.one_of(st.text(max_size=4), st.integers(0, 3)), max_size=4)):
        component = draw(st.one_of(st.text(max_size=8), st.integers(), st.none()))
        settings_keys = st.one_of(ANY_KEYS, st.tuples())
        instances[name] = Instance(
            component, draw(st.dictionaries(settings_keys, SETTINGS_VALUES, max_size=4))
        )
    endpoints = st.one_of(st.text(max_size=6), st.integers(), st.none())
    connections = draw(st.dictionaries(SECTION_KEYS, endpoints, max_size=4))
    ports = draw(st.dictionaries(SECTION_KEYS, endpoints, max_size=3))
    models = draw(
        st.dictionaries(
            SECTION_KEYS,
            st.one_of(
                st.text(max_size=8),
                st.integers(),
                st.dictionaries(st.just("component"), st.text(max_size=8), max_size=1),
                NESTED,
            ),
            max_size=3,
        )
    )
    return Netlist(instances=instances, connections=connections, ports=ports, models=models)


@settings(max_examples=400, deadline=None)
@given(netlist=netlists())
def test_generated_netlists_match_the_reference_writer(netlist):
    assert_same_json(netlist)


def test_writer_matches_the_reference_on_hand_picked_values():
    settings_cases = [
        {},
        {"phase": math.nan, "gain": math.inf, "loss": -math.inf, "zero": -0.0},
        {"small": 1e-5, "large": 1e16, "huge": 10**30, "flag": True, "off": False, "none": None},
        {"name": "ünïcødé \u2028 \x07", "nested": {"a": [1, [2, {}], {"b": []}], "c": {}}},
        {"np": np.float64(0.1), "np_nan": np.float64("nan"), "tuple": (1, "x")},
        {1: "int key", 2.5: "float key", None: "none key", False: "bool key"},
    ]
    for settings_value in settings_cases:
        assert_same_json(
            Netlist(
                instances={"a": Instance("waveguide", settings_value), "b": Instance("mmi1x2")},
                connections={"a,O1": "b,I1"},
                ports={"I1": "a,I1", "O1": "b,O1"},
                models={"waveguide": "waveguide", "mmi1x2": {"component": "mmi1x2"}, "x": 3},
            )
        )
    assert_same_json(Netlist())
    assert_same_json(Netlist(instances={1: Instance("waveguide", {"length": 2.0})}))
    assert_same_json(Netlist(ports={("I", 1): "a,I1"}))  # TypeError: key is a tuple
    assert_same_json(Netlist(instances={"a": Instance("waveguide", {"v": 1j})}))  # TypeError


def test_writer_raises_like_the_reference_on_a_cycle():
    loop = [1]
    loop.append(loop)
    netlist = Netlist(instances={"a": Instance("waveguide", {"loop": loop})})
    with pytest.raises(ValueError):
        reference_to_json(netlist)
    with pytest.raises(ValueError):
        netlist.to_json()


# ----------------------------------------------------------------------
# extract_json_object
# ----------------------------------------------------------------------
@settings(max_examples=2000, deadline=None)
@given(text=st.text(alphabet='{}"\\ab\n', max_size=40))
def test_generated_brace_texts_match_the_reference_extractor(text):
    assert_same_extraction(text)


@settings(max_examples=300, deadline=None)
@given(
    parts=st.lists(
        st.one_of(
            st.sampled_from(['{', '}', '"', '\\', '\\"', '"{"', '"}"', '{"a": 1}', "x"]),
            st.text(alphabet='{}"\\ab', max_size=5),
        ),
        max_size=30,
    )
)
def test_generated_json_like_texts_match_the_reference_extractor(parts):
    assert_same_extraction("".join(parts))


@pytest.mark.parametrize("problem", PACK_PROBLEMS)
def test_truncated_and_fenced_drafts_match_the_reference_extractor(problem):
    text = problem.golden_netlist().to_json()
    for cut in range(0, len(text), max(len(text) // 25, 1)):
        assert_same_extraction(text[:cut])
        assert_same_extraction(text[cut:])
    for wrapped in (
        f"```json\n{text}\n```",
        f"```\n{text[: len(text) // 2]}\n```",
        f"Here is the netlist:\n{text}\nIt uses {{braces}} and \"quotes\".",
        f'prose with a stray {{ and an open "string {text}',
        f"{text}\n{text}",
    ):
        assert_same_extraction(wrapped)
    rng = np.random.default_rng(0)
    for category in (ErrorCategory.EXTRA_CONTENT, ErrorCategory.OTHER_SYNTAX):
        for _ in range(3):
            result = SYNTAX_MUTATORS[category](problem.golden_netlist(), rng)
            draft = result.netlist.to_json()
            if result.text_wrapper is not None:
                draft = result.text_wrapper(draft)
            assert_same_extraction(draft)


def test_unbalanced_braces_are_answered_from_one_tokenisation():
    text = "{" * 2000 + "}"
    assert extract_json_object(text) == reference_extract_json_object(text) == "{}"
    assert extract_json_object("{" * 2000) is None
    assert extract_json_object('{"' + "{" * 2000) is None


#: Texts whose starts alternate between the two quote parities, or need a
#: tokenisation per start (escaped quotes), with the closing text that makes
#: some start balance.
PARITY_UNITS = ('{"', '{"{', '{"\\"', '{\\"', '"{', '{"}', '{"{"}', 'a{"b\\\\"')
PARITY_TAILS = ("", "}", '"}', "}}", '"}}', '}"}', '"' + "}" * 5)


@pytest.mark.parametrize("unit", PARITY_UNITS)
def test_repeated_quote_parity_texts_match_the_reference_extractor(unit):
    for count in (1, 2, 3, 7, 40):
        for tail in PARITY_TAILS:
            assert_same_extraction(unit * count + tail)
            assert_same_extraction("x" + unit * count + tail + unit)


@settings(max_examples=1000, deadline=None)
@given(
    parts=st.lists(
        st.sampled_from(['{"', '"{', '{', '}', '"', '\\"', '\\', '"}', "a", '{"{', " "]),
        max_size=120,
    )
)
def test_long_generated_texts_match_the_reference_extractor(parts):
    assert_same_extraction("".join(parts))


@pytest.mark.parametrize(
    "text",
    ['{"' * 4000, '{"' * 10000, '{"{' * 10000, "{" * 20000],
    ids=["quote-brace-4000", "quote-brace-10000", "quote-brace-brace-10000", "brace-20000"],
)
def test_hostile_brace_and_quote_texts_are_linear(text):
    # Seconds each when every start re-tokenised or searched its depths to
    # the end of the text; every start of either quote parity lands on a
    # "{" token of one of the latest two tokenisations.
    start = time.perf_counter()
    assert extract_json_object(text) is None
    assert time.perf_counter() - start < 0.5
