"""Tolerant netlist parsing from raw LLM responses.

The evaluation pipeline receives free-form text from the model.  The paper's
restrictions require the result to contain *only* the JSON netlist ("Extra
contents found in JSON" is one of the Table II failure types), so the parser:

1. tries to parse the text directly as JSON;
2. if that fails but a JSON object can be located inside the text (markdown
   code fences, leading prose, trailing comments, ...), raises
   :class:`ExtraContentError` -- the content is recoverable, but the response
   violates the output-format restriction;
3. if no JSON object can be recovered at all, raises
   :class:`OtherSyntaxError`.

``parse_netlist_text(..., strict=False)`` performs the best-effort extraction
without raising for extra content, which is useful for diagnostics.
"""

from __future__ import annotations

import json
import re
from typing import Any, Optional, Tuple

from .errors import ExtraContentError, OtherSyntaxError
from .schema import Netlist

__all__ = ["parse_netlist_text", "extract_json_object", "parse_netlist_dict"]

_CODE_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)

_BRACE_RE = re.compile(r"[{}]")

#: A quote with the backslashes right before it; an odd run escapes it.
_QUOTE_RE = re.compile(r'\\*"')


def _across_quotes(text: str, lo: int, hi: int, outside: int, inside: int) -> Tuple[int, int]:
    """``(outside, inside)`` left of the quotes in ``text[lo:hi]``, given their values right of it.

    A scan outside a string left of a quote opens a string there, so it
    continues as the scan inside one; a scan inside a string left of an
    unescaped quote leaves it there, while an escaped quote keeps it inside.
    """
    if text.find("\\", lo, hi) == -1:
        # Every quote is unescaped (the common case): only their parity counts.
        return (inside, outside) if text.count('"', lo, hi) % 2 else (outside, inside)
    for run in reversed(_QUOTE_RE.findall(text, lo, hi)):
        outside, inside = inside, (outside if len(run) % 2 else inside)
    return outside, inside


def extract_json_object(text: str) -> Optional[str]:
    """Locate the first balanced top-level JSON object inside ``text``.

    Returns the candidate substring, or ``None`` when no balanced object is
    found.  Brace counting ignores braces inside JSON strings.

    Candidate starts are tried at every ``{`` in turn, each scanning as if
    it began outside a string, and the first that balances wins.  A scan's
    future depends only on its position and on whether it is outside a
    string, inside one, or inside one after a backslash, so scans that agree
    once agree from then on.  From the first quote on, the quotes with an
    even run of backslashes before them delimit the strings of every scan
    that has met a quote: a string opened at one ends at the next, and one
    opened at an escaped quote between them ends there too.  One right-to-
    left pass over the braces therefore answers every start in linear time.
    It carries two values for the current position: the index of the brace
    at which a scan outside a string here first closes more braces than it
    opened (``outside``), and the same for a scan inside such a string
    (``inside``); ``len(braces)`` means never.
    """
    braces = [match.start() for match in _BRACE_RE.finditer(text)]
    never = len(braces)
    after = [never] * never  # ``outside`` just right of each "}"
    outside = inside = never
    found: Optional[Tuple[int, int]] = None
    hi = len(text)
    for index in range(never - 1, -1, -1):
        lo = braces[index]
        outside, inside = _across_quotes(text, lo + 1, hi, outside, inside)
        if text[lo] == "}":
            after[index] = outside
            outside = index
        elif outside < never:
            found = index, outside
            outside = after[outside]
        hi = lo
    if found is None:
        return None
    return text[braces[found[0]] : braces[found[1]] + 1]


def _load_json(candidate: str) -> Any:
    try:
        return json.loads(candidate)
    except json.JSONDecodeError as exc:
        raise OtherSyntaxError(f"invalid JSON: {exc}") from exc


def parse_netlist_dict(obj: Any) -> Netlist:
    """Convert an already-parsed JSON value into a :class:`Netlist`."""
    return Netlist.from_dict(obj)


def parse_netlist_text(text: str, *, strict: bool = True) -> Netlist:
    """Parse raw response text into a :class:`Netlist`.

    Parameters
    ----------
    text:
        The raw text of the ``<result>`` section of an LLM response (or any
        string expected to contain a netlist).
    strict:
        When true (the default, matching the benchmark's evaluation), any
        content besides the pure JSON object raises
        :class:`ExtraContentError`.  When false the JSON object is extracted
        silently when possible.

    Raises
    ------
    OtherSyntaxError
        When no parseable JSON netlist can be recovered at all.
    ExtraContentError
        When a netlist is recoverable but the text contains extra content
        (markdown fences, prose, comments) and ``strict`` is true.
    """
    if not isinstance(text, str) or not text.strip():
        raise OtherSyntaxError("empty response: no JSON netlist found")

    stripped = text.strip()

    # Fast path: the whole response is exactly one JSON object.
    if stripped.startswith("{") and stripped.endswith("}"):
        try:
            return parse_netlist_dict(json.loads(stripped))
        except json.JSONDecodeError:
            pass  # fall through to extraction / better error below

    # Look inside markdown code fences first, then anywhere in the text.
    candidate: Optional[str] = None
    fence_match = _CODE_FENCE_RE.search(stripped)
    if fence_match:
        candidate = extract_json_object(fence_match.group(1))
    if candidate is None:
        candidate = extract_json_object(stripped)
    if candidate is None:
        raise OtherSyntaxError(
            "no JSON object found in the response; the result section must contain "
            "exactly one JSON netlist"
        )

    netlist = parse_netlist_dict(_load_json(candidate))

    if strict and candidate.strip() != stripped:
        raise ExtraContentError(
            "the response contains content besides the JSON netlist "
            "(code fences, prose or comments); only the JSON netlist is allowed"
        )
    return netlist
