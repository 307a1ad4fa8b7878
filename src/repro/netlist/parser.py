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
from itertools import accumulate, repeat
from typing import Any, Dict, List, Optional

from .errors import ExtraContentError, OtherSyntaxError
from .schema import Netlist

__all__ = ["parse_netlist_text", "extract_json_object", "parse_netlist_dict"]

_CODE_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)

#: One token of a brace scan: a whole JSON string (``"(?:[^"\\]|\\.)*"``
#: unrolled), a brace, or a quote that never closes (everything after it is
#: inside that string).
_JSON_TOKEN_RE = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"|[{}]|".*', re.DOTALL)
_MATCH_GROUP = re.Match.group
_DEPTH_STEP = {"{": 1, "}": -1}


class _Phase:
    """One tokenisation of a text from a ``{`` outside any string, with running depths.

    ``depths[i]`` is the brace depth after token ``i``, so the ``{`` at token
    ``i`` closes at the first later token of depth ``depths[i] - 1``.
    """

    __slots__ = ("matches", "tokens", "depths", "cursor", "closers")

    def __init__(self, text: str, start: int) -> None:
        self.matches = list(_JSON_TOKEN_RE.finditer(text, start))
        self.tokens = list(map(_MATCH_GROUP, self.matches))
        self.depths = list(accumulate(map(_DEPTH_STEP.get, self.tokens, repeat(0))))
        # The first "{" token at or after the latest start sought (None: none left).
        self.cursor: Optional[int] = 0
        self.closers: Optional[List[Optional[int]]] = None

    def seek(self, start: int) -> Optional[int]:
        """The index of this phase's ``{`` token at ``start``, or ``None``.

        ``None`` means the phase saw ``start`` inside a string.  Starts must
        be sought in increasing order.
        """
        cursor = self.cursor
        while cursor is not None and self.matches[cursor].start() < start:
            try:
                cursor = self.tokens.index("{", cursor + 1)
            except ValueError:
                cursor = None
        self.cursor = cursor
        if cursor is not None and self.matches[cursor].start() == start:
            return cursor
        return None

    def close(self, index: int) -> Optional[int]:
        """The index of the token closing the ``{`` at ``index``, or ``None``.

        The phase's own start searches the depths once; a later start builds
        every answer in one right-to-left pass.
        """
        depths = self.depths
        if index == 0:
            try:
                return depths.index(depths[0] - 1, 1)
            except ValueError:
                return None
        if self.closers is None:
            closers: List[Optional[int]] = [None] * len(depths)
            nearest: Dict[int, int] = {}  # depth -> first later token at that depth
            for later in range(len(depths) - 1, -1, -1):
                depth = depths[later]
                closers[later] = nearest.get(depth - 1)
                nearest[depth] = later
            self.closers = closers
        return self.closers[index]


def extract_json_object(text: str) -> Optional[str]:
    """Locate the first balanced top-level JSON object inside ``text``.

    Returns the candidate substring, or ``None`` when no balanced object is
    found.  Brace counting ignores braces inside JSON strings.

    Candidate starts are tried at every ``{`` in turn, each scanning as if
    it began outside a string.  A tokenisation (strings, braces, and an
    unterminated string running to the end) answers every start that falls
    on one of its ``{`` tokens.  The latest two are kept: without escapes
    they cover both quote parities, so any start lies on a ``{`` token of
    one of them, and only a start both saw inside a string is tokenised
    afresh.
    """
    phases: List[_Phase] = []
    start = text.find("{")
    while start != -1:
        for phase in phases:
            index = phase.seek(start)
            if index is not None:
                break
        else:
            # Keep the newest phase with a "{" token left, and the new one.
            phases = [older for older in phases if older.cursor is not None][-1:]
            phase, index = _Phase(text, start), 0
            phases.append(phase)
        close = phase.close(index)
        if close is not None:
            return text[start : phase.matches[close].end()]
        start = text.find("{", start + 1)
    return None


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
