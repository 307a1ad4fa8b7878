"""Problem-suite enumeration over the pack registry.

The suite is the single entry point the evaluation harness and the prompt
builder use to enumerate problems, look them up by name and group them by
category.  Every function defaults to the ``core`` pack -- the paper's 24
problems of Table I, byte-for-byte identical to the original fixed suite --
and accepts a ``pack`` (plus optional generation ``params``) to enumerate any
registered :class:`~repro.bench.packs.ProblemPack` instead.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from .packs import (
    CORE_PACK_NAME,
    PackParams,
    ProblemPack,
    _register_invalidation_hook,
    get_pack,
    pack_names,
)
from .problem import Problem

__all__ = [
    "all_problems",
    "problem_names",
    "get_problem",
    "problems_by_category",
    "suite_summary",
    "find_problem_by_description",
    "EXPECTED_PROBLEM_COUNT",
]

#: The paper's benchmark (the ``core`` pack) contains exactly 24 problems
#: (Section III-B).  Other packs choose their own sizes.
EXPECTED_PROBLEM_COUNT = 24

# Built suites keyed by (pack name, canonical params); guarded by a lock so
# concurrent first calls from the parallel sweep scheduler cannot race on a
# half-initialised entry (the seed's single module-global _CACHE was unsafe
# under the PR 1 thread pool).
_CACHE: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Tuple[Problem, ...]] = {}
_CACHE_LOCK = threading.Lock()

# find_problem_by_description's answers, keyed by the searched text.  Any
# change to the candidates (a suite entering _CACHE, a pack registration
# changing) clears it and bumps _DESCRIPTION_VERSION under _CACHE_LOCK; a
# lookup stores its answer only if the version did not move while it scanned.
_DESCRIPTION_MEMO: Dict[str, Problem] = {}
_DESCRIPTION_VERSION = 0


def _forget_descriptions() -> None:
    """Clear the description memo; the caller holds ``_CACHE_LOCK``."""
    global _DESCRIPTION_VERSION
    _DESCRIPTION_VERSION += 1
    _DESCRIPTION_MEMO.clear()


def _invalidate_pack_cache(pack_name: str) -> None:
    """Drop every cached suite of ``pack_name`` (the pack was re-registered)."""
    with _CACHE_LOCK:
        for key in [key for key in _CACHE if key[0] == pack_name]:
            del _CACHE[key]
        _forget_descriptions()


_register_invalidation_hook(_invalidate_pack_cache)


def _cache_key(
    pack: ProblemPack, params: Optional[PackParams]
) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
    """Canonical, hashable cache key of one (pack, params) suite build."""
    merged = pack.merged_params(params)
    return pack.name, tuple(sorted((key, repr(value)) for key, value in merged.items()))


def all_problems(
    pack: str | ProblemPack = CORE_PACK_NAME, params: Optional[PackParams] = None
) -> Tuple[Problem, ...]:
    """Return the problems of ``pack`` (default: the 24 of Table I, in order).

    Results are cached per (pack, generation parameters).  The build runs
    outside the cache lock -- builders may themselves call :func:`get_problem`
    or :func:`all_problems` (e.g. to wrap core problems), and the lock is not
    reentrant -- so two threads racing on a cold entry may build the same
    (deterministic) suite twice, but only the first one stored becomes the
    canonical tuple that every caller receives.  Storing a new entry clears
    the memo of :func:`find_problem_by_description`.
    """
    pack_obj = get_pack(pack)
    key = _cache_key(pack_obj, params)
    with _CACHE_LOCK:
        cached = _CACHE.get(key)
    if cached is None:
        built = pack_obj.build_problems(params)
        with _CACHE_LOCK:
            cached = _CACHE.get(key)
            if cached is None:
                cached = _CACHE[key] = built
                _forget_descriptions()
    return cached


def problem_names(
    pack: str | ProblemPack = CORE_PACK_NAME, params: Optional[PackParams] = None
) -> Tuple[str, ...]:
    """The names of all problems of ``pack``, in suite order."""
    return tuple(p.name for p in all_problems(pack, params))


def get_problem(
    name: str,
    pack: str | ProblemPack = CORE_PACK_NAME,
    params: Optional[PackParams] = None,
) -> Problem:
    """Look a problem of ``pack`` up by name, raising ``KeyError`` with suggestions."""
    for problem in all_problems(pack, params):
        if problem.name == name:
            return problem
    raise KeyError(
        f"unknown problem {name!r}; available problems: {list(problem_names(pack, params))}"
    )


def problems_by_category(
    pack: str | ProblemPack = CORE_PACK_NAME, params: Optional[PackParams] = None
) -> Dict[str, Tuple[Problem, ...]]:
    """Group the suite of ``pack`` by category, preserving the pack's order."""
    pack_obj = get_pack(pack)
    grouped: Dict[str, List[Problem]] = {category: [] for category in pack_obj.categories}
    for problem in all_problems(pack_obj, params):
        grouped[problem.category].append(problem)
    return {category: tuple(problems) for category, problems in grouped.items()}


def find_problem_by_description(text: str) -> Optional[Problem]:
    """Find the problem whose description is contained in ``text``.

    Searches every suite built so far (including suites built with parameter
    overrides -- a sweep enumerates its suite before querying any designer, so
    its problems are always present here), then falls back to the default
    build of every registered pack, core first.  Returns ``None`` when
    nothing matches.  The simulated designers use this to recognise which
    problem a conversation is about.

    Answers are memoised per text until a suite is built or a pack's
    registration changes; misses are not memoised.
    """
    problem = _DESCRIPTION_MEMO.get(text)
    if problem is not None:
        return problem
    with _CACHE_LOCK:
        version = _DESCRIPTION_VERSION
        built = [problems for _, problems in sorted(_CACHE.items())]
    candidates: List[Problem] = [p for problems in built for p in problems]
    for pack in pack_names():
        candidates.extend(all_problems(pack))
    for problem in candidates:
        description = problem.description.strip()
        if description and description in text:
            with _CACHE_LOCK:
                if version == _DESCRIPTION_VERSION:
                    _DESCRIPTION_MEMO[text] = problem
            return problem
    return None


def suite_summary(
    pack: str | ProblemPack = CORE_PACK_NAME, params: Optional[PackParams] = None
) -> List[Dict[str, object]]:
    """A lightweight summary of a pack's suite (used to regenerate Table I)."""
    return [
        {
            "name": problem.name,
            "title": problem.title,
            "category": problem.category,
            "summary": problem.summary,
            "pack": problem.pack,
            "num_inputs": problem.port_spec.num_inputs,
            "num_outputs": problem.port_spec.num_outputs,
            "golden_instances": problem.complexity,
        }
        for problem in all_problems(pack, params)
    ]
