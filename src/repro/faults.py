"""Deterministic fault injection and retry policies (the chaos seam).

Production code threads :func:`fault_point` hooks through its failure-prone
seams -- disk cache I/O, process-pool units, store writes, daemon request
handling, lock acquisition, solver evaluation.  With no plan installed the
hook is a single global load and compare (measurably zero overhead); with a
plan installed, each named point consults its rules and injects the
configured failure:

``raise``
    Raise :class:`FaultInjected` (an ``OSError`` subclass, so every caller
    that classifies I/O trouble as *transient* retries it).
``delay``
    Sleep ``rule.delay`` seconds -- exercises timeout/watchdog paths.
``kill``
    ``os._exit(rule.exit_code)`` -- a hard process death (SIGKILL-shaped):
    worker-crash containment and checkpoint/resume paths.
``corrupt``
    Deterministically overwrite the head of the file passed to the hook --
    torn-write simulation for quarantine paths.

Determinism: every decision is a pure function of the plan ``seed``, the
point name, and either the caller-supplied content ``key`` or the point's
invocation counter -- so a chaos run under a fixed ``REPRO_FAULTS`` value
replays exactly.

Plans install programmatically (:func:`install_plan`, the :func:`inject`
context manager) or from the ``REPRO_FAULTS`` environment variable, which
propagates into worker processes so process-sharded sweeps inject
worker-side too.  ``REPRO_FAULTS`` accepts either a JSON document::

    {"seed": 7, "rules": [{"point": "procpool.unit", "kind": "kill",
                           "probability": 0.5, "max_triggers": 2}]}

or the compact form ``seed=7;procpool.unit=kill@0.5x2`` where each rule is
``point=kind`` with optional ``@probability``, ``x<max_triggers>``,
``+<after>`` (skip the first N evaluations) and ``~<delay seconds>``.

:class:`RetryPolicy` is the shared resilience primitive layered on top:
bounded attempts, exponential backoff with deterministic jitter, and a
transient-vs-permanent error classification.  :func:`retry_call` applies it.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar

__all__ = [
    "FAULT_KINDS",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "INJECTION_POINTS",
    "RetryPolicy",
    "active_plan",
    "clear_plan",
    "fault_point",
    "fault_stats",
    "inject",
    "install_plan",
    "parse_plan",
    "retry_call",
]

T = TypeVar("T")

#: Recognised failure kinds of a :class:`FaultRule`.
FAULT_KINDS: Tuple[str, ...] = ("raise", "delay", "kill", "corrupt")

#: Injection points threaded through production code.  The registry is
#: documentation and a typo guard for plans built against this codebase;
#: tests may install rules for ad-hoc points of their own.
INJECTION_POINTS: Tuple[str, ...] = (
    "cache.disk_read",
    "cache.disk_write",
    "client.connect",
    "procpool.unit",
    "service.journal",
    "store.write",
    "daemon.request",
    "solver.evaluate",
    "sweep.unit",
)

#: Environment variable holding the process-wide injection plan.
FAULTS_ENV_VAR = "REPRO_FAULTS"


class FaultInjected(OSError):
    """The error a ``raise``-kind injection throws.

    Subclasses ``OSError`` on purpose: the production seams classify
    ``OSError`` as *transient* I/O trouble, so injected raises exercise the
    very retry/degrade paths real I/O failures would.
    """


def _unit_fraction(*parts: object) -> float:
    """Deterministic pseudo-random fraction in ``[0, 1)`` from ``parts``."""
    payload = "||".join(str(p) for p in parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: where, what, how often.

    Attributes
    ----------
    point:
        Injection-point name the rule fires at (see :data:`INJECTION_POINTS`).
    kind:
        One of :data:`FAULT_KINDS`.
    probability:
        Firing probability per eligible evaluation; decisions are derived
        from the plan seed (and the call's content key when one is given),
        never from global randomness.
    after:
        Skip the first ``after`` evaluations of the point -- "crash after N
        units" scenarios.
    max_triggers:
        Stop firing after this many injections (``None`` = unbounded).
    delay:
        Sleep length of ``delay``-kind rules, seconds.
    exit_code:
        Process exit code of ``kill``-kind rules.
    """

    point: str
    kind: str = "raise"
    probability: float = 1.0
    after: int = 0
    max_triggers: Optional[int] = None
    delay: float = 0.05
    exit_code: int = 73

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose one of {list(FAULT_KINDS)}"
            )
        if not self.point:
            raise ValueError("a fault rule needs a non-empty point name")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")


class FaultPlan:
    """A set of :class:`FaultRule`\\ s plus the seed their decisions derive from.

    Thread-safe: per-point evaluation and trigger counters are guarded by
    one lock, and the decision for each evaluation is a pure function of
    ``(seed, point, key-or-counter)`` so concurrent runs with stable keys
    stay reproducible.
    """

    def __init__(self, rules: Sequence[FaultRule], *, seed: int = 0) -> None:
        self.seed = int(seed)
        self.rules: Dict[str, List[FaultRule]] = {}
        for rule in rules:
            self.rules.setdefault(rule.point, []).append(rule)
        self._lock = threading.Lock()
        self._evaluations: Dict[str, int] = {}
        self._triggers: Dict[str, int] = {}
        self._rule_triggers: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def points(self) -> List[str]:
        """Point names this plan has rules for."""
        return sorted(self.rules)

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-point ``{"evaluations": n, "triggers": n}`` counters."""
        with self._lock:
            return {
                point: {
                    "evaluations": self._evaluations.get(point, 0),
                    "triggers": self._triggers.get(point, 0),
                }
                for point in self.rules
            }

    # ------------------------------------------------------------------
    def _decide(self, name: str, key: Optional[str]) -> List[FaultRule]:
        """The rules firing at this evaluation of ``name`` (counters updated)."""
        rules = self.rules.get(name)
        if not rules:
            return []
        fired: List[FaultRule] = []
        with self._lock:
            count = self._evaluations.get(name, 0)
            self._evaluations[name] = count + 1
            for index, rule in enumerate(rules):
                if count < rule.after:
                    continue
                rule_id = id(rule) ^ index
                triggered = self._rule_triggers.get(rule_id, 0)
                if rule.max_triggers is not None and triggered >= rule.max_triggers:
                    continue
                if rule.probability < 1.0:
                    basis = key if key is not None else count
                    if _unit_fraction(self.seed, name, index, basis) >= rule.probability:
                        continue
                self._rule_triggers[rule_id] = triggered + 1
                self._triggers[name] = self._triggers.get(name, 0) + 1
                fired.append(rule)
        return fired

    def visit(self, name: str, *, key: Optional[str] = None, path: Optional[Path] = None) -> None:
        """Evaluate the point: inject whatever rules fire (may not return)."""
        for rule in self._decide(name, key):
            if rule.kind == "delay":
                time.sleep(rule.delay)
            elif rule.kind == "kill":
                os._exit(rule.exit_code)
            elif rule.kind == "corrupt":
                if path is not None:
                    _corrupt_file(Path(path), self.seed, name)
            else:  # raise
                raise FaultInjected(f"injected fault at {name}")


def _corrupt_file(path: Path, seed: int, name: str) -> None:
    """Deterministically overwrite the head of ``path`` (torn-write shape)."""
    junk = hashlib.sha256(f"{seed}||{name}||corrupt".encode("utf-8")).digest()
    try:
        with open(path, "r+b") as handle:
            handle.write(junk * 2)
    except OSError:
        pass  # the file vanished: nothing to corrupt


# ----------------------------------------------------------------------
# Process-wide plan management
# ----------------------------------------------------------------------
_ACTIVE_PLAN: Optional[FaultPlan] = None


def install_plan(plan: FaultPlan) -> None:
    """Make ``plan`` the process-wide active plan (replacing any prior one)."""
    global _ACTIVE_PLAN
    _ACTIVE_PLAN = plan


def clear_plan() -> None:
    """Disable fault injection process-wide."""
    global _ACTIVE_PLAN
    _ACTIVE_PLAN = None


def active_plan() -> Optional[FaultPlan]:
    """The currently installed plan, if any."""
    return _ACTIVE_PLAN


@contextmanager
def inject(*rules: FaultRule, seed: int = 0) -> Iterator[FaultPlan]:
    """Scope a plan to a ``with`` block (restores the prior plan on exit)."""
    previous = _ACTIVE_PLAN
    plan = FaultPlan(rules, seed=seed)
    install_plan(plan)
    try:
        yield plan
    finally:
        install_plan(previous) if previous is not None else clear_plan()


def fault_point(name: str, *, key: Optional[str] = None, path: Optional[Path] = None) -> None:
    """Declare one named injection point in production code.

    With no plan installed this is one global load and a compare -- cheap
    enough for hot paths.  ``key`` makes probabilistic decisions
    content-derived (same key, same verdict across runs and processes);
    ``path`` gives ``corrupt``-kind rules a target file.
    """
    plan = _ACTIVE_PLAN
    if plan is None:
        return
    plan.visit(name, key=key, path=path)


def fault_stats() -> Dict[str, Dict[str, int]]:
    """Counters of the active plan (empty when injection is off)."""
    plan = _ACTIVE_PLAN
    return plan.stats() if plan is not None else {}


# ----------------------------------------------------------------------
# REPRO_FAULTS parsing
# ----------------------------------------------------------------------
def parse_plan(text: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` value (JSON document or compact form)."""
    text = text.strip()
    if not text:
        raise ValueError("empty fault plan")
    if text.startswith("{"):
        payload = json.loads(text)
        rules = [FaultRule(**rule) for rule in payload.get("rules", [])]
        return FaultPlan(rules, seed=int(payload.get("seed", 0)))
    seed = 0
    rules = []
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        key, separator, value = item.partition("=")
        if not separator:
            raise ValueError(f"fault rule {item!r} is not of the form point=kind[...]")
        if key == "seed":
            seed = int(value)
            continue
        rules.append(_parse_compact_rule(key, value))
    return FaultPlan(rules, seed=seed)


#: Compact-form rule grammar (modifiers in this fixed order, all optional):
#: ``kind[@probability][x<max_triggers>][+<after>][~<delay seconds>]``.
_COMPACT_RULE = re.compile(
    r"^(?P<kind>[a-z]+)"
    r"(?:@(?P<probability>[0-9.]+))?"
    r"(?:x(?P<max_triggers>\d+))?"
    r"(?:\+(?P<after>\d+))?"
    r"(?:~(?P<delay>[0-9.]+))?$"
)


def _parse_compact_rule(point: str, spec: str) -> FaultRule:
    """One compact rule: ``kind[@prob][x<max>][+<after>][~<delay>]``."""
    match = _COMPACT_RULE.match(spec)
    if match is None:
        raise ValueError(
            f"cannot parse fault rule {point}={spec!r} "
            "(expected kind[@prob][xN][+N][~seconds])"
        )
    fields: Dict[str, object] = {"point": point, "kind": match.group("kind")}
    for name, cast in (
        ("probability", float),
        ("max_triggers", int),
        ("after", int),
        ("delay", float),
    ):
        value = match.group(name)
        if value is not None:
            fields[name] = cast(value)
    return FaultRule(**fields)  # type: ignore[arg-type]


def _install_from_env() -> None:
    """Install the ``REPRO_FAULTS`` plan at import (workers inherit the var)."""
    value = os.environ.get(FAULTS_ENV_VAR)
    if not value:
        return
    try:
        install_plan(parse_plan(value))
    except (ValueError, TypeError, json.JSONDecodeError) as exc:
        raise ValueError(f"invalid {FAULTS_ENV_VAR} value {value!r}: {exc}") from exc


_install_from_env()


# ----------------------------------------------------------------------
# Retry policies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    ``attempts`` counts *total* tries (1 = no retry).  Backoff for attempt
    ``i`` (0-based) is ``min(max_delay, base_delay * multiplier**i)``
    stretched by up to ``jitter`` fraction -- the stretch is derived from
    the caller's ``seed`` string, so two runs of the same workload back off
    identically.  ``transient`` lists the exception types worth retrying;
    anything else propagates immediately (permanent failure).
    """

    attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.25
    transient: Tuple[type, ...] = (OSError, TimeoutError, ConnectionError)

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")

    def is_transient(self, error: BaseException) -> bool:
        """Whether ``error`` is worth another attempt."""
        return isinstance(error, self.transient)

    def delay(self, attempt: int, seed: str = "") -> float:
        """Backoff before retry number ``attempt + 1`` (deterministic)."""
        base = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        return base * (1.0 + self.jitter * _unit_fraction("retry", seed, attempt))


def retry_call(
    fn: Callable[[], T],
    *,
    policy: RetryPolicy,
    seed: str = "",
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Call ``fn`` under ``policy``; the last failure propagates unchanged.

    ``on_retry(attempt, error)`` runs before each backoff (retry counters);
    ``seed`` keys the deterministic jitter.  Permanent (non-transient)
    errors are never retried.
    """
    for attempt in range(policy.attempts):
        try:
            return fn()
        except Exception as error:  # noqa: BLE001 - classified right below
            if attempt + 1 >= policy.attempts or not policy.is_transient(error):
                raise
            if on_retry is not None:
                on_retry(attempt, error)
            sleep(policy.delay(attempt, seed))
    raise AssertionError("unreachable: retry_call returns or raises")  # pragma: no cover
