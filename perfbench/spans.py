"""Layer spans for the traced run, recorded from outside the program.

:class:`Tracer` replaces public functions and methods of ``repro`` with
wrappers that time each call as a span (name, start, end, parent, trace id).
Spans are kept in memory and written out when the run ends; nothing under
``src/`` is changed.  :data:`LAYERS` names every wrapped layer together with
the end-to-end metric it should move and the workload it moves it on.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Dict, List, NamedTuple, Sequence, Tuple


class Layer(NamedTuple):
    """One traced layer: the calls it wraps and what it should move."""

    name: str
    targets: Tuple[str, ...]
    moves: str
    on: str
    new_trace: bool = False


#: Every traced layer.  A target is ``module:attribute`` or
#: ``module:Class.method``; functions are wrapped in the namespace of the
#: module that calls them, because that is where the call looks them up.
LAYERS: Tuple[Layer, ...] = (
    Layer("llm.designer_complete", ("repro.llm.simulated:SimulatedDesigner.complete",),
          "ops_per_s; latency_p50_s", "sweep-core; service-evaluate"),
    Layer("netlist.parse", ("repro.evalkit.evaluator:parse_netlist_text",),
          "ops_per_s", "sweep-core"),
    Layer("netlist.validate", ("repro.evalkit.evaluator:validate_netlist",),
          "ops_per_s", "sweep-core"),
    Layer("prompts.build", ("repro.evalkit.evaluator:build_system_prompt",
                            "repro.evalkit.evaluator:build_user_prompt",
                            "repro.evalkit.evaluator:build_feedback"),
          "ops_per_s", "sweep-core"),
    Layer("sim.compare_responses", ("repro.evalkit.evaluator:compare_responses",),
          "ops_per_s", "sweep-core"),
    Layer("bench.golden_response_for", ("repro.bench.golden:GoldenStore.response_for",),
          "ops_per_s", "sweep-core"),
    Layer("engine.evaluate", ("repro.engine.engine:ExecutionEngine.evaluate",),
          "ops_per_s", "sweep-core"),
    Layer("engine.simulation_key", ("repro.engine.engine:ExecutionEngine.simulation_key",),
          "ops_per_s", "sweep-core"),
    Layer("sim.solver_evaluate", ("repro.sim.circuit:CircuitSolver.evaluate",),
          "ops_per_s (small)", "sweep-core"),
    Layer("sim.solver_evaluate_batch", ("repro.sim.circuit:CircuitSolver.evaluate_batch",),
          "ops_per_s", "yield-mc"),
    Layer("engine.evaluate_batch", ("repro.engine.engine:ExecutionEngine.evaluate_batch",),
          "ops_per_s; peak_rss_mb", "yield-mc"),
    Layer("engine.cache_put", ("repro.engine.cache:SimulationCache.put",),
          "ops_per_s; peak_rss_mb", "yield-mc"),
    Layer("bench.monte_carlo_settings",
          ("repro.bench.problems.variability:monte_carlo_settings",),
          "ops_per_s; peak_rss_mb", "yield-mc"),
    Layer("engine.procpool_map", ("repro.engine.procpool:ProcessScheduler.map",),
          "ops_per_s; setup_s", "sweep-core-proc2"),
    Layer("evalkit.run_sample", ("repro.evalkit.evaluator:Evaluator.run_sample",),
          "ops_per_s", "sweep-core", new_trace=True),
    Layer("harness.sweep_fold", ("repro.harness.runner:run_sweep",),
          "ops_per_s; latency_p50_s", "sweep-core; service-evaluate"),
    Layer("harness.journal_record", ("repro.harness.journal:SweepJournal.record",),
          "ops_per_s; latency_p50_s", "sweep-core; service-evaluate"),
    Layer("service.store_record_job", ("repro.service.store:ResultsStore.record_job",),
          "latency_p50_s; ops_per_s", "service-evaluate"),
    Layer("service.store_save_run", ("repro.service.store:ResultsStore.save_run",),
          "latency_p50_s; ops_per_s", "service-evaluate"),
    Layer("service.dispatch", ("repro.service.daemon:ServiceDaemon.dispatch",),
          "latency_p50_s; ops_per_s", "service-evaluate", new_trace=True),
)

#: One span: (layer, start_ns, end_ns, span_id, parent_id, trace_id, thread_id).
Span = Tuple[str, int, int, int, int, int, int]


def _resolve(target: str):
    """The object owning ``target``'s attribute, and the attribute name."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans around the :data:`LAYERS` while installed.

    Spans are recorded only in the process that installed the wrappers: a
    forked procpool worker inherits the patched classes but calls straight
    through, so process-mode runs carry parent-side spans only.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, original, layer: str, new_trace: bool):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent_id, parent_trace = stack[-1] if stack else (0, 0)
            trace_id = span_id if new_trace or not parent_id else parent_trace
            stack.append((span_id, trace_id))
            start = time.perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(
                    (layer, start, end, span_id, parent_id, trace_id, threading.get_ident())
                )

        return traced

    def install(self) -> None:
        """Wrap every layer target (idempotent per install/uninstall pair)."""
        if self._saved:
            return
        for layer in LAYERS:
            for target in layer.targets:
                owner, attr = _resolve(target)
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, layer.name, layer.new_trace))

    def uninstall(self) -> None:
        """Restore every wrapped target."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take(self) -> List[Span]:
        """Remove and return the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans


def layer_table(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per-layer ``calls``, ``busy_s`` and ``self_s`` of closed spans.

    ``busy_s`` sums the outermost span of each layer (a layer re-entered
    below itself is not counted twice); ``self_s`` is each span's duration
    minus the part its direct child spans cover.
    """
    by_id = {span[3]: span for span in spans}
    child_ns: Dict[int, int] = defaultdict(int)
    for span in spans:
        if span[4]:
            child_ns[span[4]] += span[2] - span[1]
    table: Dict[str, Dict[str, float]] = {
        layer.name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in LAYERS
    }
    for name, start, end, span_id, parent_id, _, _ in spans:
        row = table[name]
        row["calls"] += 1
        row["self_s"] += (end - start - child_ns[span_id]) / 1e9
        ancestor = by_id.get(parent_id)
        while ancestor is not None and ancestor[0] != name:
            ancestor = by_id.get(ancestor[4])
        if ancestor is None:
            row["busy_s"] += (end - start) / 1e9
    return table


def write_spans(path: str, spans: Sequence[Span]) -> None:
    """Write spans as one JSON document (kept in memory until now)."""
    fields = ("name", "start_ns", "end_ns", "span_id", "parent_id", "trace_id", "thread")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": fields, "spans": [list(span) for span in spans]}, handle)


def read_spans(path: str) -> List[Span]:
    """Read spans written by :func:`write_spans`."""
    with open(path, "r", encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)["spans"]]  # type: ignore[misc]
