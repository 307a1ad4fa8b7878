"""Experiment sweeps reproducing the paper's evaluation (Tables III and IV).

The paper evaluates five LLMs with and without the Table II restrictions and
with 0, 1 and 3 error-feedback iterations, reporting syntax and functionality
Pass@1 and Pass@5.  One run with ``max_feedback_iterations = 3`` contains all
the information needed to derive the 0/1/3-feedback columns, so the sweep runs
each (model, restrictions) pair exactly once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..bench.golden import GoldenStore
from ..bench.packs import CORE_PACK_NAME, PackParams, get_pack
from ..bench.problem import Problem
from ..bench.suite import all_problems
from ..engine.engine import EngineConfig, ExecutionEngine
from ..engine.procpool import ProcessScheduler, UnitFailure, WorkerSpec, aggregate_engine_stats
from ..evalkit.evaluator import EvaluationConfig, Evaluator
from ..evalkit.outcome import AttemptRecord, EvalReport, SampleResult
from ..faults import RetryPolicy, fault_point, fault_stats
from .journal import SweepJournal, sweep_fingerprint, unit_key
from ..llm.base import LLMClient
from ..llm.profiles import DEFAULT_PROFILES, DesignerProfile
from ..llm.simulated import SimulatedDesigner
from ..netlist.errors import ErrorCategory
from ..prompts.system_prompt import PromptConfig

__all__ = ["EXECUTION_MODES", "SweepConfig", "SweepResult", "SweepSpec", "run_model", "run_sweep"]

#: Feedback-iteration counts reported by the paper's tables.
FEEDBACK_COLUMNS: Tuple[int, ...] = (0, 1, 3)

#: Pass@k values reported by the paper's tables.
PASS_AT: Tuple[int, ...] = (1, 5)

#: Recognised parallel execution tiers (see :attr:`SweepSpec.execution_mode`).
EXECUTION_MODES: Tuple[str, ...] = ("thread", "process")


def _parse_pack_params(raw: Optional[Sequence[str]]) -> Optional[Dict[str, object]]:
    """Parse repeated ``--pack-param KEY=VALUE`` flags into a mapping.

    Values are parsed as JSON when possible (``channels=[2, 4]``,
    ``spacing=0.1``) and fall back to the raw string otherwise.
    """
    if not raw:
        return None
    params: Dict[str, object] = {}
    for item in raw:
        key, separator, value = item.partition("=")
        if not separator or not key:
            raise ValueError(f"--pack-param must look like KEY=VALUE, got {item!r}")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    return params


def _names_or_none(names: Optional[Sequence[str]]) -> Optional[Tuple[str, ...]]:
    """``--problems`` without names selects the whole pack."""
    return tuple(names) if names else None


def _flagged(default: object, flag: str, help: str, *, semantic: bool = False, parse=None, **argparse):
    """Declare one sweep field: its default, its CLI flag and whether it determines results.

    ``semantic`` fields are the ones :func:`~repro.harness.journal.sweep_fingerprint`
    hashes; every other field changes how a sweep runs, never what it
    reports.  ``argparse`` holds the flag's extras (``type``, ``choices``,
    ``nargs``, ``action``, ``metavar``) and ``parse`` turns the parsed flag
    value into the field value.
    """
    metadata = {"flag": flag, "help": help, "semantic": semantic, "parse": parse, "argparse": argparse}
    return field(default=default, metadata=metadata)


def _flag_dest(spec_field) -> str:
    """The argparse destination of a field's flag (``--pack-param`` -> ``pack_param``)."""
    return spec_field.metadata["flag"][2:].replace("-", "_")


@dataclass(frozen=True)
class SweepSpec:
    """The sweep fields a job may set, each declared once.

    Both front doors derive their flags from these declarations
    (:meth:`add_flags`, :meth:`from_args`): the harness through
    :class:`SweepConfig`, ``jobs submit`` through
    :class:`repro.service.spec.JobSpec`.  Each field's metadata holds its
    flag, help text and whether it is *semantic* -- part of the sweep's
    identity, hashed by :func:`~repro.harness.journal.sweep_fingerprint`
    for the sweep journal and the results store alike.  The seven semantic
    fields are the sample count, feedback budget, wavelength grid, base
    seed, problem selection, pack and pack parameters; the others (execution
    tier, retry budget, watchdog) change how fast or how robustly a sweep
    runs, never what it reports.

    ``pack`` selects the problem pack the sweep enumerates (default: the
    paper's ``core`` suite) and ``pack_params`` overrides the pack's
    generation parameters (parametric packs such as ``wdm-links``).
    ``execution_mode="process"`` shards the work units across
    ``processes`` worker processes, one problem per shard and costliest
    problem first, each rebuilding its engine and clients from a picklable
    spec; it requires spec-constructible clients (the bundled
    :class:`SimulatedDesigner`), since live API clients hold sockets that
    cannot cross a process boundary.  ``retry_attempts`` /
    ``retry_backoff`` budget the process tier's per-unit crash recovery
    and ``unit_timeout`` arms its hung-worker watchdog.
    """

    samples_per_problem: int = _flagged(
        5, "--samples", "samples per problem (n of Pass@k)", semantic=True, type=int
    )
    max_feedback_iterations: int = _flagged(
        3, "--feedback", "maximum number of error-feedback iterations", semantic=True, type=int
    )
    num_wavelengths: int = _flagged(
        41, "--wavelengths", "number of evaluation wavelength points", semantic=True, type=int
    )
    base_seed: int = _flagged(0, "--seed", "base random seed of the sweep", semantic=True, type=int)
    problems: Optional[Tuple[str, ...]] = _flagged(
        None,
        "--problems",
        "restrict the sweep to these problem names (default: the whole pack)",
        semantic=True,
        parse=_names_or_none,
        nargs="*",
    )
    pack: str = _flagged(
        CORE_PACK_NAME,
        "--pack",
        "problem pack to enumerate (see --list-packs; default: the paper's 24-problem core suite)",
        semantic=True,
    )
    pack_params: Optional[PackParams] = _flagged(
        None,
        "--pack-param",
        "override one generation parameter of a parametric pack "
        "(repeatable; VALUE is parsed as JSON, e.g. channels='[2, 4]')",
        semantic=True,
        parse=_parse_pack_params,
        action="append",
        metavar="KEY=VALUE",
    )
    execution_mode: str = _flagged(
        "thread",
        "--execution-mode",
        "parallel tier of the sweep: 'thread' runs work units on the "
        "engine's thread pool, 'process' shards them across worker "
        "processes (sidestepping the GIL for the pure-Python evaluation "
        "loop) that share the on-disk caches under --cache-dir; reports "
        "are byte-identical in both modes",
        choices=list(EXECUTION_MODES),
    )
    processes: int = _flagged(
        0,
        "--processes",
        "worker-process count for --execution-mode process (default 0 = one per core)",
        type=int,
        metavar="N",
    )
    retry_attempts: int = _flagged(
        2,
        "--retry-attempts",
        "total tries per transiently failing work unit before it is "
        "recorded as crashed (1 = no retries)",
        type=int,
        metavar="N",
    )
    retry_backoff: float = _flagged(
        0.1,
        "--retry-backoff",
        "base seconds of the exponential (deterministically jittered) "
        "backoff between unit retries",
        type=float,
        metavar="SECONDS",
    )
    unit_timeout: Optional[float] = _flagged(
        None,
        "--unit-timeout",
        "per-unit watchdog budget in --execution-mode process: hung "
        "worker processes are killed and their units retried singly "
        "(default: no timeout)",
        type=float,
        metavar="SECONDS",
    )

    def __post_init__(self) -> None:
        if self.execution_mode not in EXECUTION_MODES:
            raise ValueError(
                f"unknown execution_mode {self.execution_mode!r}; "
                f"choose one of {list(EXECUTION_MODES)}"
            )
        for name, floor in (
            ("samples_per_problem", 1),
            ("max_feedback_iterations", 0),
            ("num_wavelengths", 1),
            ("retry_attempts", 1),
        ):
            if getattr(self, name) < floor:
                raise ValueError(f"{name} must be >= {floor}")
        if self.problems is not None:
            object.__setattr__(self, "problems", tuple(self.problems))

    @classmethod
    def add_flags(cls, parser) -> None:
        """Add one flag per flagged field of ``cls`` to an argparse parser."""
        for spec_field in fields(cls):
            if "flag" in spec_field.metadata:
                meta = spec_field.metadata
                parser.add_argument(
                    meta["flag"],
                    dest=_flag_dest(spec_field),
                    default=spec_field.default,
                    help=meta["help"],
                    **meta["argparse"],
                )

    @classmethod
    def from_args(cls, args, **values: object):
        """Build ``cls`` from flags added by :meth:`add_flags`, plus ``values``.

        Raises ``ValueError`` on a value a flag's parser or the field checks
        reject.
        """
        for spec_field in fields(cls):
            if "flag" in spec_field.metadata:
                value = getattr(args, _flag_dest(spec_field))
                parse = spec_field.metadata["parse"]
                values[spec_field.name] = parse(value) if parse else value
        return cls(**values)


@dataclass(frozen=True)
class SweepConfig(SweepSpec):
    """Configuration of a local sweep: the job fields plus local-run fields.

    ``workers`` and ``cache_dir`` configure the execution engine: the sweep's
    nested loops are flattened into independent ``(client, restrictions,
    problem, sample)`` work units and run on a thread pool of ``workers``
    threads (``1`` = sequential, ``0`` = one per core), with simulations
    served from a content-addressed cache optionally persisted under
    ``cache_dir`` (process-tier workers share it, with the compiled-plan
    spill).  ``journal_dir`` enables
    incremental checkpointing -- every completed trajectory is appended to
    a line-JSON journal keyed by the sweep's semantic fingerprint, so a
    killed run restarted with ``resume`` recomputes only the missing
    samples (see :mod:`repro.harness.journal`).  None of these fields is
    semantic: reports are byte-identical for any value of them, as for
    every non-semantic field of :class:`SweepSpec`.
    """

    workers: int = _flagged(
        1,
        "--workers",
        "worker threads of the execution engine (1 = sequential, 0 = one per core); "
        "reports are identical for any worker count",
        type=int,
    )
    cache_dir: Optional[str] = _flagged(
        None,
        "--cache-dir",
        "directory for persistent simulation-cache artefacts (.npz); "
        "reused across runs to skip repeated simulations",
    )
    journal_dir: Optional[str] = _flagged(
        None,
        "--journal-dir",
        "checkpoint every completed trajectory to a line-JSON journal "
        "in this directory, keyed by the sweep's semantic fingerprint",
        metavar="DIR",
    )
    resume: bool = _flagged(
        False,
        "--resume",
        "with --journal-dir: skip trajectories already journaled by an "
        "earlier (possibly killed) run of the same sweep; the finished "
        "report is byte-identical to an uninterrupted run",
        action="store_true",
    )

    def unit_retry_policy(self) -> RetryPolicy:
        """The process tier's per-unit retry budget these knobs describe."""
        return RetryPolicy(attempts=self.retry_attempts, base_delay=self.retry_backoff)

    def engine_config(self) -> EngineConfig:
        """The :class:`EngineConfig` of this sweep: its worker count and cache directory."""
        return EngineConfig(workers=self.workers, cache_dir=self.cache_dir)

    def evaluation_config(self, *, include_restrictions: bool) -> EvaluationConfig:
        """Build the corresponding :class:`EvaluationConfig`."""
        return EvaluationConfig(
            samples_per_problem=self.samples_per_problem,
            max_feedback_iterations=self.max_feedback_iterations,
            num_wavelengths=self.num_wavelengths,
            include_restrictions=include_restrictions,
            base_seed=self.base_seed,
        )

    def select_problems(self) -> List[Problem]:
        """Resolve the problem subset of the configured pack.

        Defaults to every problem of ``pack`` (for ``core``, the full
        24-problem suite); ``problems`` narrows the selection by name.
        """
        problems = list(all_problems(self.pack, self.pack_params))
        if self.problems is None:
            return problems
        wanted = set(self.problems)
        selected = [p for p in problems if p.name in wanted]
        missing = wanted - {p.name for p in selected}
        if missing:
            raise KeyError(f"unknown problems requested: {sorted(missing)}")
        return selected

    def prompt_config(self, *, include_restrictions: bool) -> PromptConfig:
        """Build the prompt configuration, with the pack note for non-core packs."""
        pack = get_pack(self.pack)
        return PromptConfig(
            include_restrictions=include_restrictions,
            pack_note=pack.prompt_note() if pack.name != CORE_PACK_NAME else None,
        )


@dataclass
class SweepResult:
    """Reports of a sweep, keyed by (model name, with_restrictions).

    ``engine_stats`` is populated by process-mode sweeps: the per-worker
    ``ExecutionEngine.stats()`` snapshots merged with
    :func:`repro.engine.procpool.aggregate_engine_stats` (counters summed,
    rates recomputed).  Thread-mode sweeps leave it ``None`` -- the caller
    holds the live engine and can ask it directly.
    """

    config: SweepConfig
    reports: Dict[Tuple[str, bool], EvalReport] = field(default_factory=dict)
    engine_stats: Optional[Dict[str, object]] = None

    def report(self, model: str, *, with_restrictions: bool) -> EvalReport:
        """Look up one report."""
        return self.reports[(model, with_restrictions)]

    def models(self) -> List[str]:
        """Model names present in the sweep, in insertion order."""
        seen: List[str] = []
        for model, _ in self.reports:
            if model not in seen:
                seen.append(model)
        return seen

    def packs(self) -> List[str]:
        """Problem packs present in the sweep's reports, in insertion order."""
        seen: List[str] = []
        for report in self.reports.values():
            if report.pack not in seen:
                seen.append(report.pack)
        return seen

    def to_dict(self) -> Dict[str, object]:
        """Serialise every report (used for persistence)."""
        return {
            f"{model}|{'with' if restrictions else 'without'}_restrictions": report.to_dict()
            for (model, restrictions), report in self.reports.items()
        }

    def save(self, path: Path | str) -> None:
        """Write the sweep results to a JSON file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)

    @classmethod
    def load(cls, path: Path | str, config: Optional[SweepConfig] = None) -> "SweepResult":
        """Reload a sweep previously written by :meth:`save`.

        The reloaded result supports every aggregation (Pass@k tables, error
        breakdowns) without re-running the evaluation.
        """
        path = Path(path)
        with path.open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
        result = cls(config=config if config is not None else SweepConfig())
        for key, report_payload in payload.items():
            model, _, suffix = key.rpartition("|")
            with_restrictions = suffix == "with_restrictions"
            report = EvalReport.from_dict(report_payload)
            result.reports[(model or report.model, with_restrictions)] = report
        return result


# ----------------------------------------------------------------------
# Process-sharded execution
#
# The parent never ships live objects to workers: each worker receives a
# picklable payload (the SweepConfig, designer profiles, seeds) and rebuilds
# its own engine, golden store, evaluator and clients once per process.
# Work units are index tuples into the worker-rebuilt structures, and the
# scheduler merges results back in unit order, so process-sharded sweeps are
# byte-identical to sequential ones.
# ----------------------------------------------------------------------
def _client_specs(clients: Sequence[LLMClient]) -> List[Tuple[DesignerProfile, int]]:
    """Picklable rebuild specs of the sweep's clients (process mode only)."""
    specs: List[Tuple[DesignerProfile, int]] = []
    for client in clients:
        if not isinstance(client, SimulatedDesigner):
            raise ValueError(
                "execution_mode='process' requires spec-constructible clients "
                f"(the bundled SimulatedDesigner); got {type(client).__name__}. "
                "Run live API clients in thread mode."
            )
        specs.append((client.profile, client.base_seed))
    return specs


def _sweep_evaluator(
    config: SweepConfig,
    engine: Optional[ExecutionEngine] = None,
    golden_store: Optional[GoldenStore] = None,
) -> Evaluator:
    """The one evaluator of a sweep (or of one process-tier worker).

    ``engine`` defaults to the golden store's, else to a fresh one, and the
    golden store to one of the configured pack on that engine.  Every unit
    passes its restriction setting's prompt config explicitly, so both
    settings share one evaluator and its verdict memo: a draft judged under
    one setting or model is not judged again under another.
    """
    if engine is None:
        engine = (
            golden_store.engine
            if golden_store is not None
            else ExecutionEngine(config.engine_config())
        )
    if golden_store is None:
        golden_store = GoldenStore(
            num_wavelengths=config.num_wavelengths,
            engine=engine,
            pack=config.pack,
            pack_params=config.pack_params,
        )
    return Evaluator(
        config.evaluation_config(include_restrictions=False),
        golden_store=golden_store,
        engine=engine,
    )


def _prompt_configs(
    config: SweepConfig, restriction_settings: Sequence[bool]
) -> Dict[bool, PromptConfig]:
    """The prompt config of each restriction setting of a sweep."""
    return {
        include_restrictions: config.prompt_config(include_restrictions=include_restrictions)
        for include_restrictions in restriction_settings
    }


def _build_sweep_worker(payload: Dict[str, object]) -> Dict[str, object]:
    """Worker initializer: rebuild one process's full evaluation context.

    Runs once per worker process (resolved by dotted reference from
    :class:`~repro.engine.procpool.WorkerSpec`).  The worker's engine is
    single-threaded -- parallelism lives at the process tier -- but keeps the parent's ``cache_dir`` (simulation ``.npz`` entries and
    the compiled-plan spill).  Within one sweep the workers hold disjoint
    problems (see :func:`_problem_shards`), so the disk tiers warm later
    sweeps, isolated retries and process-mode service jobs rather than a
    worker's peers.
    """
    config: SweepConfig = payload["config"]  # type: ignore[assignment]
    engine = ExecutionEngine(replace(config.engine_config(), workers=1))
    return {
        "engine": engine,
        "problems": config.select_problems(),
        "clients": [
            SimulatedDesigner(profile, base_seed=seed)
            for profile, seed in payload["clients"]  # type: ignore[union-attr]
        ],
        "evaluator": _sweep_evaluator(config, engine),
        "prompt_configs": _prompt_configs(config, payload["restrictions"]),  # type: ignore[arg-type]
    }


def _evaluator_unit(context: Dict[str, object], unit: Tuple[bool, int, int, int]):
    """The :meth:`Evaluator.run_samples` unit of one index unit, resolved in ``context``."""
    include_restrictions, client_index, problem_index, sample_index = unit
    return (
        context["clients"][client_index],  # type: ignore[index]
        context["problems"][problem_index],  # type: ignore[index]
        sample_index,
        context["prompt_configs"][include_restrictions],  # type: ignore[index]
    )


def _run_sweep_unit(context: Dict[str, object], unit: Tuple[bool, int, int, int]):
    """Worker runner: one (restrictions, client, problem, sample) trajectory."""
    client, problem, sample_index, prompt_config = _evaluator_unit(context, unit)
    return context["evaluator"].run_sample(  # type: ignore[union-attr]
        client, problem, sample_index, prompt_config=prompt_config
    )


def _sweep_worker_stats(context: Dict[str, object]) -> Dict[str, object]:
    """Worker stats snapshot, merged in the parent across all workers."""
    return context["engine"].stats()  # type: ignore[union-attr]


def _crashed_sample(problem_name: str, sample_index: int, failure: UnitFailure) -> SampleResult:
    """Synthesize the failure record of a unit whose worker died or raised."""
    detail = (
        "worker process crashed while evaluating this unit"
        if failure.crashed
        else f"worker failed to evaluate this unit: {failure.message}"
    )
    sample = SampleResult(problem=problem_name, sample_index=sample_index)
    sample.attempts.append(
        AttemptRecord(
            iteration=0,
            syntax_ok=False,
            functional_ok=False,
            error_category=ErrorCategory.OTHER_SYNTAX,
            error_detail=detail,
        )
    )
    return sample


def _problem_shards(
    units: Sequence[Tuple[bool, int, int, int]],
    problems: Sequence[Problem],
    span: int,
) -> Tuple[List[int], List[Tuple[int, int]]]:
    """Problem-major order of ``units`` and the shard spans over that order.

    Returns ``(order, bounds)``: ``order[i]`` is the position in ``units`` of
    the ``i``-th reordered unit, and ``bounds`` are contiguous ``(lo, hi)``
    spans over the reordered list.  Problems come costliest first (by
    :attr:`Problem.complexity`, ties by problem index), which is
    longest-processing-time-first list scheduling (Graham, 1969): the pool's
    queue hands the big fabrics out first and balances the small problems
    behind them.  Each problem's units form one shard, or ``ceil(n / span)``
    equal shards when it has more than ``span`` units, so no shard mixes
    problems and a one-problem sweep still reaches every worker.  A problem's
    golden design, compiled plans, simulations and repeated drafts then live
    in one worker only: the workers judge, solve and compile exactly what a
    sequential sweep does.
    """
    by_problem: Dict[int, List[int]] = {}
    for position, unit in enumerate(units):
        by_problem.setdefault(unit[2], []).append(position)
    order: List[int] = []
    bounds: List[Tuple[int, int]] = []
    for problem_index in sorted(by_problem, key=lambda p: (-problems[p].complexity, p)):
        positions = by_problem[problem_index]
        pieces = -(-len(positions) // span)
        for lo, hi in ProcessScheduler.shard_bounds(len(positions), pieces):
            bounds.append((len(order) + lo, len(order) + hi))
        order.extend(positions)
    return order, bounds


def _open_journal(
    config: SweepConfig,
    model_names: Sequence[str],
    restriction_settings: Sequence[bool],
) -> Tuple[Optional[SweepJournal], Dict[Tuple[bool, str, str, int], SampleResult]]:
    """The sweep's journal and its already-completed trajectories.

    ``(None, {})`` when journalling is off.  Without ``resume`` an existing
    journal file for the same fingerprint is discarded first, so the fresh
    run's checkpoint history starts clean.
    """
    if config.journal_dir is None:
        return None, {}
    fingerprint = sweep_fingerprint(config, tuple(model_names), tuple(restriction_settings))
    journal = SweepJournal(config.journal_dir, fingerprint)
    if config.resume:
        return journal, journal.load()
    journal.discard()
    return journal, {}


def _map_units_process(
    config: SweepConfig,
    client_specs: List[Tuple[DesignerProfile, int]],
    restriction_settings: Tuple[bool, ...],
    units: List[Tuple[bool, int, int, int]],
    problems: List[Problem],
    on_result: Optional[Callable[[int, object], None]] = None,
) -> Tuple[List[SampleResult], Dict[str, object]]:
    """Run unit specs on a process pool; returns ordered samples and stats.

    The pool runs the units in :func:`_problem_shards` order, one problem
    per shard; the samples come back in the order of ``units``.
    ``on_result(index, outcome)`` fires in the parent as each unit's
    outcome lands (see :meth:`ProcessScheduler.map`), with ``index`` a
    position in ``units``; a unit whose worker died or raised is passed as
    its :class:`UnitFailure` and returned as a synthesised failure record.
    """
    spec = WorkerSpec(
        builder_ref="repro.harness.runner:_build_sweep_worker",
        payload={
            "config": config,
            "clients": client_specs,
            "restrictions": restriction_settings,
        },
    )
    scheduler = ProcessScheduler(
        spec,
        processes=config.processes,
        retry_policy=config.unit_retry_policy(),
        unit_timeout=config.unit_timeout,
    )
    # The equal-count split's shard size: a problem with more pending units
    # than this is cut into several shards.
    shards = min(scheduler.processes, len(units)) * scheduler.shards_per_worker
    order, bounds = _problem_shards(units, problems, span=-(-len(units) // max(1, shards)))
    reordered = [units[position] for position in order]
    raw, stats_list = scheduler.map(
        "repro.harness.runner:_run_sweep_unit",
        reordered,
        stats_ref="repro.harness.runner:_sweep_worker_stats",
        on_result=None if on_result is None else lambda i, outcome: on_result(order[i], outcome),
        bounds=bounds,
    )
    samples: List[SampleResult] = [None] * len(units)  # type: ignore[list-item]
    for position, unit, outcome in zip(order, reordered, raw):
        samples[position] = (
            _crashed_sample(problems[unit[2]].name, unit[3], outcome)
            if isinstance(outcome, UnitFailure)
            else outcome
        )
    engine_stats = aggregate_engine_stats(stats_list)
    engine_stats["procpool"] = dict(scheduler.counters)
    parent_faults = fault_stats()
    if parent_faults:
        engine_stats["parent_faults"] = parent_faults
    return samples, engine_stats


def run_model(
    client: LLMClient,
    *,
    include_restrictions: bool,
    config: Optional[SweepConfig] = None,
    golden_store: Optional[GoldenStore] = None,
    engine: Optional[ExecutionEngine] = None,
) -> EvalReport:
    """Evaluate one client over the suite under one prompt configuration.

    A one-client :func:`run_sweep` over the one restriction setting: the same
    work units, journal keys, fold order and execution tiers, so the report
    is byte-identical to the matching report of a full sweep.
    """
    model = getattr(client, "name", type(client).__name__)
    return run_sweep(
        config,
        clients=[client],
        restriction_settings=(include_restrictions,),
        engine=engine,
        golden_store=golden_store,
    ).report(model, with_restrictions=include_restrictions)


def run_sweep(
    config: Optional[SweepConfig] = None,
    *,
    profiles: Optional[Sequence[DesignerProfile]] = None,
    restriction_settings: Sequence[bool] = (False, True),
    clients: Optional[Sequence[LLMClient]] = None,
    engine: Optional[ExecutionEngine] = None,
    golden_store: Optional[GoldenStore] = None,
    on_unit: Optional[Callable[[], None]] = None,
) -> SweepResult:
    """Run the full Tables III / IV sweep.

    By default the five simulated designer profiles are used; pass ``clients``
    to evaluate real LLM API clients instead (clients must be thread-safe
    when ``config.workers > 1``; the bundled simulated designers are).

    The four nested loops of the paper's evaluation -- model, restriction
    setting, problem, sample -- are flattened into independent work units,
    run by :meth:`Evaluator.run_samples` on the thread tier (one problem's
    trajectories in lockstep at a time, their drafts on the engine's pool)
    or one trajectory per task on the process tier, whose shards each hold
    one problem.  Each unit's generation seed is derived from ``(base_seed,
    problem, sample)`` alone, and results are folded back in loop order, so
    the returned reports are byte-identical for any worker count or tier.
    Each freshly computed trajectory visits the ``sweep.unit`` fault point
    as it finishes and is then journaled (with ``journal_dir``); a resumed
    run reruns only the units its journal lacks.

    ``engine`` and ``golden_store`` let a caller keep simulations and golden
    responses warm across sweeps (the evaluation service does); the golden
    store defaults to one on the engine.  Live objects cannot cross a
    process boundary, so the process tier ignores both.  ``on_unit()`` runs
    in the calling process after each fresh trajectory is journaled; an
    exception it raises (the service's cancellation checkpoint) stops the
    sweep at that trajectory, leaving the journal to resume from.
    """
    config = config if config is not None else SweepConfig()
    if clients is None:
        profiles = list(profiles) if profiles is not None else list(DEFAULT_PROFILES)
        clients = [SimulatedDesigner(profile, base_seed=config.base_seed) for profile in profiles]
    clients = list(clients)
    model_names = [getattr(client, "name", type(client).__name__) for client in clients]
    restriction_settings = tuple(restriction_settings)
    problems = config.select_problems()

    # One index unit per (restrictions, client, problem, sample) trajectory,
    # in the exact order the sequential loops would visit them.
    units = [
        (include_restrictions, client_index, problem_index, sample_index)
        for include_restrictions in restriction_settings
        for client_index in range(len(clients))
        for problem_index in range(len(problems))
        for sample_index in range(config.samples_per_problem)
    ]
    keys = [
        unit_key(restrictions, model_names[client_index], problems[problem_index].name, sample)
        for restrictions, client_index, problem_index, sample in units
    ]
    journal, completed = _open_journal(config, model_names, restriction_settings)
    pending = [index for index, key in enumerate(keys) if key not in completed]

    def checkpoint(position: int, sample: object) -> None:
        """Visit ``sweep.unit`` as a pending trajectory finishes, journal it, then ``on_unit``."""
        key = keys[pending[position]]
        fault_point("sweep.unit", key="|".join(map(str, key)))
        if journal is not None and isinstance(sample, SampleResult):
            journal.record(key, sample)
        if on_unit is not None:
            on_unit()

    result = SweepResult(config=config)
    try:
        if config.execution_mode == "process":
            # Process tier: ship picklable specs, rebuild everything
            # worker-side.  A caller-provided engine or golden store cannot
            # cross the process boundary and is ignored here; workers keep
            # the on-disk tiers under cache_dir.
            fresh, result.engine_stats = _map_units_process(
                config,
                _client_specs(clients),
                restriction_settings,
                [units[index] for index in pending],
                problems,
                on_result=checkpoint,
            )
        else:
            context = {
                "clients": clients,
                "problems": problems,
                "prompt_configs": _prompt_configs(config, restriction_settings),
            }
            fresh = _sweep_evaluator(config, engine, golden_store).run_samples(
                [_evaluator_unit(context, units[index]) for index in pending],
                on_done=checkpoint,
            )
    finally:
        if journal is not None:
            journal.close()

    samples = [completed.get(key) for key in keys]
    for index, sample in zip(pending, fresh):
        samples[index] = sample
    for (include_restrictions, client_index, _, _), sample in zip(units, samples):
        model = model_names[client_index]
        report = result.reports.get((model, include_restrictions))
        if report is None:
            report = EvalReport(
                model=model,
                with_restrictions=include_restrictions,
                samples_per_problem=config.samples_per_problem,
                max_feedback_iterations=config.max_feedback_iterations,
                pack=config.pack,
            )
            result.reports[(model, include_restrictions)] = report
        report.add(sample)
    return result
