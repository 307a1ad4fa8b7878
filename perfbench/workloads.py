"""Run one benchmark workload in a fresh process.

    PYTHONPATH=src python3 perfbench/workloads.py --workload sweep-core \\
        --seed 0 --seconds 10 --trace 0 --size full --workdir .perfbench_out/w

The process prints ``READY`` once the program can take work, measures whole
rounds until ``--seconds`` have passed (at least one round), checks every
round's output, and prints ``RESULT <json>`` as its last line.  ``perfbench/
run.py`` starts it and turns the result into metrics.

A round is one user-visible request: a full ``run_sweep`` call for the sweep
workloads, one ``monte_carlo_yield`` pass over every design for ``yield-mc``.
``service-evaluate`` instead drives a ``repro.service`` daemon with a closed
loop of client threads.  With ``--trace 1`` untraced and traced rounds (or,
for the service, an untraced and a traced daemon) alternate, so the per-layer
numbers and the tracing overhead come from the same process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from spans import LAYERS, Tracer, layer_table, read_spans, write_spans

HERE = Path(__file__).resolve().parent

WORKLOADS = ("sweep-core", "sweep-core-proc2", "yield-mc", "service-evaluate")

#: Problem subset and samples of the ``tiny`` sweep size (self-tests).
TINY_SWEEP = {"problems": ("mzi_ps", "nls"), "samples_per_problem": 2}

#: yield-mc inputs: draws per design, grid points, wdm-links channel counts,
#: and each design's yield spec (output, input, metric, min transmission).
#: Thresholds sit near the seed-0 median, so pass counts are not degenerate.
YIELD_DRAWS = {"full": 32, "tiny": 4}
YIELD_WAVELENGTHS = 161
YIELD_CHANNELS = {"full": [4, 8, 16], "tiny": [4]}
YIELD_SPECS = {
    "ring_filter_nominal": ("O2", "I1", "max", 0.9),
    "interferometer_nominal": ("O1", "I1", "mean", 0.539),
    "wdm_mux": ("O1", "I1", "max", 0.85),
    "wdm_demux": ("O1", "I1", "max", 0.96),
    "wdm_link": ("O1", "I1", "max", 0.015),
}

#: service-evaluate load: closed-loop client threads, their fixed poll
#: interval, and each job's problems and samples (one profile, one
#: restriction setting, distinct seeds per job).
SERVICE_CLIENTS = 2
SERVICE_POLL_S = 0.01
SERVICE_JOB_TIMEOUT_S = 60.0
SERVICE_PROBLEMS = {
    "full": ("mzi_ps", "mzm", "nls", "umatrix_block", "direct_modulator", "os_2x2"),
    "tiny": ("mzi_ps", "nls"),
}
SERVICE_SAMPLES = {"full": 5, "tiny": 2}
#: Daemons started only to time set-up (the load daemon is one more sample).
SERVICE_SETUP_DAEMONS = 4
#: Jobs whose reports are digested, and jobs re-run in-process as an oracle.
SERVICE_CHECK_JOBS = {"full": 12, "tiny": 2}
SERVICE_ORACLE_JOBS = 2


def digest(payload: object) -> str:
    """Short content digest of a JSON-serialisable payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def peak_rss_mb(who: int) -> float:
    """Peak resident memory (``ru_maxrss``, KiB on Linux) in MB."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS counter (``VmHWM``), Linux only."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def round_peak_rss_mb() -> float:
    """Peak RSS since :func:`reset_peak_rss`, or of the largest child if larger."""
    status = Path("/proc/self/status").read_text(encoding="ascii")
    hwm_kib = int(re.search(r"VmHWM:\s+(\d+)", status).group(1))  # type: ignore[union-attr]
    return max(hwm_kib / 1024.0, peak_rss_mb(resource.RUSAGE_CHILDREN))


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def sweep_config(args, cache_dir: Optional[str] = None):
    from repro.harness.runner import SweepConfig

    kwargs: Dict[str, object] = {"base_seed": args.seed}
    if args.size == "tiny":
        kwargs.update(TINY_SWEEP)
    if args.workload == "sweep-core-proc2":
        kwargs.update(execution_mode="process", processes=2, cache_dir=cache_dir)
    return SweepConfig(**kwargs)  # type: ignore[arg-type]


def sweep_sizes(args) -> Dict[str, object]:
    """Builds the problem pack (the set-up) and states the sweep's sizes."""
    from repro.llm.profiles import DEFAULT_PROFILES

    config = sweep_config(args)
    problems = len(config.select_problems())
    return {
        "profiles": len(DEFAULT_PROFILES),
        "restriction_settings": 2,
        "problems": problems,
        "samples_per_problem": config.samples_per_problem,
        "trajectories_per_round": len(DEFAULT_PROFILES) * 2 * problems * config.samples_per_problem,
        "max_feedback_iterations": config.max_feedback_iterations,
        "num_wavelengths": config.num_wavelengths,
        "execution_mode": config.execution_mode,
        "processes": config.processes,
    }


def _is_crashed(sample) -> bool:
    """Whether the process tier synthesised this sample for a failed unit."""
    detail = sample.attempts[0].error_detail or ""
    return detail.startswith(("worker process crashed", "worker failed to evaluate"))


def sweep_round(args, index: int) -> Dict[str, object]:
    """One full sweep; fresh engine (and, in process mode, fresh cache_dir)."""
    from repro.engine.engine import ExecutionEngine
    from repro.harness import runner

    cache_dir = None
    if args.workload == "sweep-core-proc2":
        cache_dir = Path(args.workdir) / f"cache-{index}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache_dir.mkdir(parents=True)
    config = sweep_config(args, str(cache_dir) if cache_dir else None)
    engine = None if cache_dir else ExecutionEngine(config.engine_config())
    start = time.perf_counter()
    result = runner.run_sweep(config, engine=engine)
    elapsed = time.perf_counter() - start

    samples = [s for report in result.reports.values() for group in report.results.values() for s in group]
    out: Dict[str, object] = {
        "latencies_s": [elapsed],
        "ops": len(samples),
        "failed_ops": sum(1 for sample in samples if _is_crashed(sample)),
        "digest": digest(result.to_dict()),
        "attempts": sum(len(sample.attempts) for sample in samples),
        "stats": result.engine_stats if engine is None else engine.stats(),
    }
    if cache_dir is not None:
        files = list(cache_dir.rglob("*.npz"))
        out["disk_files"] = len(files)
        out["disk_mb"] = sum(path.stat().st_size for path in files) / 1e6
        shutil.rmtree(cache_dir, ignore_errors=True)
    return out


# ----------------------------------------------------------------------
# Monte-Carlo yield
# ----------------------------------------------------------------------
def yield_designs(args) -> List[Tuple[str, object, object]]:
    """``(name, netlist, YieldSpec)`` of every yield-mc design."""
    from repro.bench.problems.variability import (
        YieldSpec,
        interferometer_nominal,
        ring_filter_nominal,
    )
    from repro.bench.suite import all_problems

    designs = [
        ("ring_filter_nominal", ring_filter_nominal()),
        ("interferometer_nominal", interferometer_nominal()),
    ]
    for problem in all_problems("wdm-links", {"channels": YIELD_CHANNELS[args.size]}):
        designs.append((problem.name, problem.golden_netlist()))
    out = []
    for name, netlist in designs:
        family = name if name in YIELD_SPECS else name.rsplit("_", 1)[0]
        output, source, metric, threshold = YIELD_SPECS[family]
        out.append((name, netlist, YieldSpec(output, source, threshold, metric)))
    return out


def yield_round(args, index: int, designs) -> Dict[str, object]:
    """Score every design's seeded draws through a fresh default engine."""
    from repro.bench.problems.variability import monte_carlo_yield
    from repro.constants import default_wavelength_grid
    from repro.engine.engine import ExecutionEngine

    wavelengths = default_wavelength_grid(YIELD_WAVELENGTHS)
    engine = ExecutionEngine()
    latencies, outputs, failed, ops = [], [], 0, 0
    for design_index, (name, netlist, spec) in enumerate(designs):
        start = time.perf_counter()
        result = monte_carlo_yield(
            netlist,
            spec,
            draws=YIELD_DRAWS[args.size],
            seed=args.seed * 1000 + design_index,
            wavelengths=wavelengths,
            engine=engine,
        )
        latencies.append(time.perf_counter() - start)
        ops += result.draws
        failed += sum(1 for metric in result.metrics if not np.isfinite(metric))
        outputs.append([name, result.draws, result.passes, list(result.metrics)])
    return {
        "latencies_s": latencies,
        "ops": ops,
        "failed_ops": failed,
        "digest": digest(outputs),
        "passes": {name: passes for name, _, passes, _ in outputs},
        "stats": engine.stats(),
    }


# ----------------------------------------------------------------------
# Rounds and their per-layer summary
# ----------------------------------------------------------------------
def run_rounds(args, round_fn: Callable[[int], Dict[str, object]]) -> List[Dict[str, object]]:
    """Whole rounds within ``--seconds``; traced rounds alternate in trace mode.

    A round starts only if a typical round still fits, so a run does not
    overrun its time by most of a round; there is always at least one round
    (two in trace mode).
    """
    tracer = Tracer()
    rounds: List[Dict[str, object]] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        reset_peak_rss()
        if traced:
            tracer.install()
        try:
            out = round_fn(len(rounds))
        finally:
            tracer.uninstall()
        out["peak_rss_mb"] = round_peak_rss_mb()
        out["traced"] = traced
        if traced:
            out["spans"] = tracer.take()
        rounds.append(out)
        typical = statistics.median(sum(r["latencies_s"]) for r in rounds)  # type: ignore[arg-type]
        if time.perf_counter() - start + typical > args.seconds and len(rounds) >= 1 + args.trace:
            return rounds


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans_by_round: List[list], round_s_untraced: float, round_s_traced: float
) -> Dict[str, float]:
    """Per-layer calls (first traced round) and busy/self time (mean per round)."""
    tables = [layer_table(spans) for spans in spans_by_round]
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        rows = [table[layer.name] for table in tables]
        metrics[f"{layer.name}.calls"] = rows[0]["calls"]
        metrics[f"{layer.name}.busy_s"] = statistics.fmean(row["busy_s"] for row in rows)
        metrics[f"{layer.name}.self_s"] = statistics.fmean(row["self_s"] for row in rows)
    metrics["sim.solves_per_engine_call"] = _ratio(
        metrics["sim.solver_evaluate.calls"], metrics["engine.evaluate.calls"]
    )
    metrics["trace.round_s_untraced"] = round_s_untraced
    metrics["trace.round_s_traced"] = round_s_traced
    metrics["trace.overhead_frac"] = _ratio(round_s_traced, round_s_untraced) - 1.0
    metrics["trace.spans_per_round"] = len(spans_by_round[0])
    return metrics


def cache_metrics(stats: Dict[str, object]) -> Dict[str, float]:
    """Simulation- and plan-cache ratios from one ``engine.stats()`` snapshot."""
    sim = stats.get("simulation_cache", {})
    plan = stats.get("plan_cache", {})
    lookups = sim.get("hits", 0) + sim.get("misses", 0)  # type: ignore[union-attr]
    plan_lookups = plan.get("hits", 0) + plan.get("misses", 0)  # type: ignore[union-attr]
    return {
        "engine.sim_cache.lookups": lookups,
        "engine.sim_cache.hit_rate": _ratio(sim.get("hits", 0), lookups),  # type: ignore[union-attr]
        "sim.plan_cache.lookups": plan_lookups,
        "sim.plan_cache.hit_rate": _ratio(plan.get("hits", 0), plan_lookups),  # type: ignore[union-attr]
    }


def summarize_rounds(args, rounds: List[Dict[str, object]]) -> Dict[str, object]:
    """Totals, output consistency and (trace mode) per-layer metrics of rounds."""
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    digests = sorted({str(r["digest"]) for r in rounds})
    latencies = [t for r in untraced for t in r["latencies_s"]]  # type: ignore[union-attr]
    summary: Dict[str, object] = {
        "rounds": len(rounds),
        "ops": sum(r["ops"] for r in rounds),  # type: ignore[misc]
        "failed_ops": sum(r["failed_ops"] for r in rounds),  # type: ignore[misc]
        "latencies_s": latencies,
        "wall_s": sum(latencies),
        # Medians over rounds: one slow stretch of a shared host moves them
        # less than a run total would.
        "ops_per_s": statistics.median(
            (r["ops"] - r["failed_ops"]) / sum(r["latencies_s"]) for r in untraced  # type: ignore[operator,arg-type]
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),  # type: ignore[arg-type]
        "digest": digests[0],
        "check_errors": [] if len(digests) == 1 else [f"rounds disagree: digests {digests}"],
    }
    if "passes" in rounds[0]:
        summary["passes"] = rounds[0]["passes"]
    if not traced:
        return summary

    def round_s(group: List[Dict[str, object]]) -> float:
        return statistics.median(sum(r["latencies_s"]) for r in group)  # type: ignore[arg-type]

    first = traced[0]
    layers = layer_metrics([r["spans"] for r in traced], round_s(untraced), round_s(traced))
    layers.update(cache_metrics(first["stats"]))  # type: ignore[arg-type]
    if "attempts" in first:
        layers["evalkit.attempts"] = first["attempts"]
        layers["evalkit.attempts_per_trajectory"] = _ratio(first["attempts"], first["ops"])  # type: ignore[arg-type]
    if "disk_files" in first:
        stats = first["stats"]
        layers["engine.procpool.disk_hits"] = stats["simulation_cache"]["disk_hits"]  # type: ignore[index]
        layers["engine.procpool.disk_files"] = first["disk_files"]
        layers["engine.procpool.disk_mb"] = first["disk_mb"]
        layers["engine.procpool.plan_disk_hits"] = stats["plan_cache"]["disk_hits"]  # type: ignore[index]
        layers["engine.procpool.unit_retries"] = stats["procpool"]["unit_retries"]  # type: ignore[index]
    summary["layers"] = layers
    spans_path = Path(args.workdir).parent / f"spans-{args.workload}-seed{args.seed}.json"
    write_spans(str(spans_path), first["spans"])  # type: ignore[arg-type]
    summary["spans_file"] = str(spans_path)
    return summary


# ----------------------------------------------------------------------
# Service
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro.service serve`` process with a fresh database and cache."""

    def __init__(self, workdir: Path, tag: str, traced: bool) -> None:
        from repro.faults import RetryPolicy
        from repro.service.client import ServiceClient, ServiceError

        self.spans_path = workdir / f"{tag}.spans.json" if traced else None
        argv = ["serve", "--db", str(workdir / f"{tag}.db"), "--cache-dir", str(workdir / f"{tag}-cache")]
        if traced:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(self.spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "repro.service", *argv]
        out_path, self.err_path = workdir / f"{tag}.out", workdir / f"{tag}.err"
        start = time.perf_counter()
        with open(out_path, "w", encoding="utf-8") as out, open(self.err_path, "w", encoding="utf-8") as err:
            self.proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        self.client = None
        try:
            # `serve` prints one JSON line with the bound port, then serves.
            while not out_path.read_text(encoding="utf-8").endswith("\n"):
                if self.proc.poll() is not None or time.perf_counter() - start > 60:
                    raise RuntimeError(f"daemon did not start: {self.err_path.read_text()[-2000:]}")
                time.sleep(0.002)
            port = int(json.loads(out_path.read_text(encoding="utf-8").splitlines()[0])["port"])
            client = ServiceClient("127.0.0.1", port, retry=RetryPolicy(attempts=1))
            while True:
                try:
                    client.ping()
                    break
                except ServiceError:
                    if time.perf_counter() - start > 60:
                        raise
                    time.sleep(0.002)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start
        self.client = client

    def stop(self) -> str:
        """Stop with the ``shutdown`` op; returns the exit status as text."""
        from repro.service.client import ServiceError

        if self.proc.poll() is None and self.client is not None:
            try:
                self.client.shutdown()
            except ServiceError:
                pass
        if self.client is None:
            self.proc.terminate()
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return "killed after shutdown timed out"
        if code:
            tail = self.err_path.read_text(encoding="utf-8").strip().splitlines()[-1:]
            return f"{code} ({tail[0] if tail else 'no stderr'})"
        return str(code)


def service_spec(args, index: int):
    """The ``evaluate`` job number ``index`` of this seed's job stream."""
    from repro.llm.profiles import profile_names
    from repro.service.spec import JobSpec

    profiles = profile_names()
    return JobSpec(
        kind="evaluate",
        models=(profiles[index % len(profiles)],),
        restrictions=(bool((index // len(profiles)) % 2),),
        samples_per_problem=SERVICE_SAMPLES[args.size],
        base_seed=args.seed * 100_000 + index,
        problems=SERVICE_PROBLEMS[args.size],
    )


def run_load(args, client, seconds: float) -> Tuple[List[Dict[str, object]], float]:
    """Closed loop: each client thread submits, polls to a terminal state, repeats."""
    lock = threading.Lock()
    jobs: List[Dict[str, object]] = []
    counter = [0]
    start = time.perf_counter()
    deadline = start + seconds

    def client_loop() -> None:
        while True:
            with lock:
                if time.perf_counter() >= deadline and counter[0] > 0:
                    return
                index = counter[0]
                counter[0] += 1
            job: Dict[str, object] = {"index": index, "state": "error"}
            submitted = time.perf_counter()
            try:
                job_id = client.submit(service_spec(args, index))
                while True:
                    record = client.status(job_id)
                    if record["state"] in ("done", "failed", "cancelled"):
                        break
                    if time.perf_counter() - submitted > SERVICE_JOB_TIMEOUT_S:
                        raise TimeoutError(f"job {job_id} still {record['state']}")
                    time.sleep(SERVICE_POLL_S)
                job.update(record)
            except Exception as error:  # noqa: BLE001 - counted as a failed job
                job["error"] = f"{type(error).__name__}: {error}"
            job["latency_s"] = time.perf_counter() - submitted
            job["seen_at"] = time.perf_counter()
            with lock:
                jobs.append(job)

    threads = [threading.Thread(target=client_loop) for _ in range(SERVICE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    jobs.sort(key=lambda job: job["index"])  # type: ignore[arg-type,return-value]
    wall = max(job["seen_at"] for job in jobs) - start  # type: ignore[type-var,operator]
    return jobs, wall


def job_reports(client, jobs: List[Dict[str, object]], count: int) -> List[object]:
    """The stored reports of the first ``count`` jobs, in job order."""
    return [client.result(str(job["job_id"]))["reports"] for job in jobs[:count]]


def oracle_reports(args, count: int) -> List[object]:
    """The same jobs run in-process through ``run_model`` (no daemon)."""
    from repro.harness.runner import run_model
    from repro.llm.profiles import get_profile
    from repro.llm.simulated import SimulatedDesigner

    out = []
    for index in range(count):
        spec = service_spec(args, index)
        model, restrictions = spec.models[0], spec.restrictions[0]
        report = run_model(
            SimulatedDesigner(get_profile(model), base_seed=spec.base_seed),
            include_restrictions=restrictions,
            config=spec.sweep_config(),
        )
        key = f"{model}|{'with' if restrictions else 'without'}_restrictions"
        out.append({key: json.loads(json.dumps(report.to_dict()))})
    return out


def service_workload(args) -> Dict[str, object]:
    """Daemon set-up samples, a closed-loop load phase, checks and teardown."""
    workdir = Path(args.workdir)
    setup_samples: List[float] = []
    exit_status: List[str] = []
    if not args.trace:
        for probe in range(SERVICE_SETUP_DAEMONS):
            daemon = Daemon(workdir, f"setup{probe}", traced=False)
            setup_samples.append(daemon.setup_s)
            exit_status.append(daemon.stop())
    phases = [False, True] if args.trace else [False]
    seconds = args.seconds / len(phases)
    check = SERVICE_CHECK_JOBS[args.size]
    errors: List[str] = []
    job_errors: List[str] = []
    summary: Dict[str, object] = {
        "check_errors": errors, "job_errors": job_errors, "ops": 0, "failed_ops": 0,
    }
    fetched: List[List[object]] = []
    for traced in phases:
        daemon = Daemon(workdir, "traced" if traced else "load", traced=traced)
        setup_samples.append(daemon.setup_s)
        try:
            jobs, wall = run_load(args, daemon.client, seconds)
            done = [job for job in jobs if job["state"] == "done"]
            if all(job["state"] == "done" for job in jobs[:check]) and len(jobs) >= check:
                fetched.append(job_reports(daemon.client, jobs, check))
            else:
                errors.append(f"not all of the first {check} jobs finished")
            stats = daemon.client.stats() if traced else None
        finally:
            exit_status.append(daemon.stop())
        summary["ops"] += len(jobs)  # type: ignore[operator]
        summary["failed_ops"] += len(jobs) - len(done)  # type: ignore[operator]
        job_errors.extend(sorted({str(job.get("error") or job["state"]) for job in jobs if job["state"] != "done"}))
        if not traced:
            summary.update(
                latencies_s=[job["latency_s"] for job in jobs],
                wall_s=wall,
                ops_per_s=len(done) / wall,
            )
            # A job's latency is the service's round: layer shares are of it.
            round_s_untraced = statistics.median(job["latency_s"] for job in jobs)  # type: ignore[arg-type]
            continue
        spans = read_spans(str(daemon.spans_path))
        per_job = max(1, len(jobs))
        round_s_traced = statistics.median(job["latency_s"] for job in jobs)  # type: ignore[arg-type]
        layers = layer_metrics([spans], round_s_untraced, round_s_traced)
        for key in list(layers):
            if key.endswith((".calls", ".busy_s", ".self_s")) or key == "trace.spans_per_round":
                layers[key] = layers[key] / per_job
        layers.update(cache_metrics(stats["engine"]))  # type: ignore[index]
        layers["service.queue_wait_s"] = statistics.median(
            job["started_at"] - job["submitted_at"] for job in done  # type: ignore[operator]
        )
        layers["service.run_s"] = statistics.median(
            job["finished_at"] - job["started_at"] for job in done  # type: ignore[operator]
        )
        summary["layers"] = layers
        spans_path = workdir.parent / f"spans-{args.workload}-seed{args.seed}.json"
        shutil.copyfile(daemon.spans_path, spans_path)  # type: ignore[arg-type]
        summary["spans_file"] = str(spans_path)
    digests = sorted({digest(reports) for reports in fetched})
    if len(digests) > 1:
        errors.append(f"traced and untraced daemons disagree: {digests}")
    if fetched:
        oracle_count = min(check, SERVICE_ORACLE_JOBS)
        if fetched[0][:oracle_count] != oracle_reports(args, oracle_count):
            errors.append("daemon reports differ from the same jobs run in-process")
    summary.update(
        digest=digests[0] if digests else None,
        setup_samples_s=setup_samples,
        daemon_exit_status=exit_status,
        peak_rss_mb=peak_rss_mb(resource.RUSAGE_CHILDREN),
    )
    return summary


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.workload == "yield-mc":
        designs = yield_designs(args)
        sizes: Dict[str, object] = {
            "designs": [name for name, _, _ in designs],
            "draws_per_design": YIELD_DRAWS[args.size],
            "num_wavelengths": YIELD_WAVELENGTHS,
        }
    elif args.workload == "service-evaluate":
        sizes = {
            "clients": SERVICE_CLIENTS,
            "poll_interval_s": SERVICE_POLL_S,
            "problems_per_job": list(SERVICE_PROBLEMS[args.size]),
            "samples_per_problem": SERVICE_SAMPLES[args.size],
            "trajectories_per_job": len(SERVICE_PROBLEMS[args.size]) * SERVICE_SAMPLES[args.size],
        }
    else:
        sizes = sweep_sizes(args)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    Path(args.workdir).mkdir(parents=True, exist_ok=True)
    if args.workload == "service-evaluate":
        summary = service_workload(args)
    elif args.workload == "yield-mc":
        summary = summarize_rounds(args, run_rounds(args, lambda i: yield_round(args, i, designs)))
    else:
        summary = summarize_rounds(args, run_rounds(args, lambda i: sweep_round(args, i)))
    if args.workload == "sweep-core-proc2":
        # Byte-identity contract, for any seed: the process tier reports
        # exactly what a sequential sweep reports.  Run after the timed
        # rounds, so it changes none of their numbers.
        sequential = sweep_round(argparse.Namespace(**{**vars(args), "workload": "sweep-core"}), 0)
        if sequential["digest"] != summary["digest"]:
            summary["check_errors"].append(  # type: ignore[union-attr]
                f"process-mode report {summary['digest']} differs from sequential {sequential['digest']}"
            )
    summary["sizes"] = sizes
    summary["numpy"] = np.__version__
    print("RESULT " + json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
