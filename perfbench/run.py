"""End-to-end benchmark of the PICBench evaluation loop (paper Fig. 1).

    python3 perfbench/run.py --workload sweep-core --seed 0 --seconds 10 --trace 0

Run from anywhere; the checkout is the parent of this directory and the
program is imported from its ``src/``.  Each workload runs in a fresh
process (``perfbench/workloads.py``); set-up is sampled in further fresh
processes.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
``end_to_end`` metrics of ``BENCHMARK.json``, with ``--trace 1`` its
``per_layer`` metrics.  The lines before it give the same numbers under
their workload-specific names, the environment, the checks, and (trace mode)
each layer's self time with its share of the round.  A full record goes to
``.perfbench_out/result-<workload>-seed<n>-trace<t>.json``.

Workloads: sweep-core, sweep-core-proc2, yield-mc, service-evaluate;
``--workload all`` runs the four in turn.  ``--size tiny`` shrinks every
workload for the self-tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from spans import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Extra fresh processes that only set up, so ``setup_s`` is a median.
SETUP_PROBES = 6

#: Wall-clock budget of one benchmark invocation (the limit is 180 s).
TIME_LIMIT_S = 170.0

#: Processes or client threads each workload needs at once; the benchmark
#: refuses to generate load with more of them than ``nproc``.
CONCURRENCY = {"sweep-core": 1, "sweep-core-proc2": 2, "yield-mc": 1, "service-evaluate": 2}

#: The workload-specific name of ``ops_per_s`` and of one operation.
OPS_NAMES = {
    "sweep-core": ("trajectories_per_s", "trajectories"),
    "sweep-core-proc2": ("trajectories_per_s", "trajectories"),
    "yield-mc": ("draws_per_s", "draws"),
    "service-evaluate": ("jobs_per_s", "jobs"),
}
#: What one ``latency_p50_s`` sample is, per workload.
REQUEST_NAMES = {
    "sweep-core": "run_sweep call",
    "sweep-core-proc2": "run_sweep call",
    "yield-mc": "monte_carlo_yield call",
    "service-evaluate": "job, submit to seen done",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program, too few cores, a crash)."""


def source_digest() -> str:
    """Digest of every ``src/repro`` source file (the checkout has no git)."""
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode("utf-8"))
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


class Runner:
    """Starts workload processes within the invocation's time budget."""

    def __init__(self, args: argparse.Namespace, workdir: Path) -> None:
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )

    def spawn(self, setup_only: bool = False) -> Tuple[float, Optional[Dict[str, object]]]:
        """Run the workload's process; returns (seconds until READY, result)."""
        args = self.args
        cmd = [
            sys.executable, str(HERE / "workloads.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", args.size, "--workdir", str(self.workdir),
        ]
        if setup_only:
            cmd.append("--setup-only")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchmarkError("time budget exhausted")
        start = time.perf_counter()
        # Its own process group, so a timeout also stops the daemons and
        # pool workers it started.
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
            text=True, start_new_session=True,
        )

        def kill_group() -> None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        watchdog = threading.Timer(remaining, kill_group)
        watchdog.start()
        try:
            first = proc.stdout.readline()  # type: ignore[union-attr]
            ready_s = time.perf_counter() - start
            rest = proc.communicate()[0]
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                kill_group()
                proc.wait()
        if proc.returncode != 0 or first.strip() != "READY":
            raise BenchmarkError(f"{args.workload} process exited with {proc.returncode}")
        if setup_only:
            return ready_s, None
        lines = [line for line in rest.splitlines() if line.startswith("RESULT ")]
        if not lines:
            raise BenchmarkError(f"{args.workload} process printed no result")
        return ready_s, json.loads(lines[-1][len("RESULT "):])


def end_to_end(args, setup: List[float], result: Dict[str, object]) -> Tuple[Dict[str, float], List[str]]:
    """The ``end_to_end`` metric values, and human lines under workload-specific names."""
    ops, failed = int(result["ops"]), int(result["failed_ops"])  # type: ignore[arg-type]
    latencies: List[float] = result["latencies_s"]  # type: ignore[assignment]
    wall = float(result["wall_s"])  # type: ignore[arg-type]
    rate_name, op_name = OPS_NAMES[args.workload]
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": float(result["ops_per_s"]),  # type: ignore[arg-type]
        "latency_p50_s": statistics.median(latencies),
        "peak_rss_mb": float(result["peak_rss_mb"]),  # type: ignore[arg-type]
    }
    per = "median over rounds; " if "rounds" in result else ""
    prefix = "job_" if args.workload == "service-evaluate" else ""
    lines = [
        f"setup_s = {values['setup_s']:.4f} s (median of {len(setup)} set-ups)",
        f"{rate_name} = {values['ops_per_s']:.2f} 1/s (ops_per_s; {per}{ops - failed} {op_name} in {wall:.3f} s)",
        f"{prefix}latency_p50_s = {values['latency_p50_s']:.4f} s "
        f"(latency_p50_s; n={len(latencies)}, one {REQUEST_NAMES[args.workload]})",
    ]
    if len(latencies) >= 100:  # p90 needs at least ten samples beyond it
        lines.append(
            f"{prefix}latency_p90_s = {statistics.quantiles(latencies, n=10)[-1]:.4f} s "
            f"(n={len(latencies)}, {len(latencies) // 10} beyond it)"
        )
    lines.append(f"peak_rss_mb = {values['peak_rss_mb']:.1f} MB (largest process)")
    return values, lines


def layer_lines(layers: Dict[str, float]) -> List[str]:
    """Per-layer self time with its share of the traced round, and the map."""
    base = layers["trace.round_s_traced"]
    lines = [f"{'layer':28s} {'calls':>10s} {'busy_s':>9s} {'self_s':>9s} {'share':>7s}  should move (on)"]
    for layer in LAYERS:
        self_s = layers[f"{layer.name}.self_s"]
        lines.append(
            f"{layer.name:28s} {layers[f'{layer.name}.calls']:10.1f} {layers[f'{layer.name}.busy_s']:9.4f} "
            f"{self_s:9.4f} {self_s / base:7.1%}  {layer.moves} ({layer.on})"
        )
    lines.append(f"shares are of one traced round: {base:.4f} s")
    lines.append(
        f"tracing overhead = {base - layers['trace.round_s_untraced']:+.4f} s per round "
        f"({layers['trace.overhead_frac']:+.1%} of the untraced {layers['trace.round_s_untraced']:.4f} s)"
    )
    for key in sorted(layers):
        if not key.startswith(tuple(layer.name + "." for layer in LAYERS)) and not key.startswith("trace."):
            lines.append(f"{key} = {layers[key]}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run_workload(argparse.Namespace(**{**vars(args), "workload": w})) for w in workloads]
    return max(codes)


def run_workload(args: argparse.Namespace) -> int:
    """Run one workload and print its block; returns the exit code."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if nproc < CONCURRENCY[args.workload]:
        print(
            f"error: {args.workload} needs {CONCURRENCY[args.workload]} concurrent processes "
            f"or clients, but nproc is {nproc}; refusing to overload the host",
            file=sys.stderr,
        )
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    out_dir = ROOT / ".perfbench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    runner = Runner(args, workdir)

    try:
        setup: List[float] = []
        if not args.trace and args.workload != "service-evaluate":
            for _ in range(SETUP_PROBES):
                setup.append(runner.spawn(setup_only=True)[0])
        ready_s, result = runner.spawn()
        assert result is not None
        if args.workload == "service-evaluate":
            setup = result["setup_samples_s"]  # type: ignore[assignment]
        else:
            setup.append(ready_s)
        errors: List[str] = list(result["check_errors"])  # type: ignore[arg-type]
        expected = reference["digests"][args.size].get(args.workload)
        if args.seed == reference["seed"] and expected is not None and expected != result["digest"]:
            errors.append(f"digest {result['digest']} differs from the recorded reference {expected}")
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "sizes": result["sizes"],
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }
    correct = not errors
    attempted = max(1, int(result["ops"]))  # type: ignore[arg-type]
    failed = int(result["failed_ops"]) if correct else attempted  # type: ignore[arg-type]
    section = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        values: Dict[str, float] = result["layers"]  # type: ignore[assignment]
        lines = layer_lines(values)
    else:
        values, lines = end_to_end(args, setup, result)
    metrics = {
        entry["name"]: {"value": values.get(entry["name"], 0), "unit": entry["unit"]}
        for entry in benchmark[section]
    }
    _, op_name = OPS_NAMES[args.workload]
    lines.append(f"failed_ops_frac = {failed}/{attempted} {op_name} = {failed / attempted:.4f}")
    if result.get("job_errors"):
        lines.append(f"failed jobs: {result['job_errors']}")
    if "daemon_exit_status" in result:
        lines.append(f"daemon_exit_status = {result['daemon_exit_status']} (shutdown op; outside failed_ops_frac)")
    if "passes" in result:
        lines.append(f"yield passes per design = {result['passes']}")
    lines.append(f"output digest = {result['digest']}; checks: {'passed' if correct else errors}")
    if "spans_file" in result:
        lines.append(f"spans of one traced round: {Path(str(result['spans_file'])).relative_to(ROOT)}")
    lines.append("environment = " + json.dumps(environment, sort_keys=True))

    record = {
        "environment": environment,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "check_errors": errors,
        "metrics": metrics,
        "details": {key: value for key, value in result.items() if key != "layers"},
        "layers": result.get("layers"),
    }
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True), encoding="utf-8"
    )
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} size={args.size}")
    for line in lines:
        print("  " + line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
