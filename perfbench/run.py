"""The dirough benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout. Each workload runs in a fresh worker
process (perfbench/worker.py), so peak memory and the package's module-level
caches belong to that workload alone. With --trace 0 the result holds the
end-to-end metrics; with --trace 1 the per-layer metrics from traced runs
of a fixed number of ops, next to untraced runs of the same ops.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The lines before it describe the run. Every result is
also written to .perfbench_work/results/. The exit code is 0 when every op
passed its check, 1 when one failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import stats, tracing  # noqa: E402
from perfbench.workloads import WORKDIR, WORKLOADS  # noqa: E402

SETUP_RUNS = 3  # set-up is timed this many times per run; the median is reported
IMPORT_RUNS = 5
WORKER_TIMEOUT = 150

END_TO_END = {
    "throughput_ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(Exception):
    """The benchmark itself could not run."""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    env.pop("DIROUGH_CAP", None)  # the workloads fix their own sizes
    return env


def run_child(cmd: list[str], timeout: float) -> tuple[str, float]:
    """Run one child to completion; its stdout and its wall time."""
    t0 = perf_counter()
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchError(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
    wall = perf_counter() - t0
    if p.returncode != 0:
        raise BenchError(f"exit {p.returncode}: {' '.join(cmd)}\n{p.stderr[-2000:]}")
    return p.stdout, wall


def worker(workload: str, seed: int, mode: str, seconds: float = 0.0, spans: str | None = None):
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    out, wall = run_child(cmd, WORKER_TIMEOUT)
    return json.loads(out.strip().splitlines()[-1]), wall


def import_ms() -> float:
    """Median time for a fresh interpreter to import dirough.cli."""
    code = "import time; t = time.perf_counter(); import dirough.cli; print(time.perf_counter() - t)"
    samples = [float(run_child([sys.executable, "-c", code], 60)[0]) for _ in range(IMPORT_RUNS)]
    return statistics.median(samples) * 1e3


def commit() -> str | None:
    """HEAD of the checkout when it is a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def source_sha256() -> str:
    """sha256 over the package's files, which names the program version
    where there is no git metadata."""
    h = hashlib.sha256()
    pkg = ROOT / "src" / "dirough"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy

    return {
        "commit": commit(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def end_to_end(workload: str, seed: int, seconds: float):
    setups = [worker(workload, seed, "setup")[1] for _ in range(SETUP_RUNS)]
    m, _ = worker(workload, seed, "measure", seconds)
    lat_ms = [t * 1e3 for t in m["latencies_s"]]
    tail = stats.tail(lat_ms)
    if tail is None:
        raise BenchError(f"{len(lat_ms)} ops is too few for a tail percentile; raise --seconds")
    values = {
        "throughput_ops_per_s": m["attempted"] / m["wall_s"],
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail[1],
        "peak_rss_mb": m["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    info = {
        "samples": len(lat_ms),
        "tail_percentile": tail[0],
        "setup_samples_s": setups,
        "fail_ratio": m["failed"] / m["attempted"],
        "repeat_share": m["repeat_share"],
        "wall_s": m["wall_s"],
        "check_s": m["check_s"],
        "inputs_sha256": m["inputs_sha256"],
        "inputs_pool": m["inputs_pool"],
        "failures": m["failures"],
    }
    lines = [
        f"throughput_ops_per_s {values['throughput_ops_per_s']:.4g} ops/s "
        f"({m['attempted']} ops in {m['wall_s']:.2f} s, closed loop, 1 client)",
        f"latency_p50_ms {values['latency_p50_ms']:.4g} ms ({len(lat_ms)} samples)",
        f"latency_tail_ms {values['latency_tail_ms']:.4g} ms (p{tail[0]:.4g}, the highest "
        f"percentile with {stats.MIN_BEYOND} samples beyond it)",
        f"peak_rss_mb {values['peak_rss_mb']:.4g} MB"
        + (" (largest child)" if workload == "cli-cold" else ""),
        f"setup_s {values['setup_s']:.4g} s (median of {SETUP_RUNS})",
        f"fail_ratio {info['fail_ratio']:.4g} ({m['failed']}/{m['attempted']})",
        f"repeat_share {info['repeat_share']:.4g} (ops whose input repeats an earlier one)",
        "wait-time metrics: none; the program is single-threaded and has no queues",
    ]
    return m["attempted"], m["failed"], metrics, info, lines


def layer_metrics(traced: dict, overhead: float, import_ms_value: float) -> dict:
    """Per-layer metrics, in BENCHMARK.json order, from a traced worker result."""
    values: dict[str, tuple[float, str]] = {}
    for name in tracing.span_names():
        values[f"{name}.calls"] = (traced["calls"][name], "count")
        values[f"{name}.self_ms"] = (traced["self_ms"][name], "ms")
    for layer in tracing.LAYERS:
        values[f"{layer}.errors"] = (traced["errors"][layer], "count")
    for name in tracing.COUNTS:
        values[name] = (traced["counts"][name], "count")
    values["cli.import_ms"] = (import_ms_value, "ms")
    values["trace.overhead_ratio"] = (overhead, "ratio")
    values["trace.top_level_coverage"] = (traced["top_level_s"] / traced["op_wall_s"], "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(workload: str, seed: int):
    # untraced, traced, traced, untraced: the order cancels a linear drift
    # in machine speed out of the overhead ratio
    spans = str(ROOT / WORKDIR / "results" / f"spans-{workload}-{seed}.npz")
    plain = [worker(workload, seed, "plain")[0]]
    traced = [worker(workload, seed, "trace", spans=spans)[0], worker(workload, seed, "trace")[0]]
    plain.append(worker(workload, seed, "plain")[0])
    runs = plain + traced
    plain_s = sum(r["wall_s"] for r in plain)
    traced_s = sum(r["wall_s"] for r in traced)
    metrics = layer_metrics(traced[0], traced_s / plain_s, import_ms())
    t = traced[0]
    info = {
        "ops": t["attempted"],
        "spans": t["spans"],
        "spans_file": os.path.relpath(spans, ROOT),
        "plain_wall_s": [r["wall_s"] for r in plain],
        "traced_wall_s": [r["wall_s"] for r in traced],
        "inputs_sha256": t["inputs_sha256"],
        "failures": [f for r in runs for f in r["failures"]],
    }
    lines = [
        f"traced {t['attempted']} ops: {t['spans']} spans, tracing overhead "
        f"{metrics['trace.overhead_ratio']['value']:.3f}x ({traced_s:.2f} s in two traced runs "
        f"against {plain_s:.2f} s in two untraced runs)",
        f"top-level spans cover {metrics['trace.top_level_coverage']['value']:.1%} of the traced op wall time",
    ]
    busiest = sorted(tracing.span_names(), key=lambda n: -t["self_ms"][n])[:8]
    lines += [f"  {n:34s} {t['calls'][n]:9d} calls {t['self_ms'][n]:10.1f} ms self" for n in busiest]
    return sum(r["attempted"] for r in runs), sum(r["failed"] for r in runs), metrics, info, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="dirough benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in ("src/dirough/__init__.py", "tests/oracles.py"):
        if not (ROOT / need).is_file():
            print(f"error: {need} is missing; run from a full checkout of the repository", file=sys.stderr)
            return 2
    (ROOT / WORKDIR / "results").mkdir(parents=True, exist_ok=True)

    try:
        if args.trace:
            attempted, failed, metrics, info, lines = per_layer(args.workload, args.seed)
        else:
            attempted, failed, metrics, info, lines = end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        **environment(args.seed),
        **info,
        "metrics": metrics,
    }
    out = ROOT / WORKDIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; inputs sha256 {info['inputs_sha256']}")
    for line in lines:
        print("  " + line)
    for f in info["failures"]:
        print("  FAILED " + f)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
