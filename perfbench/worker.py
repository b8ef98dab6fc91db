"""One workload in one fresh process; prints one JSON line as its result.

Modes:
  setup    import the package, generate the inputs, run one warm-up op
  measure  setup, then the closed loop for --seconds, untraced
  plain    setup, then the workload's fixed traced-op count, untraced
  trace    the same ops as plain, with every layer wrapped in spans

Every output is checked outside every timed region.
Run it from the checkout root: python -m perfbench.worker --help
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
CHECK_EVERY = 16


class OpError:
    """An op that raised; kept in place of its output."""

    def __init__(self, exc: Exception):
        self.message = f"{type(exc).__name__}: {exc}"


def run_op(wl, x):
    try:
        return wl.op(x)
    except Exception as exc:  # an op failure is a measured outcome, not a crash
        return OpError(exc)


def gate(wl, batch) -> list[str]:
    """Check the outputs of (index, input, output) triples; one line per
    failed op."""
    failures = []
    for i, x, out in batch:
        if isinstance(out, OpError):
            failures.append(f"op {i}: {out.message}")
            continue
        try:
            reasons = wl.check(i, x, out)
        except Exception as exc:  # a check that cannot run fails the op
            reasons = [f"check raised {type(exc).__name__}: {exc}"]
        if reasons:
            failures.append(f"op {i}: " + "; ".join(reasons))
    return failures


def closed_loop(wl, inputs: list, seconds: float):
    """Ops back to back until --seconds of measured time have passed.

    Outputs are checked CHECK_EVERY ops at a time between ops and then
    dropped, so held outputs do not grow peak memory with the op count.
    The checks are outside every timed region and their time is left out
    of the measured wall time.
    """
    lat, seq, batch, failures = [], [], [], []
    checking = 0.0
    begin = perf_counter()
    while perf_counter() - begin - checking < seconds:
        x = inputs[len(lat) % len(inputs)]
        t0 = perf_counter()
        out = run_op(wl, x)
        lat.append(perf_counter() - t0)
        seq.append(x)
        batch.append((len(lat) - 1, x, out))
        if len(batch) == CHECK_EVERY:
            t0 = perf_counter()
            failures += gate(wl, batch)
            batch = []
            checking += perf_counter() - t0
    wall = perf_counter() - begin - checking
    rss = wl.peak_rss_mb()
    t0 = perf_counter()
    failures += gate(wl, batch)
    checking += perf_counter() - t0
    return seq, lat, wall, rss, failures, checking


def fixed_loop(wl, inputs: list):
    outs, lat = [], []
    begin = perf_counter()
    for x in inputs:
        t0 = perf_counter()
        outs.append(run_op(wl, x))
        lat.append(perf_counter() - t0)
    return outs, lat, perf_counter() - begin


def main(argv=None) -> int:
    from perfbench import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "plain", "trace"))
    ap.add_argument("--spans", default=None, help="where trace mode writes its spans (.npz)")
    args = ap.parse_args(argv)

    import dirough

    if Path(dirough.__file__).resolve().parent != ROOT / "src" / "dirough":
        print(f"error: dirough was imported from {dirough.__file__}, not this checkout", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    # in-process cli runs, so that the wrapped layers see the calls
    wl.in_process = args.mode in ("plain", "trace")
    try:
        return execute(wl, args)
    finally:
        wl.close()


def execute(wl, args) -> int:
    from perfbench import gen, tracing

    inputs = wl.inputs()
    warm = wl.warmup_input()
    wl.prepare(inputs + [warm])
    run_op(wl, warm)
    if args.mode == "setup":
        print(json.dumps({"mode": "setup"}))
        return 0

    tracer = None
    if args.mode == "measure":
        seq, lat, wall, rss, failures, check_s = closed_loop(wl, inputs, args.seconds)
    else:
        # checked after the loop, so that the checks' own calls are not traced
        tracer = tracing.Tracer() if args.mode == "trace" else None
        seq = inputs[: wl.trace_ops]
        with tracer.installed() if tracer else contextlib.nullcontext():
            outs, lat, wall = fixed_loop(wl, seq)
        rss = wl.peak_rss_mb()
        t0 = perf_counter()
        failures = gate(wl, [(i, x, out) for i, (x, out) in enumerate(zip(seq, outs))])
        check_s = perf_counter() - t0

    seen, repeats = set(), 0
    for x in seq:
        key = wl.repeat_key(x)
        repeats += key in seen
        seen.add(key)
    result = {
        "mode": args.mode,
        "attempted": len(seq),
        "failed": len(failures),
        "failures": failures[:10],
        "latencies_s": lat,
        "wall_s": wall,
        "check_s": check_s,
        "peak_rss_mb": rss,
        "repeat_share": repeats / len(seq),
        "inputs_sha256": gen.fingerprint(inputs),
        "inputs_pool": len(inputs),
    }
    if tracer is not None:
        summary = tracing.summarize(tracer)
        result.update(
            calls=summary["calls"],
            self_ms=summary["self_ms"],
            counts=tracer.counts,
            errors=tracer.errors,
            spans=summary["spans"],
            top_level_s=summary["top_level_s"],
            op_wall_s=sum(lat),
        )
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
