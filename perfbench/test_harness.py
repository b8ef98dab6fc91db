"""Tests of the benchmark harness itself.

Run from the checkout root:
    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import gen, run, stats, tracing, worker, workloads

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each workload's generated inputs for seed 1. A change here
# changes what every later comparison measures, so it must be deliberate.
PINNED_SEED1 = {
    "audit-bulk": "db53bcb3f6a0d26b95b97a440f7021d3cf6ff610d6f23a339a9ef4d077cdb584",
    "lattice-queries": "74fff2d07eff0ae6667be84b20aeb32e053543a887d42f9c5c2a745ba3fb027a",
    "cluster-bands": "5f0727de2e5527c915606c0c81eacffbb3db8cc286b91245a3e20bd2786daaa4",
    "cli-cold": "80da3cab192f900fff02f8059725b45e64943b76ea91e112dc8af2b10cea8cb4",
}


# --- the tail-percentile rule ----------------------------------------------


@pytest.mark.parametrize("n", [11, 12, 40, 57, 100, 333, 1000])
def test_tail_has_ten_samples_beyond_and_is_the_highest(n):
    values = [float(gen.mix(n, k) % 10**9) for k in range(n)]
    assert len(set(values)) == n
    pct, value = stats.tail(values)
    assert sum(v > value for v in values) == stats.MIN_BEYOND
    # the nearest-rank value at the chosen percentile is the reported one
    xs = sorted(values)
    assert xs[math.ceil(pct / 100 * n) - 1] == value
    # any higher percentile leaves fewer than ten samples beyond it
    higher = pct + 1e-6
    rank = math.ceil(higher / 100 * n)
    assert n - rank < stats.MIN_BEYOND


def test_tail_needs_more_than_ten_samples():
    assert stats.tail([1.0] * 10) is None
    assert stats.tail(list(range(11))) == (100 * 1 / 11, 0)


# --- self time --------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # 0 root [0, 10]; 1 child [1, 4] with 2 grandchild [2, 3]; 3 child [5, 9]
    # 4 a second root [12, 13]
    start = [0.0, 1.0, 2.0, 5.0, 12.0]
    end = [10.0, 4.0, 3.0, 9.0, 13.0]
    parent = [-1, 0, 1, 0, -1]
    own = tracing.self_times(start, end, parent)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert own.sum() == pytest.approx(10.0 + 1.0)  # self times add up to the top-level spans


# --- wrappers ---------------------------------------------------------------


def _bindings():
    import dirough  # noqa: F401

    for layer in tracing.LAYERS:
        __import__(f"dirough.{layer}")
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "dirough" or name.startswith("dirough.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_wrappers_trace_cross_module_calls_and_restore_originals():
    from dirough import audit, cud
    from dirough.relsys import RelationalSystem

    before = _bindings()
    s = RelationalSystem(gen.labels(4), gen.updirected_succ(5, 4))
    tracer = tracing.Tracer()
    with tracer.installed():
        assert audit.approx_cud is not before[("dirough.audit", "approx_cud")]
        assert audit.approx_cud is cud.approx_cud  # one wrapper per function
        audit.approx_cud(s, 0b11, "l")
    assert _bindings() == before
    summary = tracing.summarize(tracer)
    assert summary["calls"]["cud.approx_cud"] == 1
    assert summary["calls"]["cud.cud_family"] == 1  # called from inside cud
    cols = tracer.columns()
    family = tracer.names.index("cud.cud_family")
    assert cols["parent"][cols["name"].tolist().index(family)] == 0
    assert tracer.counts["cud.family_size"] == len(cud.cud_family(s))


def test_wrappers_restore_after_an_error_and_count_it_once():
    from dirough import cud
    from dirough.errors import DiroughError
    from dirough.relsys import RelationalSystem

    before = _bindings()
    s = RelationalSystem(gen.labels(3), gen.updirected_succ(5, 3))
    tracer = tracing.Tracer()
    with pytest.raises(DiroughError):
        with tracer.installed():
            cud.approx_cud(s, 0b1, "no-such-op")
    assert _bindings() == before
    assert tracer.errors["cud"] == 1
    assert sum(tracer.errors.values()) == 1


# --- generator and fingerprint ----------------------------------------------


def test_mixers_agree():
    ks = list(range(50))
    assert gen.mix_array(9, ks, 3).tolist() == [gen.mix(9, k, 3) for k in ks]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_byte_identical_for_a_seed(name):
    make = workloads.WORKLOADS[name]
    first = make(ROOT, 1).inputs()
    again = make(ROOT, 1).inputs()
    assert json.dumps(first) == json.dumps(again)
    assert gen.fingerprint(first) == PINNED_SEED1[name]
    assert gen.fingerprint(make(ROOT, 2).inputs()) != PINNED_SEED1[name]


def test_generated_systems_are_up_directed():
    for n in range(3, 17):
        succ = gen.updirected_succ(gen.mix(4, n), n)
        assert all(succ[a] & succ[b] for a in range(n) for b in range(n))


# --- the output check catches a wrong answer ---------------------------------


def test_lattice_check_rejects_a_wrong_closure():
    wl = workloads.LatticeQueries(ROOT, 3)
    x = wl.warmup_input()
    out = wl.op(x)
    assert wl.check(0, x, out) == []
    fam, table, sg, laws, answers = out
    answers[0] = dict(answers[0], eth=answers[0]["eth"] ^ 1)
    assert wl.check(0, x, out)


class _Sleepy(workloads.Workload):
    """A fake workload: ops take 2 ms, checks 5 ms, and op 3 is wrong."""

    def op(self, x):
        time.sleep(0.002)
        return x

    def check(self, index, x, out):
        time.sleep(0.005)
        return ["wrong"] if x == 3 else []


def test_closed_loop_checks_every_op_outside_the_measured_time():
    seq, lat, wall, rss, failures, check_s = worker.closed_loop(_Sleepy(ROOT, 0), list(range(1000)), 0.1)
    assert len(seq) == len(lat) > worker.CHECK_EVERY
    assert failures == ["op 3: wrong"]
    assert check_s >= 0.005 * len(seq)  # every op was checked
    assert 0.1 <= wall < 0.1 + check_s / 2  # and no check counted as measured time


# --- result format and the stand-alone refusal --------------------------------


def test_per_layer_metrics_match_the_benchmark_definition():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = tracing.span_names()
    traced = {
        "calls": dict.fromkeys(names, 1),
        "self_ms": dict.fromkeys(names, 1.0),
        "errors": dict.fromkeys(tracing.LAYERS, 0),
        "counts": dict.fromkeys(tracing.COUNTS, 0),
        "top_level_s": 0.9,
        "op_wall_s": 1.0,
    }
    metrics = run.layer_metrics(traced, 1.5, 100.0)
    assert list(metrics) == [m["name"] for m in bench["per_layer"]]
    assert [m["unit"] for m in bench["per_layer"]] == [m["unit"] for m in metrics.values()]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit-bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert p.returncode != 0
    assert p.stdout == ""
