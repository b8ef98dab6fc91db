"""Spans around calls into the package's public functions.

The tracer replaces each listed function in every ``dirough.*`` module
namespace that binds it, so calls between modules are caught as well as
calls from the benchmark. Spans live in flat in-memory columns and are
written out once, at the end of a run. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# Public functions timed per layer; the layer is the defining module.
LAYERS: dict[str, tuple[str, ...]] = {
    "relsys": ("approx_basic", "classify", "is_up_directed", "parse_relation"),
    "cud": ("cud_family", "cud_tuple", "approx_cud", "eth_closure", "cudas_op", "is_cud"),
    "grpd": (
        "build_updir_groupoid",
        "pseudo_joins",
        "subgroupoids",
        "generate",
        "is_closed",
        "check_laws",
        "law_violation",
        "relation_of",
        "verify_b_of_s",
    ),
    "piappr": ("approx_pi", "pg_tuple"),
    "acp": (
        "audit_acp_laws",
        "acp_carrier",
        "acp_op",
        "acp_neg",
        "acp_coprod",
        "validate_element",
    ),
    "audit": ("check_claim", "replay_witness"),
    "regions": ("region_table",),
    "cluster": (
        "parse_dataset",
        "step1_relation",
        "propose_clusters",
        "rough_tuple_for",
        "validate_clustering",
        "score_clusters",
        "select_clusters",
        "segmentation_csv",
    ),
    "fixtures": ("build_section6_report",),
    "cli": ("run",),
}


def _relation_pairs(sys_) -> int:
    return sum(row.bit_count() for row in sys_.succ)


# Work counts taken from a function's result: count name -> (span, measure,
# distinct). A distinct count measures each result object once, so a family
# handed out again from a cache is not counted twice.
COUNTS: dict[str, tuple[str, object, bool]] = {
    "cud.family_size": ("cud.cud_family", len, True),
    "grpd.subgroupoid_count": ("grpd.subgroupoids", len, True),
    "acp.carrier_size": ("acp.acp_carrier", len, True),
    "audit.claims_skipped": ("audit.check_claim", lambda r: int(r.status == "skipped"), False),
    "cluster.relation_pairs": ("cluster.step1_relation", _relation_pairs, False),
    "cluster.proposed": ("cluster.propose_clusters", lambda cs: len(cs.clusters), False),
    "cluster.selected": ("cluster.select_clusters", lambda cs: len(cs.clusters), False),
}


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Records one span per wrapped call: name, start, end, parent."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {c: 0 for c in COUNTS}
        self.errors = {layer: 0 for layer in LAYERS}
        self._open = [-1]
        self._counted: dict[int, object] = {}  # holds results so ids stay unique

    def wrap(self, qualname: str, fn, error_type: type[Exception]):
        """A stand-in for fn that records a span around every call and
        counts the error_type exceptions that leave it."""
        nid = len(self.names)
        self.names.append(qualname)
        layer = qualname.split(".", 1)[0]
        measures = [(c, m, d) for c, (span, m, d) in COUNTS.items() if span == qualname]
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._open
        counts, errors, counted = self.counts, self.errors, self._counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except error_type as exc:
                # count each exception once, in the innermost layer it left
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    errors[layer] += 1
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()
            for c, measure, distinct in measures:
                if distinct:
                    if id(result) in counted:
                        continue
                    counted[id(result)] = result
                counts[c] += measure(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every listed function in every dirough module that binds it,
        and put the originals back on exit."""
        from dirough.errors import DiroughError

        for layer in LAYERS:
            importlib.import_module(f"dirough.{layer}")
        mods = [m for k, m in sorted(sys.modules.items()) if k == "dirough" or k.startswith("dirough.")]
        replaced: list[tuple[object, str, object]] = []
        try:
            for layer, fns in LAYERS.items():
                home = sys.modules[f"dirough.{layer}"]
                for fn_name in fns:
                    original = getattr(home, fn_name)
                    traced = self.wrap(f"{layer}.{fn_name}", original, DiroughError)
                    for mod in mods:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, traced)
                                replaced.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(replaced):
                setattr(mod, attr, original)

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.columns())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans nest on one thread, so a parent's children never overlap and
    their summed durations are the part of the parent they cover.
    """
    start, end, parent = (np.asarray(a) for a in (start, end, parent))
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


def summarize(tracer: Tracer) -> dict:
    """Calls and self time per span name, plus top-level busy time."""
    cols = tracer.columns()
    own = self_times(cols["start"], cols["end"], cols["parent"])
    k = len(tracer.names)
    calls = np.bincount(cols["name"], minlength=k)
    self_s = np.bincount(cols["name"], weights=own, minlength=k)
    top = cols["parent"] < 0
    return {
        "calls": {n: int(calls[i]) for i, n in enumerate(tracer.names)},
        "self_ms": {n: float(self_s[i]) * 1e3 for i, n in enumerate(tracer.names)},
        "top_level_s": float((cols["end"][top] - cols["start"][top]).sum()),
        "spans": len(cols["name"]),
    }
