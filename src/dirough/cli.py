"""Command-line surface.

Subcommands mirror the library: relation inspection, approximations,
granule listings, groupoid construction and law checks, the pair-algebra
audit, decision regions, the clustering pipeline, the bundled fixture
report, and the claim auditor. Exit codes: 0 success, 1 domain error or
a reader that closed stdout early, 2 usage error. All randomness flows
through an explicit --seed, so equal invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os as _os
import sys as _sys
from collections.abc import Callable, Iterable, Iterator
from itertools import chain
from typing import TYPE_CHECKING

from .errors import DiroughError, InputFormatError, NotUpDirectedError, StructureError
from .relsys import (
    RelationalSystem,
    basic_bounds,
    classify,
    exhaustive_cap,
    load_relation,
    read_parsed,
)

# Every command reads relations, so relsys loads here. Each other module is
# imported by the handler or helper that runs it, so a cold command compiles
# only what it uses: `relation check --rel` needs relsys alone, and only
# `cluster` loads numpy.
if TYPE_CHECKING:
    from . import cluster as cluster_mod
    from .grpd import Groupoid


def _read_table(path: str, sys: RelationalSystem | None = None) -> Groupoid:
    """The Cayley table at path; given sys, it must carry sys's labels in sys's order."""
    from .grpd import load_cayley

    g = load_cayley(path)
    if sys is not None and g.labels != sys.labels:
        raise InputFormatError(f"{path}: table labels must be the relation's, in its order")
    return g


def _load_sys(args) -> RelationalSystem:
    """The --rel relation, else the bundled one."""
    if args.rel:
        return load_relation(args.rel)
    from .fixtures import section6_system

    return section6_system()


def _groupoid(args, sys: RelationalSystem | None = None,
              flavor: str | None = None) -> Groupoid | None:
    """The groupoid the input flags give over sys, else over --rel.

    --table gives a member of the relation's B(S) family (the pi family under
    --pi) and is checked against it; read beside no relation it is taken as
    is. --strategy (default min) chooses a member, over the bundled relation
    when no --rel is read; with no flag and no --rel, the bundled groupoid.
    A clustering passes the system it clusters and its flavor: only pi reads
    a groupoid, None while that system is not up-directed (the caller answers).
    """
    if flavor not in (None, "pi"):
        _no_groupoid(args, f"{flavor} clustering")
        return None
    spec = args.strategy
    pi = flavor == "pi" or args.pi  # cluster commands have no --pi, and no --rel
    if not (pi or spec or args.table or args.rel):
        from .fixtures import section6_groupoid

        return section6_groupoid()
    from .grpd import ChoiceStrategy, b_of_s_fault, build_updir_groupoid

    if sys is None and args.rel:
        sys = load_relation(args.rel)
    if args.table:
        clash = [flag for flag, on in (("--strategy", spec), ("--pi", pi and sys is None)) if on]
        if clash:
            raise InputFormatError(
                f"--table gives the groupoid; it clashes with {', '.join(clash)}"
            )
        g = _read_table(args.table, sys)
        if sys is None:
            return g
    else:
        g = None
        if spec in (None, "min", "max"):
            strategy = ChoiceStrategy(f"{spec or 'min'}_index", pi_constrained=pi)
        elif spec.startswith("seed:"):
            try:
                strategy = ChoiceStrategy.seeded(int(spec[5:]), pi_constrained=pi)
            except ValueError:
                raise InputFormatError(f"bad strategy seed in {spec!r}")
        else:
            raise InputFormatError(f"unknown strategy {spec!r}; expected min, max or seed:<n>")
        if sys is None:
            sys = _load_sys(args)
    if flavor and not sys.up_directed:
        return None
    if g is None:
        return build_updir_groupoid(sys, strategy)
    if (fault := b_of_s_fault(sys, g, pi)) is not None:
        raise (StructureError if sys.up_directed else NotUpDirectedError)(f"{args.table}: {fault}")
    return g


def _no_groupoid(args, what: str) -> None:
    """what uses no groupoid, so the flags that give or build one clash with it."""
    clash = [f"--{flag}" for flag in ("table", "strategy", "pi") if getattr(args, flag, None)]
    if clash:
        raise InputFormatError(f"{what} uses no groupoid; it clashes with {', '.join(clash)}")


def _mask(holder, csv_labels: str) -> int:
    names = [t.strip() for t in csv_labels.split(",") if t.strip()]
    return holder.mask(names)


def _fmt_set(holder, mask: int) -> str:
    labs = holder.set_labels(mask)
    return "{" + ", ".join(labs) + "}"


# ---------------------------------------------------------------------------
# Output


_BATCH_CHARS = 1 << 16
_encode_str = json.encoder.encode_basestring_ascii
_encode_scalar = json.JSONEncoder().encode


def _write(pieces: Iterable[str]) -> None:
    """Write the pieces to stdout in batches of about 64 KiB: one write call
    per batch, where an unbuffered stdout makes each call a system call."""
    out = _sys.stdout
    batch: list[str] = []
    size = 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _BATCH_CHARS:
            out.write("".join(batch))
            batch, size = [], 0
    out.write("".join(batch))


def _json_key(key) -> str:
    """key as json.dumps writes it: a string, or a number, bool or None in quotes."""
    if isinstance(key, str):
        return _encode_str(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + _encode_scalar(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _json_pieces(x, indent: str) -> Iterator[str]:
    """What json.dumps writes for x with indent=2, x nested at indent (a
    newline and two spaces a level), one container at a time; an iterator is
    written as the list it yields. Every string, number and key is encoded
    by json."""
    if isinstance(x, str):
        yield _encode_str(x)
    elif isinstance(x, dict):
        inner = indent + "  "
        sep = "{" + inner
        for key, value in x.items():
            yield sep + _json_key(key) + ": "
            yield from _json_pieces(value, inner)
            sep = "," + inner
        yield "{}" if not x else indent + "}"
    elif isinstance(x, (list, tuple, Iterator)):
        inner = indent + "  "
        if isinstance(x, (list, tuple)) and x:
            # a list of strings is one join; the encoder raises TypeError at
            # the first item that is not a string
            try:
                body = ("," + inner).join(map(_encode_str, x))
            except TypeError:
                pass
            else:
                yield "[" + inner + body + indent + "]"
                return
        sep = "[" + inner
        empty = True
        for value in x:
            yield sep
            yield from _json_pieces(value, inner)
            sep = "," + inner
            empty = False
        yield "[]" if empty else indent + "]"
    else:
        yield _encode_scalar(x)


def _print_json(data) -> None:
    """Write to stdout what json.dumps writes for data with indent=2, and a
    newline; lists may be iterators, which are never held whole."""
    _write(chain(_json_pieces(data, "\n"), "\n"))


def _emit(args, data: dict | Callable[[], dict], text_lines: Iterable[str]) -> None:
    """data (called if callable) as JSON under --json, else the text lines; each read only then."""
    if args.json:
        _print_json(data() if callable(data) else data)
    else:
        _write(line + "\n" for line in text_lines)


def _emit_sets(args, holder, head: dict, A: int, named: dict[str, int]) -> None:
    """Emit the input set A and named result sets: JSON label lists after the
    head fields, or one `name: {..}` text line per result (anti_upper as anti-upper)."""
    data = head | {"set": list(holder.set_labels(A))}
    data |= {name: list(holder.set_labels(m)) for name, m in named.items()}
    lines = (f"{name.replace('_', '-')}: {_fmt_set(holder, m)}" for name, m in named.items())
    _emit(args, data, lines)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_relation(args) -> int:
    if args.path and args.rel:
        raise InputFormatError(
            f"relation check got two files, {args.path!r} and --rel {args.rel!r}; give one"
        )
    sys = load_relation(args.path) if args.path else _load_sys(args)
    profile = classify(sys).as_dict()
    data = {"labels": list(sys.labels), "profile": profile}
    lines = [f"universe: {', '.join(sys.labels)}"] + [
        f"{k}: {str(v).lower()}" for k, v in profile.items()
    ]
    _emit(args, data, lines)
    return 0


def _cmd_approx(args) -> int:
    if args.mode and args.kind != "cud":
        raise InputFormatError(f"--kind {args.kind} has no mode; it clashes with --mode")
    if args.kind == "pi":
        from .piappr import approx_pi

        holder = _groupoid(args)
        A = _mask(holder, args.set)
        ops = {"lower": "l_pi", "upper": "u_pi", "anti_upper": "u_a"}
        _emit_sets(args, holder, {"kind": "pi"}, A,
                   {name: approx_pi(holder, A, op) for name, op in ops.items()})
        return 0
    _no_groupoid(args, f"--kind {args.kind}")
    holder = _load_sys(args)
    A = _mask(holder, args.set)
    if args.kind == "nbd":
        lo, up = basic_bounds(holder, A)
        _emit_sets(args, holder, {"kind": "nbd"}, A, {"lower": lo, "upper": up})
        return 0
    from .cud import approx_cud

    # Not packaged as a RoughTuple: the collection-mode upper may fail
    # to contain the lower, which that container rejects by design.
    mode = args.mode or "pointwise"
    lo, up = (approx_cud(holder, A, side, mode) for side in ("l", "u"))
    _emit_sets(args, holder, {"kind": "cud", "mode": mode}, A,
               {"lower": lo, "upper": up, "boundary": up & ~lo})
    return 0


def _cmd_granules(args) -> int:
    if args.family == "cud":
        from .cud import cud_family

        _no_groupoid(args, "granules cud")
        sys = _load_sys(args)
        fam = cud_family(sys)
        holder = sys
    else:
        from .grpd import subgroupoids

        g = _groupoid(args)
        fam = subgroupoids(g)
        holder = g
    members = fam.members
    data = {
        "family": args.family,
        "count": len(members),
        "members": (holder.set_labels(m) for m in members),
    }
    lines = chain([f"count: {len(members)}"], (_fmt_set(holder, m) for m in members))
    _emit(args, data, lines)
    return 0


def _cmd_groupoid_build(args) -> int:
    from .grpd import dump_cayley

    g = _groupoid(args, _load_sys(args))
    table = [[g.labels[v] for v in row] for row in g.table]
    _emit(args, {"labels": list(g.labels), "table": table}, [dump_cayley(g).removesuffix("\n")])
    return 0


def _cmd_groupoid_laws(args) -> int:
    from .grpd import ALL_LAWS, law_violation

    g = _groupoid(args)
    wanted = ALL_LAWS
    if args.laws is not None:
        wanted = tuple(t.strip() for t in args.laws.split(",") if t.strip())
        if not wanted:
            raise InputFormatError(f"--laws {args.laws!r} names no law id")
    data = {"laws": {}}
    lines = []
    for law in dict.fromkeys(wanted):
        witness = law_violation(g, law)
        entry: dict = {"holds": witness is None}
        if witness is not None:
            entry["witness"] = witness
        data["laws"][law] = entry
        lines.append(f"{law}: {'holds' if witness is None else 'fails ' + str(witness)}")
    _emit(args, data, lines)
    return 0


def _cmd_acp(args) -> int:
    from .acp import audit_acp_laws

    g = _groupoid(args)
    report = audit_acp_laws(g, args.mode, seed=args.seed)
    data = report.as_dict()
    lines = [f"carrier: {report.mode}"]
    for v in report.verdicts:
        status = "holds" if v.holds else f"fails {v.witness}"
        lines.append(f"{v.law} (tier {v.tier}): {status}")
    _emit(args, data, lines)
    return 0


def _cmd_regions(args) -> int:
    from .regions import region_table

    sys = _load_sys(args)
    g = _groupoid(args, sys)
    sets = args.set or []
    if len(sets) != 2:
        raise InputFormatError("regions needs exactly two --set arguments")
    A, B = _mask(sys, sets[0]), _mask(sys, sets[1])
    table = region_table(g, sys, A, B)
    if args.kind:
        table = {args.kind: table[args.kind]}
    data = {
        "A": list(sys.set_labels(A)),
        "B": list(sys.set_labels(B)),
        "regions": {k: list(sys.set_labels(v)) for k, v in table.items()},
    }
    lines = [f"{k}: {_fmt_set(sys, v)}" for k, v in table.items()]
    _emit(args, data, lines)
    return 0


def _cluster_set_dict(cs: cluster_mod.ClusterSet) -> dict:
    return {
        "flavor": cs.flavor,
        "clusters": [
            {
                "support": list(cs.sys.set_labels(c.support)),
                "lower": list(cs.sys.set_labels(c.approx.lower)),
                "upper": list(cs.sys.set_labels(c.approx.upper)),
                "boundary": list(cs.sys.set_labels(c.approx.boundary)),
            }
            for c in cs.clusters
        ],
    }


def _parse_weights(spec: str) -> list[float]:
    try:
        return [float(w) for w in spec.split(",")]
    except ValueError:
        raise InputFormatError(f"--weights must be comma-separated numbers, got {spec!r}")


def _load_cluster_set(args, sys: RelationalSystem) -> cluster_mod.ClusterSet:
    """The clusters file re-approximated over sys with the file's flavor (cud if unnamed).

    A cluster that lists any of lower, upper and boundary lists all three,
    and they must be the tuple its support gives.
    """
    from . import cluster as cluster_mod

    parts = ("lower", "upper", "boundary")

    def is_labels(x) -> bool:
        return isinstance(x, list) and all(isinstance(lab, str) for lab in x)

    def parse(text: str) -> tuple[str, RelationalSystem, list[int], list]:
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"not valid JSON: {exc}")
        if isinstance(raw, dict) and "clusters" not in raw:
            # composite output of `cluster run --json`
            raw = raw.get("selected") or raw.get("proposed") or {}
        if not isinstance(raw, dict) or not isinstance(raw.get("clusters"), list):
            raise InputFormatError("no cluster list found")
        flavor = raw.get("flavor", "cud")
        if flavor not in ("cud", "pi", "basic"):
            raise InputFormatError(f"unknown clustering flavor {flavor!r}")
        supports, stored = [], []
        for c in raw["clusters"]:
            labels = c.get("support") if isinstance(c, dict) else None
            if not is_labels(labels):
                raise InputFormatError("a cluster has no support label list")
            supports.append(labels)
            given = None
            if c.keys() & set(parts):
                if not all(is_labels(c.get(p)) for p in parts):
                    raise InputFormatError(
                        "a cluster's lower, upper and boundary must all be label lists"
                    )
                given = tuple(frozenset(c[p]) for p in parts)
            stored.append(given)
        # written by `cluster run --fallback top`, over the augmented system
        top = any(cluster_mod.TOP_LABEL in labels for labels in supports)
        over = cluster_mod.augment_with_top(sys) if top else sys
        return flavor, over, [over.mask(labels) for labels in supports], stored

    flavor, sys, supports, stored = read_parsed(args.clusters, parse)
    g = _groupoid(args, sys, flavor)
    if flavor != "basic" and not sys.up_directed:
        # as `cluster run` does; cud's reflexive shortcut would answer regardless
        raise NotUpDirectedError(f"{args.clusters}: induced relation is not up-directed")
    clusters = []
    for support, given in zip(supports, stored):
        t = cluster_mod.rough_tuple_for(sys, g, support, flavor)
        if given is not None and given != tuple(
            frozenset(sys.set_labels(getattr(t, p))) for p in parts
        ):
            raise StructureError(
                f"{args.clusters}: cluster over {sys.set_labels(support)} "
                "does not reproduce its tuple"
            )
        clusters.append(cluster_mod.RoughCluster(support, t))
    return cluster_mod.ClusterSet(tuple(clusters), flavor, sys, g)


def _cmd_cluster(args) -> int:
    from . import cluster as cluster_mod

    ds = cluster_mod.load_dataset(args.data)
    rho = {"l2": "euclidean", "linf": "chebyshev"}[args.rho]
    sys = cluster_mod.step1_relation(ds, rho, args.eps)
    if args.sub == "run":
        if args.fallback == "top" and not sys.up_directed:
            # the system clustered, which a pi groupoid must span
            sys = cluster_mod.augment_with_top(sys)
        g = _groupoid(args, sys, args.kind)
        # an augmented system is up-directed, so it needs no library fallback
        fallback = "error" if args.fallback == "top" else args.fallback
        cs = cluster_mod.propose_clusters(sys, g, args.kind, args.seeds, fallback)
        report = cluster_mod.validate_clustering(cs.sys, cs.g, cs, cs.flavor)
        scored = cluster_mod.score_clusters(ds, cs, args.metric)
        weights = _parse_weights(args.weights) if args.weights else None
        chosen = cluster_mod.select_clusters(scored, weights, args.k)
        final_report = cluster_mod.validate_clustering(chosen.sys, chosen.g, chosen, chosen.flavor)
        if args.segment:
            try:
                with open(args.segment, "w", encoding="utf-8") as fh:
                    fh.write(cluster_mod.segmentation_csv(chosen))
            except OSError as exc:
                raise InputFormatError(f"cannot write {args.segment}: {exc.strerror or exc}")
        lines = [
            f"proposed clusters: {len(cs.clusters)}",
            f"valid: {str(report.valid).lower()}",
        ]
        for i, c in enumerate(chosen.clusters):
            lines.append(
                f"cluster {i}: lower {_fmt_set(chosen.sys, c.approx.lower)} "
                f"upper {_fmt_set(chosen.sys, c.approx.upper)}"
            )
        lines.append(f"selected valid: {str(final_report.valid).lower()}")
        _emit(args, lambda: {
            "proposed": _cluster_set_dict(cs),
            "validity": report.as_dict(),
            "scores": scored.as_dict(),
            "selected": _cluster_set_dict(chosen),
            "selected_validity": final_report.as_dict(),
        }, lines)
        return 0
    cs = _load_cluster_set(args, sys)
    if args.sub == "validate":
        report = cluster_mod.validate_clustering(cs.sys, cs.g, cs, cs.flavor)
        _emit(
            args,
            report.as_dict(),
            [
                f"covers: {str(report.covers).lower()}",
                f"disclusion violations: {len(report.disclusion_pairs)}",
                f"valid: {str(report.valid).lower()}",
            ],
        )
        return 0
    scored = cluster_mod.score_clusters(ds, cs, args.metric)
    lines = []
    for r in scored.rows:
        val = "null" if r.value is None else (
            "[" + ", ".join(f"{v:.6g}" for v in r.value) + "]"
            if isinstance(r.value, tuple)
            else f"{r.value:.6g}"
        )
        lines.append(f"cluster {r.cluster} {r.component}: {val}")
    _emit(args, scored.as_dict, lines)
    return 0


def _cmd_fixture(args) -> int:
    from .fixtures import build_section6_report

    report = build_section6_report()

    def lines() -> Iterator[str]:
        yield f"universe: {', '.join(report['labels'])}"
        yield "table1 (upper bounds):"
        for pair, labs in report["table1"].items():
            yield f"  U({pair}) = {{{', '.join(labs)}}}"
        yield "table3 (neighborhoods):"
        for x, labs in report["table3"].items():
            yield f"  [{x}] = {{{', '.join(labs)}}}"
        yield f"granules: {len(report['granules'])} nonempty members"
        yield f"subgroupoids: {len(report['su'])} members"
        yield "values:"
        for key, labs in report["values"].items():
            yield f"  {key} = {{{', '.join(labs)}}}"
        yield "deviations from the printed tables:"
        for d in report["diffs"]:
            tag = d["erratum"] or "UNDOCUMENTED"
            yield f"  [{tag}] {d['where']}: printed {d['printed']} computed {d['computed']}"
        yield f"exact after errata: {str(report['exact_after_errata']).lower()}"

    _emit(args, report, lines())
    return 0 if report["exact_after_errata"] else 1


def _cmd_audit(args) -> int:
    from . import audit as audit_mod

    sys = load_relation(args.rel) if args.rel else None
    g = _read_table(args.table, sys or _load_sys(args)) if args.table else None
    report = audit_mod.audit_claims(
        sys, g, tier=args.tier, random_instances=args.random, seed=args.seed
    )

    def lines() -> Iterator[str]:
        for r in report.results:
            witness = f" witness {r.witness}" if r.status == "fail" else ""
            yield f"{r.claim} (tier {r.tier}) on {r.instance}: {r.status}{witness}"
        yield (f"tier-1 failures: {len(report.tier1_failures)}; "
               f"deviations: {len(report.deviations)}")

    _emit(args, report.as_dict(), lines())
    return 1 if report.tier1_failures else 0


# ---------------------------------------------------------------------------
# Parser


def _add_common(p, *, seed=False):
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    if seed:
        p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dirough",
        description="finite engine for directed rough sets and their groupoids",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    # the input flags, declared once: --rel; then --strategy and --pi, which
    # choose a member of the relation's B(S) family, or --table, which gives one
    rel = argparse.ArgumentParser(add_help=False)
    rel.add_argument("--rel", default=None, help="relation file (default: bundled fixture)")
    groupoid = argparse.ArgumentParser(add_help=False, parents=[rel])
    groupoid.add_argument("--strategy", default=None, help="min | max | seed:<n>")
    groupoid.add_argument("--pi", action="store_true", help="the pi family: pseudo joins only")
    groupoid.add_argument("--table", default=None,
                          help="Cayley table CSV, checked against the relation read")

    p = sub.add_parser("relation", help="inspect a relation file")
    rsub = p.add_subparsers(dest="sub", required=True)
    rc = rsub.add_parser("check", help="classify relation properties", parents=[rel])
    rc.add_argument("path", nargs="?", default=None, help="relation file")
    _add_common(rc)
    rc.set_defaults(fn=_cmd_relation)

    p = sub.add_parser("approx", help="approximate a subset", parents=[groupoid])
    p.add_argument("--set", required=True, help="comma-separated element labels")
    p.add_argument("--kind", choices=("nbd", "cud", "pi"), default="nbd")
    p.add_argument("--mode", choices=("pointwise", "collection"), default=None,
                   help="kind cud only (default pointwise)")
    _add_common(p)
    p.set_defaults(fn=_cmd_approx)

    p = sub.add_parser("granules", help="list a granule family", parents=[groupoid])
    p.add_argument("family", choices=("cud", "subgroupoid"))
    _add_common(p)
    p.set_defaults(fn=_cmd_granules)

    p = sub.add_parser("groupoid", help="build a groupoid or check laws")
    gsub = p.add_subparsers(dest="sub", required=True)
    gb = gsub.add_parser("build", help="build from a relation", parents=[groupoid])
    _add_common(gb)
    gb.set_defaults(fn=_cmd_groupoid_build)
    gl = gsub.add_parser("laws", help="evaluate equational laws", parents=[groupoid])
    gl.add_argument("--laws", default=None, help="comma-separated law ids (default all)")
    _add_common(gl)
    gl.set_defaults(fn=_cmd_groupoid_laws)

    p = sub.add_parser("acp", help="pair-algebra operations")
    asub = p.add_subparsers(dest="sub", required=True)
    aa = asub.add_parser("audit", help="audit the pair-algebra laws", parents=[groupoid])
    aa.add_argument("--mode", choices=("formal", "realized"), default="formal")
    _add_common(aa, seed=True)
    aa.set_defaults(fn=_cmd_acp)

    p = sub.add_parser("regions", help="decision regions of a subset pair", parents=[groupoid])
    p.add_argument("--set", action="append", help="pass twice: first A, then B")
    # regions.REGION_KINDS, spelled out so that building the parser imports no domain module
    p.add_argument("--kind", choices=("n", "o1", "o2", "i1", "i2", "o"), default=None,
                   help="one kind only")
    _add_common(p)
    p.set_defaults(fn=_cmd_regions)

    p = sub.add_parser("cluster", help="rough clustering pipeline")
    csub = p.add_subparsers(dest="sub", required=True)
    for name in ("run", "validate", "score"):
        cp = csub.add_parser(name)
        cp.add_argument("--data", required=True, help="dataset CSV")
        cp.add_argument("--eps", type=float, required=True)
        cp.add_argument("--rho", choices=("l2", "linf"), default="l2")
        cp.add_argument("--strategy", default=None,
                        help="pi clustering only: min | max | seed:<n>")
        cp.add_argument("--table", default=None, help="pi clustering only: Cayley table CSV")
        cp.add_argument("--metric", choices=("nasd", "band_variance"), default="nasd")
        if name == "run":
            cp.add_argument("--kind", choices=("cud", "pi"), default="cud",
                            help="approximation flavor")
            cp.add_argument("--seeds", choices=("neighborhood", "granule"),
                            default="neighborhood")
            cp.add_argument("--fallback", choices=("error", "basic", "top"),
                            default="error",
                            help="what to do when the relation is not up-directed")
            cp.add_argument("--k", type=int, default=8, help="max clusters kept")
            cp.add_argument("--weights", default=None,
                            help="comma-separated band weights for selection")
            cp.add_argument("--segment", default=None,
                            help="write a row id -> cluster id CSV here")
        else:
            cp.add_argument("clusters", help="clusters JSON produced by cluster run")
        _add_common(cp)
        cp.set_defaults(fn=_cmd_cluster)

    p = sub.add_parser("fixture", help="golden fixture reports")
    fsub = p.add_subparsers(dest="sub", required=True)
    fs = fsub.add_parser("section6", help="recompute the bundled example and diff it")
    _add_common(fs)
    fs.set_defaults(fn=_cmd_fixture)

    p = sub.add_parser("audit", help="run the claim registry")
    ausub = p.add_subparsers(dest="sub", required=True)
    ac = ausub.add_parser("claims", parents=[rel])
    ac.add_argument("--table", default=None, help="Cayley table CSV")
    ac.add_argument("--tier", choices=("1", "2", "all"), default="all")
    ac.add_argument("--random", type=int, default=4,
                    help="number of extra random instances")
    _add_common(ac, seed=True)
    ac.set_defaults(fn=_cmd_audit)

    return ap


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a malformed DIROUGH_CAP is an error even where nothing is enumerated
        exhaustive_cap()
        return args.fn(args)
    except DiroughError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        _sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`... | head`): stop quietly, and point
        # stdout at devnull so that the flush at shutdown cannot fail again
        _os.dup2(_os.open(_os.devnull, _os.O_WRONLY), _sys.stdout.fileno())
        raise SystemExit(1)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
