"""Command-line surface.

Subcommands mirror the library: relation inspection, approximations,
granule listings, groupoid construction and law checks, the pair-algebra
audit, decision regions, the clustering pipeline, the bundled fixture
report, and the claim auditor. Exit codes: 0 success, 1 domain error,
2 usage error. All randomness flows through an explicit --seed, so equal
invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys

from . import audit as audit_mod
from . import cluster as cluster_mod
from .acp import audit_acp_laws
from .cud import approx_cud, cud_family
from .errors import DiroughError, InputFormatError
from .fixtures import build_section6_report, section6_groupoid, section6_system
from .grpd import (
    ALL_LAWS,
    ChoiceStrategy,
    Groupoid,
    build_updir_groupoid,
    dump_cayley,
    law_violation,
    load_cayley,
    subgroupoids,
)
from .piappr import approx_pi
from .regions import REGION_KINDS, region_table
from .relsys import (
    _CAP_OVERRIDE,
    RelationalSystem,
    approx_basic,
    classify,
    exhaustive_cap,
    load_relation,
    read_parsed,
)


def _parse_strategy(spec: str | None, pi: bool) -> ChoiceStrategy:
    if spec is None or spec == "min":
        return ChoiceStrategy.min_index(pi_constrained=pi)
    if spec == "max":
        return ChoiceStrategy.max_index(pi_constrained=pi)
    if spec.startswith("seed:"):
        try:
            return ChoiceStrategy.seeded(int(spec[5:]), pi_constrained=pi)
        except ValueError:
            raise InputFormatError(f"bad strategy seed in {spec!r}")
    if spec.startswith("table:"):
        return ChoiceStrategy.explicit(
            load_cayley(spec[6:]).table, pi_constrained=pi
        )
    raise InputFormatError(
        f"unknown strategy {spec!r}; expected min, max, seed:<n>, or table:<file>"
    )


def _load_sys(args) -> RelationalSystem:
    if getattr(args, "rel", None):
        return load_relation(args.rel)
    return section6_system()


def _load_groupoid(args, sys: RelationalSystem | None = None) -> Groupoid:
    if getattr(args, "table", None):
        return load_cayley(args.table)
    if getattr(args, "rel", None):
        sys = sys or _load_sys(args)
        return build_updir_groupoid(
            sys, _parse_strategy(getattr(args, "strategy", None), args.pi)
        )
    return section6_groupoid()


def _mask(holder, csv_labels: str) -> int:
    names = [t.strip() for t in csv_labels.split(",") if t.strip()]
    return holder.mask(names)


def _fmt_set(holder, mask: int) -> str:
    labs = holder.set_labels(mask)
    return "{" + ", ".join(labs) + "}"


def _emit(args, data: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(data, indent=2))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_relation(args) -> int:
    sys = load_relation(args.path) if args.path else _load_sys(args)
    profile = classify(sys).as_dict()
    data = {"labels": list(sys.labels), "profile": profile}
    lines = [f"universe: {', '.join(sys.labels)}"] + [
        f"{k}: {str(v).lower()}" for k, v in profile.items()
    ]
    _emit(args, data, lines)
    return 0


def _cmd_approx(args) -> int:
    sys = _load_sys(args)
    if args.kind == "nbd":
        A = _mask(sys, args.set)
        lo, up = approx_basic(sys, A, "l"), approx_basic(sys, A, "u")
        data = {
            "kind": "nbd",
            "set": list(sys.set_labels(A)),
            "lower": list(sys.set_labels(lo)),
            "upper": list(sys.set_labels(up)),
        }
        lines = [f"lower: {_fmt_set(sys, lo)}", f"upper: {_fmt_set(sys, up)}"]
    elif args.kind == "cud":
        A = _mask(sys, args.set)
        # Not packaged as a RoughTuple: the collection-mode upper may fail
        # to contain the lower, which that container rejects by design.
        lo = approx_cud(sys, A, "l", args.mode)
        up = approx_cud(sys, A, "u", args.mode)
        data = {
            "kind": "cud",
            "mode": args.mode,
            "set": list(sys.set_labels(A)),
            "lower": list(sys.set_labels(lo)),
            "upper": list(sys.set_labels(up)),
            "boundary": list(sys.set_labels(up & ~lo)),
        }
        lines = [
            f"lower: {_fmt_set(sys, lo)}",
            f"upper: {_fmt_set(sys, up)}",
            f"boundary: {_fmt_set(sys, up & ~lo)}",
        ]
    else:  # pi
        g = _load_groupoid(args, sys)
        A = _mask(g, args.set)
        lo = approx_pi(g, A, "l_pi")
        up = approx_pi(g, A, "u_pi")
        ua = approx_pi(g, A, "u_a")
        data = {
            "kind": "pi",
            "set": list(g.set_labels(A)),
            "lower": list(g.set_labels(lo)),
            "upper": list(g.set_labels(up)),
            "anti_upper": list(g.set_labels(ua)),
        }
        lines = [
            f"lower: {_fmt_set(g, lo)}",
            f"upper: {_fmt_set(g, up)}",
            f"anti-upper: {_fmt_set(g, ua)}",
        ]
    _emit(args, data, lines)
    return 0


def _cmd_granules(args) -> int:
    if args.family == "cud":
        sys = _load_sys(args)
        fam = cud_family(sys)
        holder = sys
    else:
        g = _load_groupoid(args)
        fam = subgroupoids(g)
        holder = g
    members = [list(holder.set_labels(m)) for m in fam.members]
    data = {"family": args.family, "count": len(members), "members": members}
    lines = [f"count: {len(members)}"] + [
        "{" + ", ".join(m) + "}" for m in members
    ]
    _emit(args, data, lines)
    return 0


def _cmd_groupoid_build(args) -> int:
    sys = _load_sys(args)
    g = build_updir_groupoid(sys, _parse_strategy(args.strategy, args.pi))
    if args.json:
        print(
            json.dumps(
                {
                    "labels": list(g.labels),
                    "table": [[g.labels[v] for v in row] for row in g.table],
                },
                indent=2,
            )
        )
    else:
        print(dump_cayley(g), end="")
    return 0


def _cmd_groupoid_laws(args) -> int:
    g = _load_groupoid(args)
    wanted = (
        tuple(t.strip() for t in args.laws.split(",") if t.strip())
        if args.laws
        else ALL_LAWS
    )
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
    g = _load_groupoid(args)
    report = audit_acp_laws(g, args.mode, seed=args.seed)
    data = report.as_dict()
    lines = [f"carrier: {report.mode}"]
    for v in report.verdicts:
        status = "holds" if v.holds else f"fails {v.witness}"
        lines.append(f"{v.law} (tier {v.tier}): {status}")
    _emit(args, data, lines)
    return 0


def _cmd_regions(args) -> int:
    sys = _load_sys(args)
    g = _load_groupoid(args, sys)
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


def _build_cluster_inputs(args):
    ds = cluster_mod.load_dataset(args.data)
    rho = {"l2": "euclidean", "linf": "chebyshev"}[args.rho]
    sys = cluster_mod.step1_relation(ds, rho, args.eps)
    return ds, sys


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


def _load_cluster_set(
    path: str, sys: RelationalSystem, g, flavor_flag: str
) -> cluster_mod.ClusterSet:
    def parse(text: str) -> tuple[str, RelationalSystem, list[int]]:
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"not valid JSON: {exc}")
        if isinstance(raw, dict) and "clusters" not in raw:
            # composite output of `cluster run --json`
            raw = raw.get("selected") or raw.get("proposed") or {}
        if not isinstance(raw, dict) or not isinstance(raw.get("clusters"), list):
            raise InputFormatError("no cluster list found")
        supports = []
        for c in raw["clusters"]:
            labels = c.get("support") if isinstance(c, dict) else None
            if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
                raise InputFormatError("a cluster has no support label list")
            supports.append(labels)
        # written by `cluster run --fallback top`, over the augmented system
        top = any(cluster_mod.TOP_LABEL in labels for labels in supports)
        over = cluster_mod._augment_with_top(sys) if top else sys
        flavor = raw.get("flavor", flavor_flag)
        return flavor, over, [over.mask(labels) for labels in supports]

    flavor, sys, supports = read_parsed(path, parse)
    clusters = []
    for support in supports:
        t = cluster_mod.rough_tuple_for(sys, g, support, flavor)
        clusters.append(cluster_mod.RoughCluster(support, t))
    return cluster_mod.ClusterSet(tuple(clusters), flavor, sys, g)


def _cmd_cluster(args) -> int:
    ds, sys = _build_cluster_inputs(args)
    g = None
    if args.kind == "pi":
        g = build_updir_groupoid(sys, _parse_strategy(args.strategy, True))
    if args.sub == "run":
        cs = cluster_mod.propose_clusters(sys, g, args.kind, args.seeds, args.fallback)
        # cs.sys is the step-1 system, or its augmentation under --fallback top
        report = cluster_mod.validate_clustering(cs.sys, g, cs, cs.flavor)
        scored = cluster_mod.score_clusters(ds, cs, args.metric)
        weights = _parse_weights(args.weights) if args.weights else None
        chosen = cluster_mod.select_clusters(scored, weights, args.k)
        final_report = cluster_mod.validate_clustering(chosen.sys, g, chosen, chosen.flavor)
        if args.segment:
            with open(args.segment, "w", encoding="utf-8") as fh:
                fh.write(cluster_mod.segmentation_csv(chosen))
        data = {
            "proposed": _cluster_set_dict(cs),
            "validity": report.as_dict(),
            "scores": scored.as_dict(),
            "selected": _cluster_set_dict(chosen),
            "selected_validity": final_report.as_dict(),
        }
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
        _emit(args, data, lines)
        return 0
    cs = _load_cluster_set(args.clusters, sys, g, args.kind)
    if args.sub == "validate":
        report = cluster_mod.validate_clustering(cs.sys, g, cs, cs.flavor)
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
    _emit(args, scored.as_dict(), lines)
    return 0


def _cmd_fixture(args) -> int:
    report = build_section6_report()
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"universe: {', '.join(report['labels'])}")
        print("table1 (upper bounds):")
        for pair, labs in report["table1"].items():
            print(f"  U({pair}) = {{{', '.join(labs)}}}")
        print("table3 (neighborhoods):")
        for x, labs in report["table3"].items():
            print(f"  [{x}] = {{{', '.join(labs)}}}")
        print(f"granules: {len(report['granules'])} nonempty members")
        print(f"subgroupoids: {len(report['su'])} members")
        print("values:")
        for key, labs in report["values"].items():
            print(f"  {key} = {{{', '.join(labs)}}}")
        print("deviations from the printed tables:")
        for d in report["diffs"]:
            tag = d["erratum"] or "UNDOCUMENTED"
            print(f"  [{tag}] {d['where']}: printed {d['printed']} computed {d['computed']}")
        print(f"exact after errata: {str(report['exact_after_errata']).lower()}")
    return 0 if report["exact_after_errata"] else 1


def _cmd_audit(args) -> int:
    sys = load_relation(args.rel) if args.rel else None
    g = load_cayley(args.table) if args.table else None
    report = audit_mod.audit_claims(
        sys, g, tier=args.tier, random_instances=args.random, seed=args.seed
    )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        for r in report.results:
            line = f"{r.claim} (tier {r.tier}) on {r.instance}: {r.status}"
            if r.status == "fail":
                line += f" witness {r.witness}"
            print(line)
        print(
            f"tier-1 failures: {len(report.tier1_failures)}; "
            f"deviations: {len(report.deviations)}"
        )
    return 1 if report.tier1_failures else 0


# ---------------------------------------------------------------------------
# Parser


def _add_common(p, *, cap=True, seed=False):
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    if cap:
        p.add_argument("--cap", type=int, default=None,
                       help="exhaustive enumeration cap (default 16 or DIROUGH_CAP)")
    if seed:
        p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dirough",
        description="finite engine for directed rough sets and their groupoids",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("relation", help="inspect a relation file")
    rsub = p.add_subparsers(dest="sub", required=True)
    rc = rsub.add_parser("check", help="classify relation properties")
    rc.add_argument("path", nargs="?", default=None, help="relation file")
    rc.add_argument("--rel", default=None, help="relation file (alternative spelling)")
    _add_common(rc, cap=False)
    rc.set_defaults(fn=_cmd_relation)

    p = sub.add_parser("approx", help="approximate a subset")
    p.add_argument("--rel", default=None, help="relation file (default: bundled fixture)")
    p.add_argument("--table", default=None, help="Cayley table CSV for kind pi")
    p.add_argument("--set", required=True, help="comma-separated element labels")
    p.add_argument("--kind", choices=("nbd", "cud", "pi"), default="nbd")
    p.add_argument("--mode", choices=("pointwise", "collection"), default="pointwise")
    p.add_argument("--strategy", default=None, help="min | max | seed:<n> | table:<file>")
    p.add_argument("--pi", action="store_true", help="constrain strategy choices to pseudo joins")
    _add_common(p)
    p.set_defaults(fn=_cmd_approx)

    p = sub.add_parser("granules", help="list a granule family")
    p.add_argument("family", choices=("cud", "subgroupoid"))
    p.add_argument("--rel", default=None)
    p.add_argument("--table", default=None)
    p.add_argument("--strategy", default=None)
    p.add_argument("--pi", action="store_true")
    _add_common(p)
    p.set_defaults(fn=_cmd_granules)

    p = sub.add_parser("groupoid", help="build a groupoid or check laws")
    gsub = p.add_subparsers(dest="sub", required=True)
    gb = gsub.add_parser("build", help="build from a relation")
    gb.add_argument("--rel", default=None)
    gb.add_argument("--strategy", default=None)
    gb.add_argument("--pi", action="store_true")
    _add_common(gb, cap=False)
    gb.set_defaults(fn=_cmd_groupoid_build)
    gl = gsub.add_parser("laws", help="evaluate equational laws")
    gl.add_argument("--table", default=None)
    gl.add_argument("--rel", default=None)
    gl.add_argument("--strategy", default=None)
    gl.add_argument("--pi", action="store_true")
    gl.add_argument("--laws", default=None, help="comma-separated law ids (default all)")
    _add_common(gl, cap=False)
    gl.set_defaults(fn=_cmd_groupoid_laws)

    p = sub.add_parser("acp", help="pair-algebra operations")
    asub = p.add_subparsers(dest="sub", required=True)
    aa = asub.add_parser("audit", help="audit the pair-algebra laws")
    aa.add_argument("--table", default=None)
    aa.add_argument("--rel", default=None)
    aa.add_argument("--strategy", default=None)
    aa.add_argument("--pi", action="store_true")
    aa.add_argument("--mode", choices=("formal", "realized"), default="formal")
    _add_common(aa, seed=True)
    aa.set_defaults(fn=_cmd_acp)

    p = sub.add_parser("regions", help="decision regions of a subset pair")
    p.add_argument("--rel", default=None)
    p.add_argument("--table", default=None)
    p.add_argument("--strategy", default=None)
    p.add_argument("--pi", action="store_true")
    p.add_argument("--set", action="append", help="pass twice: first A, then B")
    p.add_argument("--kind", choices=REGION_KINDS, default=None, help="one kind only")
    _add_common(p)
    p.set_defaults(fn=_cmd_regions)

    p = sub.add_parser("cluster", help="rough clustering pipeline")
    csub = p.add_subparsers(dest="sub", required=True)
    for name in ("run", "validate", "score"):
        cp = csub.add_parser(name)
        cp.add_argument("--data", required=True, help="dataset CSV")
        cp.add_argument("--eps", type=float, required=True)
        cp.add_argument("--rho", choices=("l2", "linf"), default="l2")
        cp.add_argument("--kind", choices=("cud", "pi"), default="cud",
                        help="approximation flavor")
        cp.add_argument("--strategy", default=None)
        cp.add_argument("--metric", choices=("nasd", "band_variance"), default="nasd")
        if name == "run":
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
    ac = ausub.add_parser("claims")
    ac.add_argument("--rel", default=None)
    ac.add_argument("--table", default=None)
    ac.add_argument("--tier", choices=("1", "2", "all"), default="all")
    ac.add_argument("--random", type=int, default=4,
                    help="number of extra random instances")
    _add_common(ac, seed=True)
    ac.set_defaults(fn=_cmd_audit)

    return ap


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # --cap holds for this command only; without it DIROUGH_CAP applies
    token = _CAP_OVERRIDE.set(getattr(args, "cap", None))
    try:
        if hasattr(args, "cap"):
            exhaustive_cap()
        return args.fn(args)
    except DiroughError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    finally:
        _CAP_OVERRIDE.reset(token)


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
