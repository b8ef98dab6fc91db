"""Embedded golden fixtures.

The section6 fixture is a five-element up-directed system together with a
published companion groupoid, neighborhood table, upper-bound table,
granule list, subgroupoid list, and a batch of approximation values. A few
of the published cells are wrong; each known deviation is recorded as an
erratum carrying the printed value, the recomputed oracle value, and the
computation that forces it. The report builder recomputes everything and
diffs it against the printed data; a diff that is not a known erratum
means the build is broken (or the fixture drifted) and fails the report.

The section3 fixture is the five-element system used for pseudo-join
examples. Its source listing carries one extra triple (151) whose
reflexive edge at 1 would grow the bound set of the pair (1, 2) to
{1,3,4,5}; this fixture pins the repaired variant where that set is
exactly {3,4,5}.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .relsys import (
    RelationalSystem,
    basic_bounds,
    build_relation,
    classify,
    neighborhood,
)

# cud, grpd and piappr are imported by the functions that call them, so a
# command that reads only the bundled system does not compile them
if TYPE_CHECKING:
    from .grpd import Groupoid

SECTION6_LABELS = ("a", "b", "c", "e", "f")

SECTION6_PAIRS = (
    ("a", "c"), ("b", "c"), ("c", "c"), ("a", "f"), ("f", "f"),
    ("b", "f"), ("e", "f"), ("c", "a"), ("c", "b"), ("e", "b"),
    ("c", "f"), ("e", "a"), ("f", "a"), ("f", "b"),
)

# row label times column label, columns in SECTION6_LABELS order
SECTION6_CAYLEY = (
    ("c", "f", "c", "f", "f"),
    ("f", "f", "c", "f", "f"),
    ("a", "b", "c", "a", "f"),
    ("a", "b", "a", "b", "f"),
    ("a", "b", "f", "a", "f"),
)

# upper-bound table as printed, keyed by unordered pair (upper triangle)
PRINTED_TABLE1 = {
    ("a", "a"): ("c", "f"), ("a", "b"): ("c", "f"), ("a", "c"): ("c", "f"),
    ("a", "e"): ("f",), ("a", "f"): ("f",),
    ("b", "b"): ("c", "f"), ("b", "c"): ("c",), ("b", "e"): ("f",),
    ("b", "f"): ("f",),
    ("c", "c"): ("a", "b", "c", "f"), ("c", "e"): ("a", "f"),
    ("c", "f"): ("a", "b", "f"),
    ("e", "e"): ("a", "b", "f"), ("e", "f"): ("a", "b", "f"),
    ("f", "f"): ("a", "b", "f"),
}

# neighborhood granules as printed
PRINTED_TABLE3 = {
    "a": ("e", "f"),
    "b": ("c", "e", "f"),
    "c": ("a", "b", "c"),
    "e": (),
    "f": ("a", "b", "c", "e", "f"),
}

# the printed granule list omits the empty set; comparisons ignore it
PRINTED_GRANULES = (
    ("c",), ("f",), ("a", "c"), ("b", "c"), ("c", "f"), ("b", "f"),
    ("e", "f"), ("a", "f"), ("a", "c", "f"), ("b", "c", "f"),
    ("c", "e", "f"), ("b", "e", "f"), ("a", "e", "f"), ("a", "b", "f"),
    ("a", "b", "c"), ("a", "b", "c", "f"), ("a", "b", "e", "f"),
    ("a", "c", "e", "f"), ("b", "c", "e", "f"), ("a", "b", "c", "e", "f"),
)

PRINTED_SU = (
    (), ("c",), ("f",), ("a", "c"), ("b", "f"), ("c", "f"),
    ("b", "e", "f"), ("a", "c", "f"), ("b", "c", "f"),
    ("a", "b", "c", "f"), ("a", "b", "c", "e", "f"),
)

SET_A = ("b", "c", "e")
SET_B = ("b",)

PRINTED_VALUES = {
    "A.l": (), "A.u": ("a", "b", "c", "e", "f"),
    "A.l_cd": ("b", "c"), "A.u_cd": ("b", "c", "e", "f"),
    "A.l_pi": ("c",), "A.u_pi": ("a", "b", "c", "e", "f"),
    "A.u_a": ("a", "b", "c", "e", "f"),
    "B.l_pi": (), "B.u_pi": ("b", "c", "f"),
    # printed twice with conflicting values; both recorded
    "B.u_a": (("b", "c", "f"), ()),
}


class Erratum(NamedTuple):
    id: str
    location: str
    printed: str
    oracle: str
    forcing: str

    def as_dict(self) -> dict:
        return self._asdict()


ERRATA = (
    Erratum(
        "table1-bc",
        "table1 cells (b,c) and (c,b)",
        "{c}",
        "{c, f}",
        "succ(b) = {c, f} and succ(c) = {a, b, c, f}; their intersection is {c, f}",
    ),
    Erratum(
        "table1-ce",
        "table1 cells (c,e) and (e,c)",
        "{a, f}",
        "{a, b, f}",
        "succ(c) = {a, b, c, f} and succ(e) = {a, b, f}; their intersection is {a, b, f}",
    ),
    Erratum(
        "table3-a",
        "table3 entry [a]",
        "{e, f}",
        "{c, e, f}",
        "predecessors of a: Rca, Rea, Rfa all hold, so [a] = {c, e, f}",
    ),
    Erratum(
        "su-efb",
        "subgroupoid list member {e, f, b}",
        "{b, e, f} listed as closed",
        "not closed",
        "f.e = a lies outside {b, e, f}, so the set is not product-closed",
    ),
    Erratum(
        "value-B-upi",
        "value B.u_pi",
        "{b, c, f}",
        "{b, f}",
        "b.b = f and {b, f} is product-closed, so Sg({b}) = {b, f}",
    ),
    Erratum(
        "value-B-ua",
        "value B.u_a (printed twice, conflictingly)",
        "{b, c, f} and {}",
        "{b, f}",
        "closed proper supersets of {b} are {b,f}, {b,c,f}, {a,b,c,f}, S; "
        "the inclusion-minimal one is {b, f}",
    ),
)

SECTION3_LABELS = ("1", "2", "3", "4", "5")

# triple "abc" contributes the pairs (a,c) and (b,c)
SECTION3_TRIPLES = (
    "114", "225", "332", "444", "552", "123", "234", "341", "451",
    "134", "242", "354", "145", "251",
)


def section6_system() -> RelationalSystem:
    return build_relation(SECTION6_LABELS, SECTION6_PAIRS)


def section6_groupoid() -> Groupoid:
    from .grpd import Groupoid

    g = Groupoid(
        SECTION6_LABELS,
        tuple(
            tuple(SECTION6_LABELS.index(v) for v in row) for row in SECTION6_CAYLEY
        ),
    )
    return g


def section3_system() -> RelationalSystem:
    pairs = []
    for t in SECTION3_TRIPLES:
        a, b, c = t
        pairs.append((a, c))
        pairs.append((b, c))
    return build_relation(SECTION3_LABELS, pairs)


def build_section6_report() -> dict:
    """Recompute every fixture artifact and diff it against the printed data.

    Every diff must be covered by a known erratum; the report is exact when
    the observed diff ids equal the expected ones and each erratum's stored
    oracle value matches the recomputation.
    """
    from .cud import cud_bounds, cud_family
    from .grpd import subgroupoids, verify_b_of_s
    from .piappr import approx_pi

    sys = section6_system()
    g = section6_groupoid()
    diffs: list[dict] = []

    def diff(erratum_id: str | None, where: str, printed, computed):
        diffs.append(
            {
                "erratum": erratum_id,
                "where": where,
                "printed": printed,
                "computed": computed,
            }
        )

    # table1: upper bounds per unordered pair
    table1 = {}
    for (x, y), printed in sorted(PRINTED_TABLE1.items()):
        U = sys.succ[sys.id(x)] & sys.succ[sys.id(y)]
        got = sys.set_labels(U)
        table1[f"{x},{y}"] = list(got)
        if got != printed:
            known = {("b", "c"): "table1-bc", ("c", "e"): "table1-ce"}.get((x, y))
            diff(known, f"table1 ({x},{y})", list(printed), list(got))

    # table3: direct neighborhoods
    table3 = {}
    for x, printed in sorted(PRINTED_TABLE3.items()):
        got = sys.set_labels(neighborhood(sys, sys.id(x), "direct"))
        table3[x] = list(got)
        if got != printed:
            known = "table3-a" if x == "a" else None
            diff(known, f"table3 [{x}]", list(printed), list(got))

    # granule family; the printed list omits the empty set
    fam = cud_family(sys)
    computed_granules = [sys.set_labels(m) for m in fam.members if m]
    printed_granules = sorted(
        (tuple(sorted(t)) for t in PRINTED_GRANULES), key=lambda t: (len(t), t)
    )
    got_granules = sorted(computed_granules, key=lambda t: (len(t), t))
    if got_granules != list(printed_granules):
        extra = [list(t) for t in got_granules if t not in printed_granules]
        missing = [list(t) for t in printed_granules if t not in got_granules]
        diff(None, "granules", {"missing": missing}, {"extra": extra})

    # subgroupoid list
    su = subgroupoids(g)
    computed_su = sorted(
        (g.set_labels(m) for m in su.members), key=lambda t: (len(t), t)
    )
    printed_su = sorted(
        (tuple(sorted(t)) for t in PRINTED_SU), key=lambda t: (len(t), t)
    )
    for t in printed_su:
        if t not in computed_su:
            known = "su-efb" if t == ("b", "e", "f") else None
            diff(known, "su member", list(t), "not closed")
    for t in computed_su:
        if t not in printed_su:
            diff(None, "su member missing from printed list", None, list(t))

    # approximation values for the two featured subsets
    A = sys.mask(SET_A)
    B = sys.mask(SET_B)
    (A_l, A_u), (A_lcd, A_ucd) = basic_bounds(sys, A), cud_bounds(sys, A)
    values = {
        "A.l": A_l,
        "A.u": A_u,
        "A.l_cd": A_lcd,
        "A.u_cd": A_ucd,
        "A.l_pi": approx_pi(g, A, "l_pi"),
        "A.u_pi": approx_pi(g, A, "u_pi"),
        "A.u_a": approx_pi(g, A, "u_a"),
        "B.l_pi": approx_pi(g, B, "l_pi"),
        "B.u_pi": approx_pi(g, B, "u_pi"),
        "B.u_a": approx_pi(g, B, "u_a"),
    }
    computed_values = {k: list(sys.set_labels(v)) for k, v in values.items()}
    for key, printed in PRINTED_VALUES.items():
        got = tuple(computed_values[key])
        if key == "B.u_a":
            # printed twice with conflicting values, so this is always a
            # deviation no matter what the oracle says
            diff("value-B-ua", f"value {key}", [list(p) for p in printed], list(got))
            continue
        if got != printed:
            known = "value-B-upi" if key == "B.u_pi" else None
            diff(known, f"value {key}", list(printed), list(got))

    # exact: the diffs carry every erratum and nothing else, and each diff
    # recomputes to its erratum's stored oracle value
    def shown(computed) -> str:
        return computed if isinstance(computed, str) else "{" + ", ".join(computed) + "}"

    oracles = {e.id: e.oracle for e in ERRATA}
    exact = {d["erratum"] for d in diffs} == set(oracles) and all(
        oracles[d["erratum"]] == shown(d["computed"]) for d in diffs
    )

    return {
        "labels": list(SECTION6_LABELS),
        "pairs": [list(p) for p in SECTION6_PAIRS],
        "profile": classify(sys).as_dict(),
        "groupoid_consistent": verify_b_of_s(sys, g),
        "table1": table1,
        "table3": table3,
        "granules": [list(t) for t in got_granules],
        "su": [list(t) for t in computed_su],
        "values": computed_values,
        "diffs": diffs,
        "errata": [e.as_dict() for e in ERRATA],
        "exact_after_errata": exact,
    }
