"""The algebra of closed-set pairs.

Carrier elements are pairs of subgroupoids ordered by componentwise
inclusion. Join closes the componentwise union, meet pairs the largest
closed-union inside the intersection with the plain intersection, negation
closes the complements crosswise, and the coproduct re-closes components
(the identity on valid elements). The audit checks the lattice laws plus
the four operator laws, each tagged by tier.

The public operations validate their operands and then run the operations
proper (_PairOps), which read Sg per call and list no family. The audit
checks each carrier element once and runs the same operations over the
subgroupoid family's tables, which cover all 2^n subsets.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Iterator, NamedTuple

from ._bits import assignments, is_subset, mix
from .errors import LawError, StructureError
from .grpd import Groupoid, generate, is_closed, subgroupoids
from .relsys import require_cap

CARRIER_MODES = ("formal", "realized")

# the audited laws in report order with their tiers (1 hard, 2 audited only);
# realized-closure is checked on the realized carrier only
ACP_LAW_TIERS = {"A1": 1, "A2": 2, "A3": 1, "A4": 1, "A5": 1, "A6": 2,
                 "well-defined": 1, "realized-closure": 2}


class AcpElement(NamedTuple):
    """Pair of element-sets; valid when both closed and first ⊆ second."""

    first: int
    second: int

    def as_labels(self, g: Groupoid) -> dict[str, list[str]]:
        return {
            "first": list(g.set_labels(self.first)),
            "second": list(g.set_labels(self.second)),
        }


def bottom(g: Groupoid) -> AcpElement:
    return AcpElement(0, 0)


def top(g: Groupoid) -> AcpElement:
    return AcpElement(g.full_mask, g.full_mask)


class _PairOps:
    """The pair operations of g, written over two maps of subsets: sg, the
    least closed superset, and flat, the union of the closed sets inside a
    set. Per call by default, so one operation on any groupoid costs a few
    closures and lists no family (flat is approx_pi's l_pi); with tables,
    both maps and the closedness test read the subgroupoid family's tables
    over all 2^n subsets, which the audit builds once."""

    def __init__(self, g: Groupoid, tables: bool = False):
        self.full = g.full_mask
        if tables:
            fam = subgroupoids(g)
            self.sg, self.flat = fam.least.__getitem__, fam.within.__getitem__
            self.closed = fam.__contains__
        else:
            from .piappr import approx_pi

            self.sg, self.closed = partial(generate, g), partial(is_closed, g)
            self.flat = partial(approx_pi, g, op="l_pi")

    def fault(self, x: AcpElement) -> str | None:
        """Why x is not a valid pair, or None."""
        if (x.first | x.second) & ~self.full:
            return "pair components must be subsets of the universe"
        if not is_subset(x.first, x.second):
            return "pair is not inclusion-ordered"
        if not (self.closed(x.first) and self.closed(x.second)):
            return "pair components must be closed under the product"
        return None

    def op(self, x: AcpElement, y: AcpElement, op: str) -> AcpElement:
        sg = self.sg
        if op == "join":
            return AcpElement(sg(x.first | y.first), sg(x.second | y.second))
        if op == "meet":
            # the flat of the intersection equals x.first & y.first on valid
            # pairs, since intersections of closed sets are closed
            return AcpElement(sg(self.flat(x.first & y.first)), x.second & y.second)
        raise LawError(f"unknown pair operation {op!r}")

    def neg(self, x: AcpElement) -> AcpElement:
        # each component closes the flat of the other's complement: the
        # union of the closed sets avoiding it entirely
        sg, flat = self.sg, self.flat
        return AcpElement(sg(flat(self.full & ~x.second)), sg(flat(self.full & ~x.first)))

    def coprod(self, x: AcpElement) -> AcpElement:
        return AcpElement(self.sg(x.first), self.sg(x.second))


def validate_element(g: Groupoid, x: AcpElement) -> None:
    if (fault := _PairOps(g).fault(x)) is not None:
        raise StructureError(fault)


def acp_carrier(g: Groupoid, mode: str = "formal") -> tuple[AcpElement, ...]:
    """formal: all inclusion-ordered pairs of subgroupoids.

    realized: the pairs (Sg(lower), upper) actually reached by approximating
    some subset, read from the subgroupoid family's tables. Realized is
    always inside formal; the converse fails. Both come ordered by each
    component's position in the subgroupoid family, which is smallest
    first, then by id tuple.
    """
    if mode not in CARRIER_MODES:
        raise LawError(f"unknown carrier mode {mode!r}")
    fam = subgroupoids(g)
    if mode == "formal":
        return tuple(AcpElement(X, Y) for X in fam for Y in fam if is_subset(X, Y))
    require_cap(g.n, "realized carrier enumeration")
    sg, flat = fam.least, fam.within
    pairs = {(sg[flat[A]], sg[A]) for A in range(g.full_mask + 1)}
    rank = {m: i for i, m in enumerate(fam.members)}
    order = sorted(pairs, key=lambda p: (rank[p[0]], rank[p[1]]))
    return tuple(AcpElement(X, Y) for X, Y in order)


def acp_op(g: Groupoid, x: AcpElement, y: AcpElement, op: str) -> AcpElement:
    validate_element(g, x)
    validate_element(g, y)
    return _PairOps(g).op(x, y, op)


def acp_neg(g: Groupoid, x: AcpElement) -> AcpElement:
    validate_element(g, x)
    return _PairOps(g).neg(x)


def acp_coprod(g: Groupoid, x: AcpElement) -> AcpElement:
    validate_element(g, x)
    return _PairOps(g).coprod(x)


def acp_leq(x: AcpElement, y: AcpElement) -> bool:
    return is_subset(x.first, y.first) and is_subset(x.second, y.second)


# ---------------------------------------------------------------------------
# Law audit


class LawVerdict(NamedTuple):
    law: str
    tier: int
    holds: bool
    witness: dict | None = None


class LawAuditReport(NamedTuple):
    mode: str
    verdicts: tuple[LawVerdict, ...]

    def as_dict(self) -> dict:
        return {"mode": self.mode, "laws": [v._asdict() for v in self.verdicts]}


def audit_acp_laws(
    g: Groupoid,
    mode: str = "formal",
    seed: int = 0,
    pair_limit: int = 4096,
) -> LawAuditReport:
    """Check A1 through A6 over the chosen carrier.

    A1 (algebraic lattice), A3 (monotone coproduct), A4 (inflationary
    coproduct), and A5 (antitone negation) are hard expectations. A2
    (double-negation introduction) and A6 (its collapse with the coproduct)
    are audit-only: failures are reported with witnesses, not raised.
    In realized mode an extra audit notes whether the operations stay
    inside the realized carrier.
    """
    if pair_limit < 1:
        raise LawError(f"the pair limit must be at least 1, got {pair_limit}")
    carrier = acp_carrier(g, mode)
    ops = _PairOps(g, tables=True)
    for x in carrier:
        if (fault := ops.fault(x)) is not None:
            raise StructureError(fault)
    formal = set(carrier if mode == "formal" else acp_carrier(g, "formal"))
    inside = set(carrier)

    def labels(x: AcpElement) -> dict:
        return x.as_labels(g)

    def pairs(stream: int) -> Iterable[tuple[AcpElement, AcpElement]]:
        """Every pair of the carrier, or a sample seeded by stream; Sg(X) is the
        least closed superset of X, so join and meet are the lattice bounds
        and sampling only widens coverage."""
        s = mix(seed, stream)
        return assignments((carrier, carrier), pair_limit,
                           lambda: lambda t: (mix(s, 2 * t), mix(s, 2 * t + 1)))

    op, neg, coprod = ops.op, ops.neg, ops.coprod

    def lattice_faults(x: AcpElement, y: AcpElement) -> Iterator[str]:
        """The A1 checks that (x, y) fails, in order."""
        j = op(x, y, "join")
        m = op(x, y, "meet")
        checks = (
            ("join-closure", j in formal),
            ("meet-closure", m in formal),
            ("join-upper", acp_leq(x, j) and acp_leq(y, j)),
            ("meet-lower", acp_leq(m, x) and acp_leq(m, y)),
            ("join-comm", j == op(y, x, "join")),
            ("meet-comm", m == op(y, x, "meet")),
            ("absorb-jm", op(x, m, "join") == x),
            ("absorb-mj", op(x, j, "meet") == x),
            ("bottom-le", acp_leq(bottom(g), x)),
            ("top-ge", acp_leq(x, top(g))),
        )
        return (name for name, ok in checks if not ok)

    def invalid_results(x: AcpElement, y: AcpElement) -> Iterator[str]:
        """The faults of the results on (x, y) that are no valid pairs."""
        results = (op(x, y, "join"), op(x, y, "meet"), neg(x), coprod(x))
        return (f for f in map(ops.fault, results) if f is not None)

    def escapes(x: AcpElement, y: AcpElement) -> Iterator[dict]:
        """The operations on (x, y) whose result leaves the carrier."""
        for name in ("join", "meet"):
            if op(x, y, name) not in inside:
                yield {"op": name, "x": labels(x), "y": labels(y)}
        if neg(x) not in inside:
            yield {"op": "neg", "x": labels(x)}

    # each law is one row: a lazy search whose first hit is the witness
    rows = [
        ("A1", (
            {"check": c, "x": labels(x), "y": labels(y)}
            for x, y in pairs(1) for c in lattice_faults(x, y)
        )),
        # A2: x ⊴ ¬¬x
        ("A2", ({"x": labels(x)} for x in carrier if not acp_leq(x, neg(neg(x))))),
        # A3: x ⊴ y implies ∐x ⊴ ∐y
        ("A3", (
            {"x": labels(x), "y": labels(y)} for x, y in pairs(3)
            if acp_leq(x, y) and not acp_leq(coprod(x), coprod(y))
        )),
        # A4: x ⊴ ∐x
        ("A4", ({"x": labels(x)} for x in carrier if not acp_leq(x, coprod(x)))),
        # A5: x ⊴ y implies ¬y ⊴ ¬x
        ("A5", (
            {"x": labels(x), "y": labels(y)} for x, y in pairs(5)
            if acp_leq(x, y) and not acp_leq(neg(y), neg(x))
        )),
        # A6: ¬∐¬x ⊴ ∐x
        ("A6", (
            {"x": labels(x)} for x in carrier
            if not acp_leq(neg(coprod(neg(x))), coprod(x))
        )),
        ("well-defined", (
            {"x": labels(x), "y": labels(y), "error": e}
            for x, y in pairs(7) for e in invalid_results(x, y)
        )),
    ]
    if mode == "realized":
        rows.append(("realized-closure", (
            w for x, y in pairs(9) for w in escapes(x, y)
        )))
    verdicts = []
    for law, failures in rows:
        w = next(failures, None)
        verdicts.append(LawVerdict(law, ACP_LAW_TIERS[law], w is None, w))
    return LawAuditReport(mode, tuple(verdicts))
