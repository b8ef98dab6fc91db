"""The algebra of closed-set pairs.

Carrier elements are pairs of subgroupoids ordered by componentwise
inclusion. Join closes the componentwise union, meet pairs the largest
closed-union inside the intersection with the plain intersection, negation
closes the complements crosswise, and the coproduct re-closes components
(the identity on valid elements). The audit checks the lattice laws plus
the four operator laws, each tagged by tier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from ._bits import is_subset, lex_key, mix, popcount, subsets_of
from .errors import StructureError
from .grpd import Groupoid, generate, is_closed, subgroupoids
from .relsys import require_cap

CARRIER_MODES = ("formal", "realized")


@dataclass(frozen=True)
class AcpElement:
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


def validate_element(g: Groupoid, x: AcpElement) -> None:
    if x.first & ~g.full_mask or x.second & ~g.full_mask:
        raise StructureError("pair components must be subsets of the universe")
    if not is_subset(x.first, x.second):
        raise StructureError("pair is not inclusion-ordered")
    if not is_closed(g, x.first) or not is_closed(g, x.second):
        raise StructureError("pair components must be closed under the product")


def acp_carrier(g: Groupoid, mode: str = "formal") -> tuple[AcpElement, ...]:
    """formal: all inclusion-ordered pairs of subgroupoids.

    realized: the pairs (Sg(lower), upper) actually reached by approximating
    some subset. Realized is always inside formal; the converse fails.
    """
    if mode not in CARRIER_MODES:
        raise StructureError(f"unknown carrier mode {mode!r}")
    fam = subgroupoids(g)
    if mode == "formal":
        pairs = {
            AcpElement(X, Y)
            for X in fam.members
            for Y in fam.members
            if is_subset(X, Y)
        }
    else:
        require_cap(g.n, "realized carrier enumeration")
        pairs = set()
        for A in subsets_of(g.full_mask):
            lower = fam.union_within(A)
            pairs.add(AcpElement(generate(g, lower), generate(g, A)))
    return tuple(
        sorted(
            pairs,
            key=lambda x: (
                popcount(x.first),
                lex_key(x.first),
                popcount(x.second),
                lex_key(x.second),
            ),
        )
    )


def _star(g: Groupoid, X: int, Y: int) -> int:
    # union of the closed sets inside the intersection; equals X & Y when
    # both operands are closed, since intersections of closed sets are closed
    return subgroupoids(g).union_within(X & Y)


def acp_op(g: Groupoid, x: AcpElement, y: AcpElement, op: str) -> AcpElement:
    validate_element(g, x)
    validate_element(g, y)
    if op == "join":
        return AcpElement(
            generate(g, x.first | y.first), generate(g, x.second | y.second)
        )
    if op == "meet":
        return AcpElement(
            generate(g, _star(g, x.first, y.first)), x.second & y.second
        )
    raise StructureError(f"unknown pair operation {op!r}")


def _flat(g: Groupoid, A: int) -> int:
    """Union of the closed sets avoiding A entirely."""
    return subgroupoids(g).union_within(g.full_mask & ~A)


def acp_neg(g: Groupoid, x: AcpElement) -> AcpElement:
    validate_element(g, x)
    return AcpElement(
        generate(g, _flat(g, x.second)), generate(g, _flat(g, x.first))
    )


def acp_coprod(g: Groupoid, x: AcpElement) -> AcpElement:
    validate_element(g, x)
    return AcpElement(generate(g, x.first), generate(g, x.second))


def acp_leq(x: AcpElement, y: AcpElement) -> bool:
    return is_subset(x.first, y.first) and is_subset(x.second, y.second)


# ---------------------------------------------------------------------------
# Law audit


@dataclass(frozen=True)
class LawVerdict:
    law: str
    tier: int
    holds: bool
    witness: dict | None = None


@dataclass(frozen=True)
class LawAuditReport:
    mode: str
    verdicts: tuple[LawVerdict, ...]

    @property
    def failing(self) -> tuple[LawVerdict, ...]:
        return tuple(v for v in self.verdicts if not v.holds)

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "laws": [
                {
                    "law": v.law,
                    "tier": v.tier,
                    "holds": v.holds,
                    "witness": v.witness,
                }
                for v in self.verdicts
            ],
        }


def _pairs_to_check(
    carrier: tuple[AcpElement, ...], seed: int, limit: int
) -> Iterable[tuple[AcpElement, AcpElement]]:
    m = len(carrier)
    if m * m <= limit:
        for x in carrier:
            for y in carrier:
                yield x, y
        return
    # deterministic sample, seeded; the structural lemma carries the
    # order-theoretic part exhaustively, so sampling only widens coverage
    for k in range(limit):
        i = mix(seed, 2 * k) % m
        j = mix(seed, 2 * k + 1) % m
        yield carrier[i], carrier[j]


def _sg_minimality_failure(g: Groupoid) -> dict | None:
    """Confirm Sg(X) is the least closed superset of X, for every X.

    This is the lemma that lets the lattice bounds be checked without
    enumerating all carrier triples: once Sg(X) = ∩{H closed : X ⊆ H},
    join is the least upper bound and meet the greatest lower bound by
    componentwise order theory.
    """
    fam = subgroupoids(g)
    for X in subsets_of(g.full_mask):
        meet_of_supersets = g.full_mask
        for H in fam.members:
            if is_subset(X, H):
                meet_of_supersets &= H
        if generate(g, X) != meet_of_supersets:
            return {"set": list(g.set_labels(X))}
    return None


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
    carrier = acp_carrier(g, mode)
    formal = carrier if mode == "formal" else acp_carrier(g, "formal")
    formal_set = set(formal)
    carrier_set = set(carrier)
    verdicts: list[LawVerdict] = []

    def labels(x: AcpElement) -> dict:
        return x.as_labels(g)

    # A1: lattice identities + bounds + the minimality lemma
    a1_witness = None
    lemma = _sg_minimality_failure(g)
    if lemma is not None:
        a1_witness = {"check": "generation-minimality", **lemma}
    if a1_witness is None and (
        bottom(g) not in carrier_set or top(g) not in carrier_set
    ):
        a1_witness = {"check": "bounds-missing"}
    if a1_witness is None:
        for x, y in _pairs_to_check(carrier, mix(seed, 1), pair_limit):
            j = acp_op(g, x, y, "join")
            m = acp_op(g, x, y, "meet")
            checks = (
                ("join-closure", j in formal_set),
                ("meet-closure", m in formal_set),
                ("join-upper", acp_leq(x, j) and acp_leq(y, j)),
                ("meet-lower", acp_leq(m, x) and acp_leq(m, y)),
                ("join-comm", j == acp_op(g, y, x, "join")),
                ("meet-comm", m == acp_op(g, y, x, "meet")),
                ("absorb-jm", acp_op(g, x, m, "join") == x),
                ("absorb-mj", acp_op(g, x, j, "meet") == x),
                ("bottom-le", acp_leq(bottom(g), x)),
                ("top-ge", acp_leq(x, top(g))),
            )
            bad = next((name for name, ok in checks if not ok), None)
            if bad is not None:
                a1_witness = {"check": bad, "x": labels(x), "y": labels(y)}
                break
    verdicts.append(LawVerdict("A1", 1, a1_witness is None, a1_witness))

    def neg(x: AcpElement) -> AcpElement:
        return acp_neg(g, x)

    def coprod(x: AcpElement) -> AcpElement:
        return acp_coprod(g, x)

    def each(law: str, tier: int, holds: Callable[[AcpElement], bool]) -> None:
        """Verdict from the first carrier element x where holds(x) fails."""
        w = next(({"x": labels(x)} for x in carrier if not holds(x)), None)
        verdicts.append(LawVerdict(law, tier, w is None, w))

    def each_pair(
        law: str, tier: int, stream: int,
        holds: Callable[[AcpElement, AcpElement], bool],
    ) -> None:
        """Verdict from the first checked pair (x, y) where holds fails."""
        pairs = _pairs_to_check(carrier, mix(seed, stream), pair_limit)
        w = next(
            ({"x": labels(x), "y": labels(y)} for x, y in pairs if not holds(x, y)),
            None,
        )
        verdicts.append(LawVerdict(law, tier, w is None, w))

    # A2: x ⊴ ¬¬x (audit)
    each("A2", 2, lambda x: acp_leq(x, neg(neg(x))))
    # A3: x ⊴ y implies ∐x ⊴ ∐y
    each_pair(
        "A3", 1, 3, lambda x, y: not acp_leq(x, y) or acp_leq(coprod(x), coprod(y))
    )
    # A4: x ⊴ ∐x
    each("A4", 1, lambda x: acp_leq(x, coprod(x)))
    # A5: x ⊴ y implies ¬y ⊴ ¬x
    each_pair(
        "A5", 1, 5, lambda x, y: not acp_leq(x, y) or acp_leq(neg(y), neg(x))
    )
    # A6: ¬∐¬x ⊴ ∐x (audit)
    each("A6", 2, lambda x: acp_leq(neg(coprod(neg(x))), coprod(x)))

    # well-definedness of every operation over the carrier
    wd_witness = None
    for x, y in _pairs_to_check(carrier, mix(seed, 7), pair_limit):
        try:
            validate_element(g, acp_op(g, x, y, "join"))
            validate_element(g, acp_op(g, x, y, "meet"))
            validate_element(g, acp_neg(g, x))
            validate_element(g, acp_coprod(g, x))
        except StructureError as exc:
            wd_witness = {"x": labels(x), "y": labels(y), "error": str(exc)}
            break
    verdicts.append(LawVerdict("well-defined", 1, wd_witness is None, wd_witness))

    if mode == "realized":
        rc_witness = None
        for x, y in _pairs_to_check(carrier, mix(seed, 9), pair_limit):
            for op in ("join", "meet"):
                if acp_op(g, x, y, op) not in carrier_set:
                    rc_witness = {"op": op, "x": labels(x), "y": labels(y)}
                    break
            if rc_witness is None and acp_neg(g, x) not in carrier_set:
                rc_witness = {"op": "neg", "x": labels(x)}
            if rc_witness is not None:
                break
        verdicts.append(
            LawVerdict("realized-closure", 2, rc_witness is None, rc_witness)
        )

    return LawAuditReport(mode, tuple(verdicts))
