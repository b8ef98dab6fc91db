"""Groupoids over a finite universe.

Construction from relations (the order groupoid, the B(S) family, and
pi-groupoids), equational law checking over Cayley tables, the induced
relations, generated subgroupoids, and exhaustive subgroupoid enumeration.

Cayley CSV format: header row carries the column labels (first field is
ignored), each following row starts with its row label; cell = product of
row label with column label.
"""

from __future__ import annotations

import csv
import io
import itertools
from functools import cached_property
from operator import getitem
from typing import Iterable

from ._bits import bits, mask_of, mix, sweep_subsets
from .errors import (
    InputFormatError,
    LawError,
    NotUpDirectedError,
    StructureError,
)
from .relsys import (
    GranuleFamily,
    Record,
    RelationalSystem,
    Universe,
    from_id_pairs,
    read_parsed,
    require_cap,
)


class Groupoid(Universe):
    """Total binary operation given as an n x n Cayley table (row . col)."""

    _fields = ("labels", "table")

    def __init__(self, labels: tuple[str, ...], table: tuple[tuple[int, ...], ...]):
        super().__init__(labels)
        self.__dict__["table"] = table
        n = self.n
        if len(table) != n or any(len(row) != n for row in table):
            raise StructureError("Cayley table shape does not match universe")
        for row in table:
            for v in row:
                if not 0 <= v < n:
                    raise StructureError(f"Cayley cell {v} is not an element id")

    @cached_property
    def subgroupoids(self) -> GranuleFamily:
        """Every product-closed subset, smallest first; enumerated once per
        groupoid, under the exhaustive cap. One bit-sliced sweep: a subset
        fails when it holds a and b but not a.b, three operations on 2^n-bit
        words per cell, O(n^2 * 2^n / 64) words in all, in blocks of 8 KiB
        slices (``_bits.sweep_subsets``)."""
        require_cap(self.n, "subgroupoid enumeration")
        n, table = self.n, self.table

        def closed(M: list[int], full: int) -> int:
            ok = full
            for a in range(n):
                Ma, row = M[a], table[a]
                for b in range(n):
                    ok &= ~(Ma & M[b] & ~M[row[b]])
            return ok

        return GranuleFamily(sweep_subsets(n, closed), n)

    @cached_property
    def closures(self) -> tuple[int, ...]:
        """closures[x] is Sg({x}): n ``generate`` calls, once per groupoid."""
        return tuple(generate(self, 1 << x) for x in range(self.n))


class ChoiceStrategy(Record):
    """How build_updir_groupoid resolves the free choice in the no-edge case.

    kind: one of min_index, max_index, seeded_random.
    pi_constrained: restrict picks to the pseudo-join set and make the
        choice a function of the upper-bound set alone, so equal sets
        U_R(a,b) = U_R(c,e) always receive equal products.
    """

    _fields = ("kind", "seed", "pi_constrained")

    def __init__(self, kind: str, seed: int | None = None, pi_constrained: bool = False):
        d = self.__dict__
        d["kind"], d["seed"], d["pi_constrained"] = kind, seed, pi_constrained
        if kind not in ("min_index", "max_index", "seeded_random"):
            raise LawError(f"unknown strategy kind {kind!r}")
        if kind == "seeded_random" and seed is None:
            raise LawError("seeded_random strategy needs a seed")

    @classmethod
    def min_index(cls, pi_constrained: bool = False) -> "ChoiceStrategy":
        return cls("min_index", pi_constrained=pi_constrained)

    @classmethod
    def max_index(cls, pi_constrained: bool = False) -> "ChoiceStrategy":
        return cls("max_index", pi_constrained=pi_constrained)

    @classmethod
    def seeded(cls, seed: int, pi_constrained: bool = False) -> "ChoiceStrategy":
        return cls("seeded_random", seed=seed, pi_constrained=pi_constrained)


# ---------------------------------------------------------------------------
# Pseudo joins


def pseudo_joins(sys: RelationalSystem, a: int, b: int) -> int:
    """Candidate join values for the pair (a, b): the elements of U_R(a,b)
    with nothing strictly below them in the reflexive-transitive preorder
    of R."""
    sys.check_element(a)
    sys.check_element(b)
    U = sys.succ[a] & sys.succ[b]
    if not U:
        raise NotUpDirectedError(
            f"empty upper-bound set for pair ({sys.labels[a]}, {sys.labels[b]})"
        )
    # x is minimal unless some y in U reaches x while x does not reach y
    reach = sys.reach
    return mask_of(
        x for x in bits(U)
        if not any(reach[y] >> x & 1 and not reach[x] >> y & 1 for y in bits(U))
    )


# ---------------------------------------------------------------------------
# Construction


def build_order_groupoid(sys: RelationalSystem) -> Groupoid:
    """a.b = a when Rab holds, b otherwise."""
    tbl = tuple(
        tuple(a if sys.has(a, b) else b for b in range(sys.n)) for a in range(sys.n)
    )
    return Groupoid(sys.labels, tbl)


def _allowed(sys: RelationalSystem, a: int, b: int, pi: bool) -> int:
    """The B(S) cell rule, as the mask of products a.b may take: b when Rab
    holds, else a common upper bound, under pi a minimal pseudo join."""
    if sys.has(a, b):
        return 1 << b
    if pi:
        return pseudo_joins(sys, a, b)
    return sys.succ[a] & sys.succ[b]


def _pick(sys: RelationalSystem, strategy: ChoiceStrategy, a: int, b: int) -> int:
    ids = list(bits(_allowed(sys, a, b, strategy.pi_constrained)))
    if strategy.kind == "min_index":
        return ids[0]
    if strategy.kind == "max_index":
        return ids[-1]
    # seeded_random: key on the upper-bound set when pi-constrained so the
    # choice factors through the set, on the pair otherwise
    key = (sys.succ[a] & sys.succ[b],) if strategy.pi_constrained else (a, b)
    return ids[mix(strategy.seed, *key) % len(ids)]


def build_updir_groupoid(sys: RelationalSystem, strategy: ChoiceStrategy) -> Groupoid:
    """Build a member of the B(S) family for an up-directed system.

    Products follow the relation where it speaks (Rab forces ab = b) and the
    strategy picks a common upper bound elsewhere. A pi-constrained strategy
    picks from the minimal pseudo-join set and factors through the
    upper-bound set, which is what makes the result a pi-groupoid.
    """
    if not sys.up_directed:
        raise NotUpDirectedError("system is not up-directed")
    elems = range(sys.n)
    rows = tuple(tuple(_pick(sys, strategy, a, b) for b in elems) for a in elems)
    return Groupoid(sys.labels, rows)


def b_of_s_fault(sys: RelationalSystem, g: Groupoid, pi: bool = False) -> str | None:
    """The first reason g is not in the B(S) family of sys (the pi family under
    pi), or None: a system not up-directed, a cell outside the B(S) rule, then
    per cell a product that is no pseudo join, or a choice not factoring through U_R(a,b)."""
    if g.labels != sys.labels:
        raise StructureError("groupoid and system universes differ")
    if not sys.up_directed:
        return "system is not up-directed"
    cells = tuple(itertools.product(range(sys.n), repeat=2))
    if not all(_allowed(sys, a, b, False) >> g.table[a][b] & 1 for a, b in cells):
        return "explicit table violates the B(S) condition"
    if pi:
        by_set: dict[int, int] = {}
        for a, b in cells:
            v = g.table[a][b]
            if not _allowed(sys, a, b, True) >> v & 1:
                return f"product {g.labels[a]}.{g.labels[b]} is not a pseudo join"
            if not sys.has(a, b) and by_set.setdefault(sys.succ[a] & sys.succ[b], v) != v:
                return "choice does not factor through the upper-bound set"
    return None


def verify_b_of_s(sys: RelationalSystem, g: Groupoid, pi: bool = False) -> bool:
    """Is g a member of the B(S) family of sys, under pi a pi-groupoid of it?"""
    return b_of_s_fault(sys, g, pi) is None


# ---------------------------------------------------------------------------
# Equational laws

# Juxtaposition binds to the left: "xaz" reads ((x a) z).
_EQUATIONAL_LAWS: dict[str, tuple[str, ...]] = {
    "E1": ("xx = x",),
    "E2": ("x(az) = (xa)(xz)",),
    "E3": ("xax = x",),
    "E4": ("azxauz = auz",),
    "E5": ("u(azxa)z = uaz",),
    "EC1": ("x(ax) = x",),
    "EC2": ("x(xa) = xa",),
    "EC3": ("(xa)a = xa",),
    "EC4": ("x(xaz) = x(az)",),
    "EC5": ("(xz)(az) = xz",),
    "EC6": ("(xa)(zx) = xazx",),
    "EC7": ("xazxa = xa",),
    "EC8": ("xazaz = xaz",),
    # EC9 is sometimes quoted with a stray fourth variable (xcazaxa); that
    # form is falsifiable on a two-class equivalence, so we keep the
    # three-variable identity.
    "EC9": ("xazaxa = xaza",),
    "EC10": ("(xazx)(za) = x(za)",),
    "EC11": ("x(az)a = xaza",),
    "EC12": ("(xaz)(ax) = (xza)(zx)",),
    "EC13": ("xazxz = xzaz",),
    "idempotence": ("aa = a",),
    "absorption": ("a(ab) = ab", "b(ab) = ab"),
    "symmetry": ("(ab)a = a",),
    "transitivity": ("a((ab)c) = (ab)c",),
    "associativity": ("(ab)c = a(bc)",),
    "commutativity": ("ab = ba",),
    "antisymmetry": ("(ab)a = ab",),
}

E_CONSEQUENCES = tuple(f"EC{i}" for i in range(1, 15))
ALL_LAWS = tuple(_EQUATIONAL_LAWS) + ("EC14",)

Term = str | tuple  # a variable name or a (left, right) product


def _parse_equation(eq: str) -> tuple[Term, Term, tuple[str, ...]]:
    """The two sides of a law as terms, and its variables in order of first
    appearance. Each side is a left fold over its characters: a letter joins
    the open factor's product, "(" opens a factor and ")" closes it into the
    product before it."""
    sides = []
    for side in eq.replace(" ", "").split("="):
        factors: list[Term | None] = [None]
        for ch in side:
            if ch == "(":
                factors.append(None)
            else:
                t = factors.pop() if ch == ")" else ch
                factors[-1] = t if factors[-1] is None else (factors[-1], t)
        sides.append(factors[0])
    lhs, rhs = sides
    return lhs, rhs, tuple(dict.fromkeys(filter(str.isalpha, eq)))


def _first_failure(g: Groupoid, eq: str) -> dict[str, str] | None:
    """First assignment, in C order over the variables (the first one
    varies slowest), on which the two sides of eq differ. The last variable
    takes every value at once: a term holding it evaluates to the tuple of
    its values, any other term to one element id."""
    lhs, rhs, vs = _parse_equation(eq)
    table, ids = g.table, tuple(range(g.n))
    cols = tuple(zip(*table))

    def value(t: Term, env: dict) -> int | tuple[int, ...]:
        if isinstance(t, str):
            return env[t]
        x, y = value(t[0], env), value(t[1], env)
        if isinstance(x, int):
            return table[x][y] if isinstance(y, int) else tuple(map(table[x].__getitem__, y))
        if isinstance(y, int):
            return tuple(map(cols[y].__getitem__, x))
        return tuple(map(getitem, map(table.__getitem__, x), y))

    for head in itertools.product(ids, repeat=len(vs) - 1):
        env = dict(zip(vs, head))
        env[vs[-1]] = ids
        left, right = (
            v if isinstance(v, tuple) else (v,) * g.n for v in (value(lhs, env), value(rhs, env))
        )
        if left != right:
            j = next(j for j in ids if left[j] != right[j])
            return {**{v: g.labels[i] for v, i in zip(vs, head + (j,))}, "equation": eq}
    return None


def _cancellation_holds(g: Groupoid, e: int) -> bool:
    # row-e left cancellation is equivalent to column e being constantly e
    row = g.table[e]
    injective = len(set(row)) == g.n
    col_const = all(g.table[x][e] == e for x in range(g.n))
    return injective == col_const


def check_laws(g: Groupoid, laws: Iterable[str] | None = None) -> dict[str, bool]:
    """Evaluate the requested identities over every variable assignment."""
    wanted = tuple(laws) if laws is not None else ALL_LAWS
    return {law: law_violation(g, law) is None for law in wanted}


def law_violation(g: Groupoid, law: str) -> dict[str, str] | None:
    """First counterexample assignment of a law, or None when it holds."""
    if law == "EC14":
        for e in range(g.n):
            if not _cancellation_holds(g, e):
                return {"e": g.labels[e]}
        return None
    if law not in _EQUATIONAL_LAWS:
        raise LawError(f"unknown law id {law!r}")
    for eq in _EQUATIONAL_LAWS[law]:
        if (witness := _first_failure(g, eq)) is not None:
            return witness
    return None


# ---------------------------------------------------------------------------
# Induced relations, generation, subgroupoid enumeration


def relation_of(g: Groupoid, kind: str = "R") -> RelationalSystem:
    """The relation ab = b, or for kind "Rstar" all pairs (a, ab), (b, ab)."""
    if kind == "R":
        pairs = [
            (a, b) for a in range(g.n) for b in range(g.n) if g.table[a][b] == b
        ]
    elif kind == "Rstar":
        pairs = []
        for a in range(g.n):
            for b in range(g.n):
                v = g.table[a][b]
                pairs.append((a, v))
                pairs.append((b, v))
    else:
        raise LawError(f"unknown relation kind {kind!r}")
    return from_id_pairs(g.labels, pairs)


def generate(g: Groupoid, A: int) -> int:
    """Least product-closed superset of A. Sg of the empty set is empty."""
    g.check_set(A)
    cur = A
    while True:
        nxt = cur
        for i in bits(cur):
            row = g.table[i]
            for j in bits(cur):
                nxt |= 1 << row[j]
        if nxt == cur:
            return cur
        cur = nxt


def is_closed(g: Groupoid, A: int) -> bool:
    """Is A product-closed? A set that is not pays for its whole closure."""
    return generate(g, A) == A


def subgroupoids(g: Groupoid) -> GranuleFamily:
    """All product-closed subsets, the empty set and S included."""
    return g.subgroupoids


# ---------------------------------------------------------------------------
# Cayley CSV


def parse_cayley(text: str) -> Groupoid:
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows:
        raise InputFormatError("empty Cayley table")
    labels = tuple(cell.strip() for cell in rows[0][1:])
    if not labels:
        raise InputFormatError("Cayley header has no column labels")
    index = {lab: i for i, lab in enumerate(labels)}
    if len(rows) != len(labels) + 1:
        raise InputFormatError(
            f"expected {len(labels)} table rows, got {len(rows) - 1}"
        )
    table = []
    for k, row in enumerate(rows[1:]):
        if len(row) != len(labels) + 1:
            raise InputFormatError(f"row {row[0]!r} has the wrong width")
        if row[0].strip() != labels[k]:
            raise InputFormatError(
                f"row labels must follow the header order; saw {row[0]!r}, "
                f"expected {labels[k]!r}"
            )
        try:
            table.append(tuple(index[cell.strip()] for cell in row[1:]))
        except KeyError as exc:
            raise InputFormatError(f"unknown product label {exc.args[0]!r}")
    return Groupoid(labels, tuple(table))


def load_cayley(path: str) -> Groupoid:
    return read_parsed(path, parse_cayley)


def dump_cayley(g: Groupoid) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([""] + list(g.labels))
    for a in range(g.n):
        writer.writerow([g.labels[a]] + [g.labels[v] for v in g.table[a]])
    return out.getvalue()
