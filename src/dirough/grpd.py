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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Literal

import numpy as np

from ._bits import bits, lex_key, mask_of, mix, popcount, subsets_of
from .errors import (
    InputFormatError,
    LawError,
    NotUpDirectedError,
    StructureError,
)
from .relsys import (
    GranuleFamily,
    RelationalSystem,
    from_id_pairs,
    is_up_directed,
    read_parsed,
    require_cap,
)

PseudoJoinMode = Literal["minimal", "literal"]
MINIMAL: PseudoJoinMode = "minimal"
LITERAL: PseudoJoinMode = "literal"


@dataclass(frozen=True)
class Groupoid:
    """Total binary operation given as an n x n Cayley table (row . col)."""

    labels: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise StructureError("duplicate universe label")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise StructureError("Cayley table shape does not match universe")
        for row in self.table:
            for v in row:
                if not 0 <= v < n:
                    raise StructureError(f"Cayley cell {v} is not an element id")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    @cached_property
    def _index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def id(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise LawError(f"unknown label {label!r}")

    def mask(self, names: Iterable[str]) -> int:
        return mask_of(self.id(x) for x in names)

    def set_labels(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in bits(mask))

    @cached_property
    def array(self) -> np.ndarray:
        return np.asarray(self.table, dtype=np.intp)

    @cached_property
    def subgroupoids(self) -> GranuleFamily:
        """Every product-closed subset, smallest first; enumerated once per
        groupoid, under the exhaustive cap."""
        require_cap(self.n, "subgroupoid enumeration")
        # Seed with the empty set and grow each found carrier by one
        # generator; every closed set is reachable this way because closures
        # of subsets of a closed set stay inside it.
        found = {0}
        frontier = [0]
        while frontier:
            H = frontier.pop()
            for x in bits(self.full_mask & ~H):
                K = generate(self, H | (1 << x))
                if K not in found:
                    found.add(K)
                    frontier.append(K)
        members = tuple(sorted(found, key=lambda m: (popcount(m), lex_key(m))))
        return GranuleFamily(members, self.n)


@dataclass(frozen=True)
class ChoiceStrategy:
    """How build_updir_groupoid resolves the free choice in the no-edge case.

    kind: one of min_index, max_index, seeded_random, explicit.
    pi_constrained: restrict picks to the pseudo-join set and make the
        choice a function of the upper-bound set alone, so equal sets
        U_R(a,b) = U_R(c,e) always receive equal products.
    """

    kind: str
    seed: int | None = None
    table: tuple[tuple[int, ...], ...] | None = None
    pi_constrained: bool = False

    def __post_init__(self):
        if self.kind not in ("min_index", "max_index", "seeded_random", "explicit"):
            raise LawError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "seeded_random" and self.seed is None:
            raise LawError("seeded_random strategy needs a seed")
        if self.kind == "explicit" and self.table is None:
            raise LawError("explicit strategy needs a table")

    @classmethod
    def min_index(cls, pi_constrained: bool = False) -> "ChoiceStrategy":
        return cls("min_index", pi_constrained=pi_constrained)

    @classmethod
    def max_index(cls, pi_constrained: bool = False) -> "ChoiceStrategy":
        return cls("max_index", pi_constrained=pi_constrained)

    @classmethod
    def seeded(cls, seed: int, pi_constrained: bool = False) -> "ChoiceStrategy":
        return cls("seeded_random", seed=seed, pi_constrained=pi_constrained)

    @classmethod
    def explicit(
        cls, table: Iterable[Iterable[int]], pi_constrained: bool = False
    ) -> "ChoiceStrategy":
        return cls(
            "explicit",
            table=tuple(tuple(row) for row in table),
            pi_constrained=pi_constrained,
        )


# ---------------------------------------------------------------------------
# Pseudo joins


def pseudo_joins(
    sys: RelationalSystem, a: int, b: int, mode: PseudoJoinMode = MINIMAL
) -> int:
    """Candidate join values for the pair (a, b).

    minimal: the elements of U_R(a,b) with nothing strictly below them in
    the reflexive-transitive preorder of R. literal: the lexicographically
    least maximum-cardinality subset M of U_R(a,b) such that every pair
    inside M has a common successor outside M but inside U_R(a,b).
    """
    U = sys.succ[a] & sys.succ[b]
    if not U:
        raise NotUpDirectedError(
            f"empty upper-bound set for pair ({sys.labels[a]}, {sys.labels[b]})"
        )
    if mode == MINIMAL:
        reach = sys.reach
        out = 0
        for x in bits(U):
            minimal = True
            for y in bits(U):
                below = bool(reach[y] >> x & 1)
                back = bool(reach[x] >> y & 1)
                if below and not back:
                    minimal = False
                    break
            if minimal:
                out |= 1 << x
        return out
    if mode == LITERAL:
        # largest satisfying subset, ties broken by least id tuple
        best, best_size = 0, 0
        for M in subsets_of(U):
            rest = U & ~M
            ok = all(
                sys.succ[e] & sys.succ[f] & rest
                for e in bits(M)
                for f in bits(M)
            )
            if ok and (
                popcount(M) > best_size
                or (popcount(M) == best_size and lex_key(M) < lex_key(best))
            ):
                best, best_size = M, popcount(M)
        return best
    raise LawError(f"unknown pseudo-join mode {mode!r}")


# ---------------------------------------------------------------------------
# Construction


def build_order_groupoid(sys: RelationalSystem) -> Groupoid:
    """a.b = a when Rab holds, b otherwise."""
    tbl = tuple(
        tuple(a if sys.has(a, b) else b for b in range(sys.n)) for a in range(sys.n)
    )
    return Groupoid(sys.labels, tbl)


def _pick(candidates: int, strategy: ChoiceStrategy, a: int, b: int, key_set: int) -> int:
    ids = list(bits(candidates))
    if strategy.kind == "min_index":
        return ids[0]
    if strategy.kind == "max_index":
        return ids[-1]
    # seeded_random: key on the upper-bound set when pi-constrained so the
    # choice factors through the set, on the pair otherwise
    if strategy.pi_constrained:
        h = mix(strategy.seed, key_set)
    else:
        h = mix(strategy.seed, a, b)
    return ids[h % len(ids)]


def build_updir_groupoid(sys: RelationalSystem, strategy: ChoiceStrategy) -> Groupoid:
    """Build a member of the B(S) family for an up-directed system.

    Products follow the relation where it speaks (Rab forces ab = b) and the
    strategy picks a common upper bound elsewhere. A pi-constrained strategy
    picks from the minimal pseudo-join set and factors through the
    upper-bound set, which is what makes the result a pi-groupoid.
    """
    if not is_up_directed(sys):
        raise NotUpDirectedError("system is not up-directed")
    if strategy.kind == "explicit":
        g = Groupoid(sys.labels, strategy.table)
        if not verify_b_of_s(sys, g):
            raise StructureError("explicit table violates the B(S) condition")
        if strategy.pi_constrained:
            _check_pi_constrained(sys, g)
        return g
    rows = []
    for a in range(sys.n):
        row = []
        for b in range(sys.n):
            if sys.has(a, b):
                row.append(b)
                continue
            U = sys.succ[a] & sys.succ[b]
            pool = pseudo_joins(sys, a, b, MINIMAL) if strategy.pi_constrained else U
            row.append(_pick(pool, strategy, a, b, U))
        rows.append(tuple(row))
    return Groupoid(sys.labels, tuple(rows))


def _check_pi_constrained(sys: RelationalSystem, g: Groupoid) -> None:
    by_set: dict[int, int] = {}
    for a in range(sys.n):
        for b in range(sys.n):
            if sys.has(a, b):
                continue
            U = sys.succ[a] & sys.succ[b]
            v = g.table[a][b]
            if not pseudo_joins(sys, a, b, MINIMAL) >> v & 1:
                raise StructureError(
                    f"product {g.labels[a]}.{g.labels[b]} is not a pseudo join"
                )
            if by_set.setdefault(U, v) != v:
                raise StructureError(
                    "choice does not factor through the upper-bound set"
                )


def verify_b_of_s(sys: RelationalSystem, g: Groupoid) -> bool:
    """Does every cell obey the B(S) condition for this system?"""
    if g.labels != sys.labels:
        raise StructureError("groupoid and system universes differ")
    for a in range(sys.n):
        for b in range(sys.n):
            v = g.table[a][b]
            if sys.has(a, b):
                if v != b:
                    return False
            elif not (sys.succ[a] & sys.succ[b]) >> v & 1:
                return False
    return True


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


def _parse_term(s: str) -> Term:
    pos = 0

    def primary() -> Term:
        nonlocal pos
        ch = s[pos]
        if ch == "(":
            pos += 1
            t = expr()
            if pos >= len(s) or s[pos] != ")":
                raise LawError(f"unbalanced parentheses in law term {s!r}")
            pos += 1
            return t
        if ch.isalpha():
            pos += 1
            return ch
        raise LawError(f"bad character {ch!r} in law term {s!r}")

    def expr() -> Term:
        nonlocal pos
        t = primary()
        while pos < len(s) and s[pos] != ")":
            t = (t, primary())
        return t

    out = expr()
    if pos != len(s):
        raise LawError(f"trailing input in law term {s!r}")
    return out


def _term_vars(t: Term, acc: list[str]) -> None:
    if isinstance(t, str):
        if t not in acc:
            acc.append(t)
    else:
        _term_vars(t[0], acc)
        _term_vars(t[1], acc)


def _parse_equation(eq: str) -> tuple[Term, Term, tuple[str, ...]]:
    lhs_s, rhs_s = (side.replace(" ", "") for side in eq.split("="))
    lhs, rhs = _parse_term(lhs_s), _parse_term(rhs_s)
    vs: list[str] = []
    _term_vars(lhs, vs)
    _term_vars(rhs, vs)
    return lhs, rhs, tuple(vs)


def _eval_term(t: Term, table: np.ndarray, grids: dict[str, np.ndarray]) -> np.ndarray:
    if isinstance(t, str):
        return grids[t]
    return table[_eval_term(t[0], table, grids), _eval_term(t[1], table, grids)]


def _equation_failures(g: Groupoid, eq: str) -> tuple[tuple[str, ...], np.ndarray]:
    lhs, rhs, vs = _parse_equation(eq)
    axes = np.indices((g.n,) * len(vs))
    grids = {v: axes[i] for i, v in enumerate(vs)}
    bad = _eval_term(lhs, g.array, grids) != _eval_term(rhs, g.array, grids)
    return vs, np.argwhere(bad)


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
        vs, failures = _equation_failures(g, eq)
        if len(failures):
            first = failures[0]
            out = {v: g.labels[int(first[i])] for i, v in enumerate(vs)}
            out["equation"] = eq
            return out
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
    if A & ~g.full_mask:
        raise LawError("set A is not a subset of the universe")
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
    for i in bits(A):
        row = g.table[i]
        for j in bits(A):
            if not A >> row[j] & 1:
                return False
    return True


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
