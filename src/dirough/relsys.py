"""Finite relational systems and the basic approximation machinery.

A system is a finite ordered universe of labeled elements plus one binary
relation, stored row-wise as successor bitmasks. Construction order is the
canonical element order and every deterministic tie-break downstream uses it.

Relation text format:
    line 1:            elements: a b c ...
    following lines:   x y        (meaning R x y)
    comments:          # ...
"""

from __future__ import annotations

import operator
import os
from functools import cached_property, partial
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, TypeVar

from ._bits import bits, element_slices, is_subset, lattice_transform, mask_of, sweep_subsets
from .errors import (
    CapExceededError, DiroughError, InputFormatError, LabelError, LawError, StructureError,
)

T = TypeVar("T")

DEFAULT_CAP = 16
_CAP_ENV = "DIROUGH_CAP"


def exhaustive_cap() -> int:
    """Current cap on universe size for 2^n enumerations.

    The DIROUGH_CAP environment variable, or the default of 16 when it is
    unset. A cap that is not a non-negative integer is an input error.
    """
    if (env := os.environ.get(_CAP_ENV)) is None:
        return DEFAULT_CAP
    try:
        cap = int(env)
    except ValueError:
        raise InputFormatError(f"{_CAP_ENV} must be an integer, got {env!r}")
    if cap < 0:
        raise InputFormatError(f"the exhaustive cap must be non-negative, got {cap}")
    return cap


def require_cap(n: int, what: str) -> None:
    limit = exhaustive_cap()
    if n > limit:
        raise CapExceededError(
            f"universe size {n} exceeds the exhaustive cap {limit} for {what}; "
            f"raise it via {_CAP_ENV}"
        )


class Record:
    """Base of the immutable records that check their fields or cache state.

    A subclass names its fields in _fields and sets them in its __init__
    through __dict__, which is also where a cached_property keeps its value.
    Equality, hashing and repr read the fields in that order, and assigning
    or deleting an attribute afterwards raises AttributeError. Records with
    neither checks nor cached state are typing.NamedTuple classes instead.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _astuple(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Universe(Record):
    """A finite universe S of distinct labels; element ids are positions.

    Subsets of S are bitmasks over the ids. Systems and groupoids share this
    base, so label lookup and the in-universe checks live here once.
    """

    _fields = ("labels",)

    def __init__(self, labels: tuple[str, ...]):
        self.__dict__["labels"] = labels
        if len(set(labels)) != len(labels):
            raise LabelError("duplicate universe label")

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def _index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def id(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise LabelError(f"unknown label {label!r}")

    def mask(self, names: Iterable[str]) -> int:
        return mask_of(self.id(x) for x in names)

    def set_labels(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in bits(mask))

    def check_set(self, A: int) -> None:
        if A & ~self.full_mask:
            raise LawError("set A is not a subset of the universe")

    def check_element(self, x: int) -> None:
        if not 0 <= x < self.n:
            raise LabelError(f"element id {x} out of range")


class RelationalSystem(Universe):
    """Universe with one binary relation; the pair ``(S, R)``.

    labels: element labels in canonical order (ids are positions).
    succ: succ[i] is the bitmask of successors of i, so bit j of succ[i]
        means R holds from element i to element j.
    """

    _fields = ("labels", "succ")

    def __init__(self, labels: tuple[str, ...], succ: tuple[int, ...]):
        super().__init__(labels)
        self.__dict__["succ"] = succ
        if len(succ) != self.n:
            raise StructureError("successor table size does not match universe")
        for row in succ:
            if row & ~self.full_mask:
                raise StructureError("relation pair component out of range")

    @cached_property
    def pred(self) -> tuple[int, ...]:
        """pred[i] is the bitmask of predecessors of i."""
        cols = [0] * self.n
        for i, row in enumerate(self.succ):
            for j in bits(row):
                cols[j] |= 1 << i
        return tuple(cols)

    @cached_property
    def reflexive(self) -> bool:
        """Does every element relate to itself? Checked once per system."""
        return all(row >> i & 1 for i, row in enumerate(self.succ))

    @cached_property
    def up_directed(self) -> bool:
        """Does every pair have a common R-successor? Checked once per system."""
        succ = self.succ
        return all(succ[a] & succ[b] for a in range(self.n) for b in range(a, self.n))

    @cached_property
    def reach(self) -> tuple[int, ...]:
        """reach[i] is the bitmask of elements reachable from i in zero or
        more R-steps: the reflexive-transitive closure of R."""
        reach = [self.succ[i] | (1 << i) for i in range(self.n)]
        # Warshall: pass k adds the paths through k to every row that holds k
        for k in range(self.n):
            via = reach[k]
            reach = [row | via if row >> k & 1 else row for row in reach]
        return tuple(reach)

    @cached_property
    def up(self) -> tuple[int, ...]:
        """up[y] is the upper approximation of {y}: the union of the
        neighborhoods [a] with a an R-successor of y."""
        pred = self.pred
        out = []
        for row in self.succ:
            acc = 0
            while row:
                low = row & -row
                acc |= pred[low.bit_length() - 1]
                row ^= low
            out.append(acc)
        return tuple(out)

    @cached_property
    def nbds_by_least(self) -> tuple[tuple[int, ...], ...]:
        """nbds_by_least[y] holds the distinct nonempty neighborhoods whose
        least element is y, so each one is filed exactly once."""
        rows: list[list[int]] = [[] for _ in range(self.n)]
        for nb in dict.fromkeys(self.pred):
            if nb:
                rows[(nb & -nb).bit_length() - 1].append(nb)
        return tuple(map(tuple, rows))

    @cached_property
    def _bounds(self) -> dict[int, tuple[int, int]]:
        """basic_bounds' (lower, upper) by set, kept as long as the system."""
        return {}

    @cached_property
    def cud_family(self) -> GranuleFamily:
        """Every CUD subset of the universe, smallest first; enumerated once
        per system, under the exhaustive cap. One bit-sliced sweep: a subset
        fails when it holds a pair a <= b but no common successor of it, at
        most n + 3 operations on 2^n-bit words per pair, O(n^3 * 2^n / 64)
        words in all, in blocks of 8 KiB slices (``_bits.sweep_subsets``)."""
        require_cap(self.n, "CUD family enumeration")
        n, succ = self.n, self.succ

        def cud(M: list[int], full: int) -> int:
            ok = full
            for a in range(n):
                for b in range(a, n):
                    meets = 0
                    for e in bits(succ[a] & succ[b]):
                        meets |= M[e]
                    ok &= ~(M[a] & M[b] & ~meets)
            return ok

        return GranuleFamily(sweep_subsets(n, cud), n)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i in range(self.n) for j in bits(self.succ[i]))

    def label_pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple((self.labels[i], self.labels[j]) for i, j in self.pairs())

    def has(self, a: int, b: int) -> bool:
        return bool(self.succ[a] >> b & 1)


def build_relation(
    universe: Sequence[str], pairs: Iterable[tuple[str, str]]
) -> RelationalSystem:
    """Build a system from labels and label pairs; duplicates collapse."""
    u = Universe(tuple(universe))
    return from_id_pairs(u.labels, ((u.id(x), u.id(y)) for x, y in pairs))


def from_id_pairs(labels: Sequence[str], idpairs: Iterable[tuple[int, int]]) -> RelationalSystem:
    """Build a system from labels and id pairs; an id outside 0..n-1 is a LabelError."""
    universe = Universe(tuple(labels))
    succ = [0] * universe.n
    for i, j in idpairs:
        universe.check_element(i)
        universe.check_element(j)
        succ[i] |= 1 << j
    return RelationalSystem(universe.labels, tuple(succ))


# ---------------------------------------------------------------------------
# Neighborhoods, bounds, classification, basic approximations


def neighborhood(sys: RelationalSystem, x: int, kind: str = "direct") -> int:
    """[x] for kind "direct" ({y : Ryx}); {y : Rxy} for kind "inverse"."""
    sys.check_element(x)
    if kind == "direct":
        return sys.pred[x]
    if kind == "inverse":
        return sys.succ[x]
    raise LawError(f"unknown neighborhood kind {kind!r}")


def dc_neighborhood(sys: RelationalSystem, A: int, x: int, kind: str = "idc") -> int:
    """Distributed cognitive neighborhoods of x relative to A.

    idc: {z : exists h in A with Rhz and Rxz}.
    dc:  {z : exists h in A with Rhx and Rzx}.
    """
    sys.check_element(x)
    sys.check_set(A)
    if kind == "idc":
        reach = 0
        for h in bits(A):
            reach |= sys.succ[h]
        return reach & sys.succ[x]
    if kind == "dc":
        return sys.pred[x] if A & sys.pred[x] else 0
    raise LawError(f"unknown dc-neighborhood kind {kind!r}")


def upper_bounds(sys: RelationalSystem, a: int, b: int, side: str = "upper") -> int:
    """Common successors U_R(a,b), or common predecessors for side "lower"."""
    sys.check_element(a)
    sys.check_element(b)
    if side == "upper":
        return sys.succ[a] & sys.succ[b]
    if side == "lower":
        return sys.pred[a] & sys.pred[b]
    raise LawError(f"unknown side {side!r}")


class SpaceProfile(NamedTuple):
    up_directed: bool
    reflexive: bool
    antisymmetric: bool
    symmetric: bool
    transitive: bool

    def as_dict(self) -> dict[str, bool]:
        return self._asdict()


def classify(sys: RelationalSystem) -> SpaceProfile:
    """Exhaustive first-order check of the five structural flags."""
    n, succ = sys.n, sys.succ
    up = sys.up_directed
    refl = sys.reflexive
    sym = succ == sys.pred
    anti = all(
        not (succ[a] >> b & 1 and succ[b] >> a & 1)
        for a in range(n)
        for b in range(n)
        if a != b
    )
    trans = all(
        is_subset(succ[b], succ[a]) for a in range(n) for b in bits(succ[a])
    )
    return SpaceProfile(up, refl, anti, sym, trans)


def is_up_directed(sys: RelationalSystem) -> bool:
    return sys.up_directed


def is_cud(sys: RelationalSystem, A: int) -> bool:
    """Does every pair drawn from A have a common R-successor inside A?"""
    sys.check_set(A)
    succ = sys.succ
    elems = list(bits(A))
    for i, a in enumerate(elems):
        sa = succ[a]
        for b in elems[i:]:
            if not (sa & succ[b] & A):
                return False
    return True


def basic_bounds(sys: RelationalSystem, A: int) -> tuple[int, int]:
    """Both neighborhood-granule approximations of A in one walk.

    lower: union of the neighborhoods contained in A.
    upper: union of the neighborhoods meeting A, taken over the whole universe.

    Both run over the elements of A alone, against two tables the system
    builds once, on first use, in O(|R| + n) big-int operations. The upper
    approximation is additive, so upper(A) is the union of sys.up[y] over
    y in A. A nonempty neighborhood inside A has its least element in A,
    so lower(A) is the union of the entries of sys.nbds_by_least[y], y in
    A, that lie inside A, whether or not R is reflexive. Each set then
    costs O(|A|) table reads plus one subset test per neighborhood filed
    under its elements, not O(n). The pair is kept on the system, so a set
    asked for again costs one lookup.
    """
    sys.check_set(A)
    if (known := sys._bounds.get(A)) is not None:
        return known
    up, by_least = sys.up, sys.nbds_by_least
    lower = upper = 0
    outside = ~A
    rest = A
    while rest:
        low = rest & -rest
        y = low.bit_length() - 1
        upper |= up[y]
        for nb in by_least[y]:
            if not nb & outside:
                lower |= nb
        rest ^= low
    bounds = sys._bounds[A] = (lower, upper)
    return bounds


def approx_basic(sys: RelationalSystem, A: int, op: str = "l") -> int:
    """Neighborhood-granule lower ("l") or upper ("u") approximation of A;
    one side of basic_bounds."""
    bounds = basic_bounds(sys, A)  # a set outside the universe is reported first
    if op not in ("l", "u"):
        raise LawError(f"unknown approximation op {op!r}")
    return bounds[op == "u"]


def check_morphism(
    f: Mapping[int, int] | Sequence[int],
    src: RelationalSystem,
    dst: RelationalSystem,
) -> str:
    """Classify a map as "none", "morphism", or "strong".

    A morphism carries every source pair to a related target pair. It is
    strong when, in addition, both components of every target pair are hit
    by the map.
    """
    try:
        image = [f[a] for a in range(src.n)]
    except (KeyError, IndexError):
        raise StructureError("map is not total on the source universe")
    for v in image:
        dst.check_element(v)
    for a in range(src.n):
        for b in bits(src.succ[a]):
            if not dst.has(image[a], image[b]):
                return "none"
    hit = mask_of(image)
    for c in range(dst.n):
        for e in bits(dst.succ[c]):
            if not (hit >> c & 1 and hit >> e & 1):
                return "morphism"
    return "strong"


# ---------------------------------------------------------------------------
# Granule families


def _pairwise_min(a: list[int], b: list[int]) -> list[int]:
    return [x if x < y else y for x, y in zip(a, b)]


class GranuleFamily(Record):
    """A collection of subsets (bitmasks) of an n-element universe, used as
    approximation granules. Members are sorted smallest first, then by id
    tuple."""

    _fields = ("members", "n")

    def __init__(self, members: tuple[int, ...], n: int):
        d = self.__dict__
        d["members"], d["n"] = members, n
        if len(set(members)) != len(members):
            raise StructureError("duplicate family member")

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, mask: int) -> bool:
        return mask in self._member_set

    @cached_property
    def _member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def minimal_members(self, keep: Callable[[int], bool]) -> tuple[int, ...]:
        """Inclusion-minimal members among those that keep accepts."""
        kept: list[int] = []
        for m in self.members:  # smallest first: no later member lies below a kept one
            if keep(m) and not any(is_subset(k, m) for k in kept):
                kept.append(m)
        return tuple(kept)

    @cached_property
    def minimal_union(self) -> tuple[int, ...]:
        """minimal_union[x] unions the inclusion-minimal members containing x.

        Computed on 2^n-bit indicator words, bit A standing for subset A
        (``_bits.element_slices``). For each x, the members holding x are
        grown one element e at a time, e in increasing order, which reaches
        every superset of each; a member so reached lies strictly above
        another, and the others are the minimal ones. About 5n^2 big-int
        operations in all.
        """
        n = self.n
        slices = element_slices(n)
        full = (1 << (1 << n)) - 1
        words = bytearray(max(1 << n >> 3, 1))
        for m in self.members:
            words[m >> 3] |= 1 << (m & 7)
        family = int.from_bytes(words, "little")
        out = []
        for x in range(n):
            holding = reach = family & slices[x]
            above = 0
            for e in range(n):
                if e != x:  # every set reached already holds x
                    grown = (reach & (full ^ slices[e])) << (1 << e)
                    reach |= grown
                    above |= grown
            minimal = holding & ~above
            out.append(mask_of(y for y in range(n) if minimal & slices[y]))
        return tuple(out)

    def union_within(self, A: int) -> int:
        out = 0
        for m in self.members:
            if is_subset(m, A):
                out |= m
        return out

    # Tables over all 2^n subsets, indexed by the subset's mask and built
    # once on first use; only the whole-lattice audits read them.

    @cached_property
    def within(self) -> tuple[int, ...]:
        """within[A] = union_within(A): an OR transform over the lattice."""
        table = [0] * (1 << self.n)
        for m in self.members:
            table[m] = m
        return tuple(lattice_transform(table, partial(map, operator.or_), upward=True))

    @cached_property
    def least(self) -> tuple[int | None, ...]:
        """least[A] is the first member, in family order, containing A, or
        None when no member does: a min transform over the supersets of
        each member's rank. For the CUD family this is the eth closure; for
        the subgroupoids, Sg(A)."""
        members = self.members
        ranks = [len(members)] * (1 << self.n)
        for r, m in enumerate(members):
            ranks[m] = r
        lattice_transform(ranks, _pairwise_min, upward=False)
        return tuple(map((*members, None).__getitem__, ranks))

    @cached_property
    def pointwise_upper(self) -> tuple[int, ...]:
        """pointwise_upper[A] unions minimal_union[x] over x in A: the table
        for the subsets of the first x + 1 elements is the one for the first
        x, then the same with minimal_union[x] added."""
        table = [0]
        for union in self.minimal_union:
            table += [v | union for v in table]
        return tuple(table)


# ---------------------------------------------------------------------------
# Text formats


def parse_relation(text: str) -> RelationalSystem:
    labels: tuple[str, ...] | None = None
    pairs: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if labels is None:
            if not line.startswith("elements:"):
                raise InputFormatError(
                    f"line {lineno}: expected 'elements: ...' header, got {raw!r}"
                )
            labels = tuple(line[len("elements:"):].split())
            if not labels:
                raise InputFormatError("empty universe in relation file")
            known = set(labels)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputFormatError(f"line {lineno}: expected 'x y', got {raw!r}")
        for x in parts:
            if x not in known:
                raise LabelError(f"line {lineno}: unknown label {x!r}")
        pairs.append((parts[0], parts[1]))
    if labels is None:
        raise InputFormatError("relation file has no 'elements:' header")
    return build_relation(labels, pairs)


def read_text(path: str) -> str:
    """Contents of a UTF-8 text file; an unreadable file is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path} is not UTF-8 text (byte {exc.start})")


def read_parsed(path: str, parse: Callable[[str], T]) -> T:
    """parse applied to the text of path; its errors are prefixed with path."""
    text = read_text(path)
    try:
        return parse(text)
    except DiroughError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def load_relation(path: str) -> RelationalSystem:
    return read_parsed(path, parse_relation)


def dump_relation(sys: RelationalSystem) -> str:
    lines = ["elements: " + " ".join(sys.labels)]
    lines += [f"{x} {y}" for x, y in sys.label_pairs()]
    return "\n".join(lines) + "\n"

