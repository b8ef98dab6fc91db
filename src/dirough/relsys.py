"""Finite relational systems and the basic approximation machinery.

A system is a finite ordered universe of labeled elements plus one binary
relation, stored row-wise as successor bitmasks. Construction order is the
canonical element order and every deterministic tie-break downstream uses it.

Relation text format:
    line 1:            elements: a b c ...
    following lines:   x y        (meaning R x y)
    comments:          # ...

Information table CSV: header row names the attributes (first column holds
object labels), one row per object, cell values are ``|``-separated tokens.
"""

from __future__ import annotations

import csv
import io
import os
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from ._bits import bits, is_subset, lex_key, mask_of, popcount, subsets_of
from .errors import (
    CapExceededError, DiroughError, InputFormatError, LabelError, LawError, StructureError,
)

T = TypeVar("T")

DEFAULT_CAP = 16
_CAP_ENV = "DIROUGH_CAP"
# The CLI's --cap for the command being run; None defers to DIROUGH_CAP.
_CAP_OVERRIDE: ContextVar[int | None] = ContextVar("dirough_cap_override", default=None)


def exhaustive_cap() -> int:
    """Current cap on universe size for 2^n enumerations.

    Resolution order: the CLI's --cap for the command being run, then the
    DIROUGH_CAP environment variable, then the default of 16. A negative
    cap is an input error.
    """
    if (cap := _CAP_OVERRIDE.get()) is None:
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
            f"raise it via the cap option or {_CAP_ENV}"
        )


@dataclass(frozen=True)
class RelationalSystem:
    """Universe with one binary relation; the pair ``(S, R)``.

    labels: element labels in canonical order (ids are positions).
    succ: succ[i] is the bitmask of successors of i, so bit j of succ[i]
        means R holds from element i to element j.
    """

    labels: tuple[str, ...]
    succ: tuple[int, ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise LabelError("duplicate universe label")
        if len(self.succ) != n:
            raise StructureError("successor table size does not match universe")
        full = (1 << n) - 1
        for row in self.succ:
            if row & ~full:
                raise StructureError("relation pair component out of range")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def pred(self) -> tuple[int, ...]:
        """pred[i] is the bitmask of predecessors of i."""
        cols = [0] * self.n
        for i, row in enumerate(self.succ):
            for j in bits(row):
                cols[j] |= 1 << i
        return tuple(cols)

    @cached_property
    def reach(self) -> tuple[int, ...]:
        """reach[i] is the bitmask of elements reachable from i in zero or
        more R-steps: the reflexive-transitive closure of R."""
        reach = [self.succ[i] | (1 << i) for i in range(self.n)]
        changed = True
        while changed:
            changed = False
            for i in range(self.n):
                acc = reach[i]
                for j in bits(acc):
                    acc |= reach[j]
                if acc != reach[i]:
                    reach[i] = acc
                    changed = True
        return tuple(reach)

    @cached_property
    def cud_family(self) -> GranuleFamily:
        """Every CUD subset of the universe, smallest first; enumerated once
        per system, under the exhaustive cap."""
        require_cap(self.n, "CUD family enumeration")
        members = [A for A in subsets_of(self.full_mask) if is_cud(self, A)]
        members.sort(key=lambda m: (popcount(m), lex_key(m)))
        return GranuleFamily(tuple(members), self.n)

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
    labels = tuple(universe)
    if len(set(labels)) != len(labels):
        raise LabelError("duplicate universe label")
    index = {lab: i for i, lab in enumerate(labels)}
    succ = [0] * len(labels)
    for x, y in pairs:
        if x not in index:
            raise LabelError(f"unknown label {x!r} in pair")
        if y not in index:
            raise LabelError(f"unknown label {y!r} in pair")
        succ[index[x]] |= 1 << index[y]
    return RelationalSystem(labels, tuple(succ))


def from_id_pairs(labels: Sequence[str], idpairs: Iterable[tuple[int, int]]) -> RelationalSystem:
    succ = [0] * len(labels)
    for i, j in idpairs:
        succ[i] |= 1 << j
    return RelationalSystem(tuple(labels), tuple(succ))


# ---------------------------------------------------------------------------
# Information tables and the Pawlak-style indiscernibility derivation


@dataclass(frozen=True)
class InformationTable:
    """Objects x attributes, each cell a finite set of opaque value tokens."""

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    cells: tuple[tuple[frozenset[str], ...], ...]  # cells[obj][attr]

    def __post_init__(self):
        if len(set(self.objects)) != len(self.objects):
            raise LabelError("duplicate object label")
        if len(set(self.attributes)) != len(self.attributes):
            raise LabelError("duplicate attribute label")
        if len(self.cells) != len(self.objects):
            raise StructureError("row count does not match object count")
        for row in self.cells:
            if len(row) != len(self.attributes):
                raise StructureError("a row is missing attribute cells")

    def value(self, attribute: str, obj: str) -> frozenset[str]:
        try:
            ai = self.attributes.index(attribute)
        except ValueError:
            raise LabelError(f"unknown attribute {attribute!r}")
        try:
            oi = self.objects.index(obj)
        except ValueError:
            raise LabelError(f"unknown object {obj!r}")
        return self.cells[oi][ai]


def parse_table(text: str) -> InformationTable:
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows:
        raise InputFormatError("empty information table")
    header = rows[0]
    if len(header) < 2:
        raise InputFormatError("information table needs an object column and at least one attribute")
    attributes = tuple(h.strip() for h in header[1:])
    objects = []
    cells = []
    for row in rows[1:]:
        if len(row) != len(header):
            raise InputFormatError(
                f"row {row[0]!r} has {len(row) - 1} cells, expected {len(attributes)}"
            )
        objects.append(row[0].strip())
        cells.append(
            tuple(
                frozenset(tok.strip() for tok in cell.split("|") if tok.strip())
                for cell in row[1:]
            )
        )
    return InformationTable(tuple(objects), attributes, tuple(cells))


def load_table(path: str) -> InformationTable:
    return read_parsed(path, parse_table)


def derive_pawl_relation(
    table: InformationTable, attrs: Iterable[str] | None = None
) -> RelationalSystem:
    """Indiscernibility over the given attributes.

    Two objects are related when every chosen attribute assigns them equal
    value sets. Empty attribute selection relates everything vacuously. The
    result is always an equivalence relation on the objects.
    """
    chosen = tuple(table.attributes) if attrs is None else tuple(attrs)
    idx = []
    for a in chosen:
        if a not in table.attributes:
            raise LabelError(f"unknown attribute {a!r}")
        idx.append(table.attributes.index(a))
    n = len(table.objects)
    keys = [tuple(table.cells[o][i] for i in idx) for o in range(n)]
    succ = [0] * n
    for x in range(n):
        for w in range(n):
            if keys[x] == keys[w]:
                succ[x] |= 1 << w
    return RelationalSystem(table.objects, tuple(succ))


# ---------------------------------------------------------------------------
# Neighborhoods, bounds, classification, basic approximations


def _check_element(sys: RelationalSystem, x: int) -> None:
    if not 0 <= x < sys.n:
        raise LabelError(f"element id {x} out of range")


def neighborhood(sys: RelationalSystem, x: int, kind: str = "direct") -> int:
    """[x] for kind "direct" ({y : Ryx}); {y : Rxy} for kind "inverse"."""
    _check_element(sys, x)
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
    _check_element(sys, x)
    if A & ~sys.full_mask:
        raise LabelError("set A is not a subset of the universe")
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
    _check_element(sys, a)
    _check_element(sys, b)
    if side == "upper":
        return sys.succ[a] & sys.succ[b]
    if side == "lower":
        return sys.pred[a] & sys.pred[b]
    raise LawError(f"unknown side {side!r}")


@dataclass(frozen=True)
class SpaceProfile:
    up_directed: bool
    reflexive: bool
    antisymmetric: bool
    symmetric: bool
    transitive: bool

    def as_dict(self) -> dict[str, bool]:
        return {
            "up_directed": self.up_directed,
            "reflexive": self.reflexive,
            "antisymmetric": self.antisymmetric,
            "symmetric": self.symmetric,
            "transitive": self.transitive,
        }


def classify(sys: RelationalSystem) -> SpaceProfile:
    """Exhaustive first-order check of the five structural flags."""
    n, succ = sys.n, sys.succ
    up = is_up_directed(sys)
    refl = all(succ[a] >> a & 1 for a in range(n))
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
    return all(
        sys.succ[a] & sys.succ[b] for a in range(sys.n) for b in range(a, sys.n)
    )


def is_cud(sys: RelationalSystem, A: int) -> bool:
    """Does every pair drawn from A have a common R-successor inside A?"""
    if A & ~sys.full_mask:
        raise LawError("set A is not a subset of the universe")
    succ = sys.succ
    elems = list(bits(A))
    for i, a in enumerate(elems):
        sa = succ[a]
        for b in elems[i:]:
            if not (sa & succ[b] & A):
                return False
    return True


def approx_basic(sys: RelationalSystem, A: int, op: str = "l") -> int:
    """Neighborhood-granule lower/upper approximations.

    l: union of the neighborhoods contained in A.
    u: union of the neighborhoods meeting A, taken over the whole universe.

    The neighborhood [a] meets A exactly when a lies in the R-image of A,
    and a nonempty [a] inside A meets A, so both unions run over the image
    only: the cost is O(|A| + |R[A]|), not O(n).
    """
    if A & ~sys.full_mask:
        raise LabelError("set A is not a subset of the universe")
    if op not in ("l", "u"):
        raise LawError(f"unknown approximation op {op!r}")
    succ, pred = sys.succ, sys.pred
    image = 0
    rest = A
    while rest:
        low = rest & -rest
        image |= succ[low.bit_length() - 1]
        rest ^= low
    out = 0
    rest = image
    while rest:
        low = rest & -rest
        nb = pred[low.bit_length() - 1]
        if op == "u" or not nb & ~A:
            out |= nb
        rest ^= low
    return out


def is_ideal_or_filter(sys: RelationalSystem, K: int, kind: str = "ideal") -> bool:
    """R-ideal: closed under predecessors; R-filter: closed under successors."""
    if K & ~sys.full_mask:
        raise LabelError("set K is not a subset of the universe")
    if kind == "ideal":
        return all(is_subset(sys.pred[a], K) for a in bits(K))
    if kind == "filter":
        return all(is_subset(sys.succ[a], K) for a in bits(K))
    raise LawError(f"unknown kind {kind!r}")


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
        if not 0 <= v < dst.n:
            raise LabelError(f"map value {v} outside the target universe")
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


@dataclass(frozen=True)
class GranuleFamily:
    """A collection of subsets (bitmasks) of an n-element universe, used as
    approximation granules. Members are sorted smallest first, then by id
    tuple."""

    members: tuple[int, ...]
    n: int

    def __post_init__(self):
        if len(set(self.members)) != len(self.members):
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
        """minimal_union[x] unions the inclusion-minimal members containing x."""
        out = []
        for x in range(self.n):
            union = 0
            for H in self.minimal_members(lambda m: m >> x & 1):
                union |= H
            out.append(union)
        return tuple(out)

    def union_within(self, A: int) -> int:
        out = 0
        for m in self.members:
            if is_subset(m, A):
                out |= m
        return out


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


def to_dot(sys: RelationalSystem, name: str = "R") -> str:
    """DOT digraph of the relation, for quick visualization."""
    lines = [f"digraph {name} {{"]
    for lab in sys.labels:
        lines.append(f'  "{lab}";')
    for x, y in sys.label_pairs():
        lines.append(f'  "{x}" -> "{y}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
