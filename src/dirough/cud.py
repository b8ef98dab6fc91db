"""Common-upper-directed subsets and the granulation they induce.

A subset A is CUD when every pair drawn from A has a common R-successor
inside A. The empty set qualifies vacuously; a singleton {x} qualifies
exactly when Rxx. The family of all CUD subsets drives a closure operator
and a pair of approximations.
"""

from __future__ import annotations

from ._bits import bits, is_subset
from .errors import LawError, NotUpDirectedError, StructureError
from .relsys import GranuleFamily, Record, RelationalSystem, is_cud


class RoughTuple(Record):
    """(lower, upper) of one approximation pass; the boundary is derived.

    The ClusterSet or caller that holds a tuple names the machinery that
    produced it.
    """

    _fields = ("lower", "upper")

    def __init__(self, lower: int, upper: int):
        d = self.__dict__
        d["lower"] = lower
        d["upper"] = upper
        if not is_subset(lower, upper):
            raise StructureError("rough tuple lower is not inside its upper")

    @property
    def boundary(self) -> int:
        return self.upper & ~self.lower


def cud_family(sys: RelationalSystem) -> GranuleFamily:
    """Every CUD subset of the universe, smallest first."""
    return sys.cud_family


def eth_closure(sys: RelationalSystem, A: int) -> int:
    """Least CUD superset of A, in an up-directed system.

    Minimal CUD supersets need not be unique, so ties are broken
    deterministically: smallest cardinality first, then least id tuple.
    """
    sys.check_set(A)
    if not sys.up_directed:
        raise NotUpDirectedError("the eth closure needs an up-directed system")
    fam = cud_family(sys)
    # sorted by (size, ids); the universe is a member, so one always contains A
    return next(H for H in fam.members if is_subset(A, H))


def cudas_op(sys: RelationalSystem, A: int, B: int, op: str) -> int:
    """oplus = closure of the union, odot = closure of the intersection, in
    an up-directed system."""
    if not sys.up_directed:
        raise NotUpDirectedError("CUDAS operations need an up-directed system")
    # the family holds exactly the subsets is_cud accepts
    fam = sys.cud_family
    if A not in fam:
        raise LawError("left operand is not a CUD set")
    if B not in fam:
        raise LawError("right operand is not a CUD set")
    if op == "oplus":
        return eth_closure(sys, A | B)
    if op == "odot":
        return eth_closure(sys, A & B)
    raise LawError(f"unknown CUDAS operation {op!r}")


def approx_cud(sys: RelationalSystem, A: int, op: str, mode: str = "pointwise") -> int:
    """Lower and upper approximations over the CUD family.

    The lower approximation unions the CUD sets inside A. The upper comes in
    two flavours: pointwise unions, for each element of A, the minimal CUD
    sets containing that element; collection unions the inclusion-minimal
    family members that meet A at all. Both need an up-directed system,
    which is one whose whole universe is CUD. An unknown mode is rejected
    for either op.
    """
    sys.check_set(A)
    if op not in ("l", "u"):
        raise LawError(f"unknown approximation op {op!r}")
    if mode not in ("pointwise", "collection"):
        raise LawError(f"unknown upper approximation mode {mode!r}")
    if not sys.up_directed:
        raise NotUpDirectedError("CUD approximations need an up-directed system")
    fam = cud_family(sys)
    if op == "l":
        return fam.union_within(A)
    out = 0
    if mode == "pointwise":
        for x in bits(A):
            out |= fam.minimal_union[x]
    else:
        for H in fam.minimal_members(lambda m: m & A):
            out |= H
    return out


def cud_tuple(sys: RelationalSystem, A: int) -> RoughTuple:
    """The pointwise rough tuple; the collection upper may miss the lower."""
    lo = approx_cud(sys, A, "l")
    up = approx_cud(sys, A, "u")
    return RoughTuple(lo, up)
