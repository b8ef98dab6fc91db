"""Approximations carved out of the subgroupoid lattice.

The lower approximation unions the closed sets inside A, the upper is the
generated subgroupoid, and the anti-lower upper unions the inclusion-minimal
closed sets properly containing A.
"""

from __future__ import annotations

from typing import NamedTuple

from ._bits import is_subset
from .errors import LawError
from .grpd import Groupoid, generate, subgroupoids


class PgTuple(NamedTuple):
    """(lower, generated lower, upper); the middle closes the lower."""

    lower: int
    generated_lower: int
    upper: int

    def acpg(self) -> tuple[int, int]:
        return (self.generated_lower, self.upper)


def approx_pi(g: Groupoid, A: int, op: str) -> int:
    g.check_set(A)
    if op == "u_pi":
        return generate(g, A)
    fam = subgroupoids(g)
    if op == "l_pi":
        return fam.union_within(A)
    if op == "u_a":
        # u_a(S) = S by convention; proper subsets union their minimal
        # proper closed supersets
        if A == g.full_mask:
            return A
        out = 0
        for H in fam.minimal_members(lambda m: is_subset(A, m) and m != A):
            out |= H
        return out
    raise LawError(f"unknown approximation op {op!r}")


def pg_tuple(g: Groupoid, A: int) -> PgTuple:
    lower = approx_pi(g, A, "l_pi")
    return PgTuple(lower, generate(g, lower), generate(g, A))
