"""Approximations carved out of the subgroupoid lattice.

The lower approximation unions the closed sets inside A, the upper is the
generated subgroupoid, and the anti-lower upper unions the inclusion-minimal
closed sets properly containing A. All three read Sg alone: no family is listed.
"""

from __future__ import annotations

from functools import partial, reduce
from operator import or_
from typing import Callable, NamedTuple

from ._bits import bits, is_subset, mask_of
from .errors import LawError
from .grpd import Groupoid, generate


class PgTuple(NamedTuple):
    """(lower, generated lower, upper); the middle closes the lower."""

    lower: int
    generated_lower: int
    upper: int


def minimal_closed_supersets(sg: Callable[[int], int], A: int, full: int) -> set[int]:
    """The minimal closed proper supersets of A in full, via sg = Sg: Sg(A) if A is not
    closed, else the minimal C_y = sg(A | y), y not in A. C_y is minimal exactly when y
    lies in C_z for every z in C_y outside A, since each such C_z lies inside C_y."""
    if (up := sg(A)) != A:
        return {up}
    C = {y: sg(A | 1 << y) for y in bits(full & ~A)}
    return {c for y, c in C.items() if all(C[z] >> y & 1 for z in bits(c & ~A))}


def approx_pi(g: Groupoid, A: int, op: str) -> int:
    g.check_set(A)
    if op == "u_pi":
        return generate(g, A)
    if op == "l_pi":
        return mask_of(x for x in bits(A) if is_subset(g.closures[x], A))
    if op == "u_a":
        # u_a(S) = S by convention: S has no proper superset
        return reduce(or_, minimal_closed_supersets(partial(generate, g), A, g.full_mask), A)
    raise LawError(f"unknown approximation op {op!r}")


def pg_tuple(g: Groupoid, A: int) -> PgTuple:
    lower = approx_pi(g, A, "l_pi")
    return PgTuple(lower, generate(g, lower), generate(g, A))
