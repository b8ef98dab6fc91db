"""Decision regions carved from the groupoid product over a subset pair.

Each product a.b with a drawn from A and b from B lands somewhere; the six
region kinds classify the landing spot relative to A, B, and the
upper-bound set of the pair. The groupoid must be a member of the
relation's B(S) family, so the pair is checked before anything is computed.
"""

from __future__ import annotations

from .errors import LawError, NotUpDirectedError, StructureError
from .grpd import Groupoid, b_of_s_fault
from .relsys import RelationalSystem
from ._bits import bits

REGION_KINDS = ("n", "o1", "o2", "i1", "i2", "o")


def region_table(
    g: Groupoid, sys: RelationalSystem, A: int, B: int
) -> dict[str, int]:
    """Every region kind, from one pass over the products a.b.

    n: elements of B fixed by some a in A. o1/o2: products that are
    genuine upper bounds escaping A (resp. B). i1/i2: upper-bound products
    landing back inside A (resp. B). o: escaping both. A pair outside B(S)
    raises the first fault: NotUpDirectedError, else StructureError.
    """
    if (fault := b_of_s_fault(sys, g)) is not None:
        raise (StructureError if sys.up_directed else NotUpDirectedError)(fault)
    if (A | B) & ~sys.full_mask:
        raise LawError("operand sets must be subsets of the universe")
    n = o1 = o2 = i1 = i2 = 0
    for a in bits(A):
        row, sa = g.table[a], sys.succ[a]
        for b in bits(B):
            c = row[b]
            bit = 1 << c
            if c == b:
                n |= bit
            if not sa & sys.succ[b] & bit:
                continue
            if A & bit:
                i1 |= bit
            else:
                o1 |= bit
            if B & bit:
                i2 |= bit
            else:
                o2 |= bit
    return {"n": n, "o1": o1, "o2": o2, "i1": i1, "i2": i2, "o": o1 & o2}
