"""Bitmask helpers.

Element sets are plain Python ints: bit i set means element-id i is in the
set. Ints are arbitrary precision, hash cheaply, and make subset tests a
single AND, which is what the exhaustive suites lean on.
"""

from __future__ import annotations

import itertools
import math
from functools import cache
from typing import Callable, Iterable, Iterator, Sequence

MASK64 = (1 << 64) - 1

# A sweep holds 2^16 subsets at a time, whatever the universe size.
_SWEEP_BITS = 16
_BYTE_BITS = tuple(tuple(j for j in range(8) if v >> j & 1) for v in range(256))


def mask_of(ids: Iterable[int]) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in increasing order. Each yielded bit costs
    O(N/64) machine words on an N-bit mask (one negation, one AND and one
    XOR over the whole int), so a walk over a mask with many members is
    quadratic in its width; big masks are better walked in numpy."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def id_list(mask: int) -> list[int]:
    """The set bit positions of mask in increasing order, read from its
    little-endian bytes through the per-byte table: O(N/8) table reads on
    an N-bit mask, where bits pays O(N/64) words per member. A walk over a
    sparse mask in a wide universe is cheaper through bits."""
    data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    return [8 * i + j for i, v in enumerate(data) if v for j in _BYTE_BITS[v]]


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def lex_key(mask: int) -> tuple[int, ...]:
    """Sorted id tuple; the canonical lexicographic tie-break key."""
    return tuple(bits(mask))


@cache
def _rank_bytes() -> bytes:
    """Byte v -> its bits reversed and complemented; built on first use,
    which keeps it out of a cold command that sorts nothing."""
    return bytes(255 - int(f"{v:08b}"[::-1], 2) for v in range(256))


def rank_key(n: int) -> Callable[[int], int]:
    """The sort key of masks over an n-element universe for the order
    fewest members first, then by id tuple.

    Two masks of one size first differ at their least differing id, and
    the one holding it has the smaller id tuple. Little-endian bytes put
    the ids in byte order; the table reverses the bits of each byte, so
    that lower ids sit higher, and complements them, so that a held id
    ranks first. The bytes then compare as the id tuples do, and so does
    the big-endian int they spell, under the member count. One int per
    key keeps a sort over a big family as small as its members."""
    table, width = _rank_bytes(), (n + 7) >> 3
    shift = 8 * width
    return lambda m: m.bit_count() << shift | int.from_bytes(
        m.to_bytes(width, "little").translate(table), "big"
    )


def element_slices(width: int) -> list[int]:
    """The 2^width-bit indicator words of the elements of a width-element
    universe: bit A of slice e is set when subset A holds element e."""
    size = 1 << width
    full = (1 << size) - 1
    # the slice of element width - 1 is the word's upper half, and each
    # lower one is the one above XOR itself shifted down by half its period
    slices = [full ^ full >> (size >> 1)] if width else []
    for e in range(width - 2, -1, -1):
        slices.insert(0, slices[0] ^ slices[0] >> (1 << e))
    return slices


def sweep_subsets(n: int, keep: Callable[[list[int], int], int]) -> tuple[int, ...]:
    """Every subset of an n-element universe that keep admits, smallest
    first, then by id tuple, found by one bit-sliced test per block of at
    most 2^16 subsets. Bit i of a block stands for the subset base + i;
    M[e] sets bit i when element e is in that subset, and keep(M, full)
    sets the bits of the admitted subsets. A block holds n slices of at
    most 8 KiB each."""
    width = min(n, _SWEEP_BITS)
    size = 1 << width
    full = (1 << size) - 1
    low = element_slices(width)
    members: list[int] = []
    for base in range(0, 1 << n, size):
        # a high element is in all of a block's subsets or in none
        M = low + [full if base >> e & 1 else 0 for e in range(width, n)]
        kept = keep(M, full).to_bytes(max(size >> 3, 1), "little")
        members += (base + 8 * i + j for i, v in enumerate(kept) if v for j in _BYTE_BITS[v])
    members.sort(key=rank_key(n))
    return tuple(members)


def lattice_transform(values: list, combine: Callable, upward: bool) -> list:
    """values transformed in place over the lattice of subsets of an
    n-element universe, len(values) being 2^n: upward, each entry becomes
    its fold with the entries of its subsets; downward, of its supersets.
    One pass per element e updates every index pair (A, A | 2^e) with e
    outside A, n * 2^(n-1) updates in all (Yates 1937). combine(mine,
    other) takes two equal slices and returns the updated first one; a pass
    is one call per run of pairs: runs of one offset while they are fewer
    than the blocks of 2^e consecutive pairs, else blocks."""
    size = len(values)
    step = 1
    while step < size:
        span = 2 * step
        if step * span <= size:
            runs = [(slice(j, size, span), slice(j + step, size, span)) for j in range(step)]
        else:
            runs = [(slice(b, b + step), slice(b + step, b + span)) for b in range(0, size, span)]
        for low, high in runs:
            dst, src = (high, low) if upward else (low, high)
            values[dst] = combine(values[dst], values[src])
        step = span
    return values


def assignments(domains: Sequence[Sequence], limit: int, draw: Callable) -> Iterator[tuple]:
    """The product of domains in C order when it has at most limit tuples;
    otherwise limit tuples sampled from it, entry k of tuple t being
    d[row(t)[k] % len(d)] for the k-th domain d, where row = draw() is
    built only when sampling."""
    if math.prod(map(len, domains)) <= limit:
        return itertools.product(*domains)
    row = draw()
    return (tuple(d[v % len(d)] for d, v in zip(domains, row(t))) for t in range(limit))


def splitmix64(x: int) -> int:
    """One splitmix64 step. Pure integer arithmetic, identical everywhere."""
    x = (x + 0x9E3779B97F4B7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def mix(*parts: int) -> int:
    """Fold ints into one 64-bit value via chained splitmix64 steps."""
    acc = 0
    for p in parts:
        acc = splitmix64((acc ^ (p & MASK64)) & MASK64)
    return acc


def mix_rows(base: int, width: int) -> Callable[[int], list[int]]:
    """row with row(t)[k] == mix(base, t, k) for k < width: the step on
    base is taken once, and the step on t once per row."""
    head = splitmix64(base & MASK64)

    def row(t: int) -> list[int]:
        acc = splitmix64(head ^ (t & MASK64))
        return [splitmix64(acc ^ k) for k in range(width)]

    return row
