"""Shared deterministic generators and the acceptance-line reporter."""

from __future__ import annotations

import itertools

from dirough._bits import mix
from dirough.audit import random_system, random_updirected_system
from dirough.relsys import RelationalSystem, from_id_pairs


# one generator for random systems: the package's own
rand_system = random_system
rand_updirected = random_updirected_system


def rand_equivalence(seed: int, n: int) -> RelationalSystem:
    """Random partition via a restricted growth string."""
    rgs = [0]
    for i in range(1, n):
        rgs.append(mix(seed, i) % (max(rgs) + 2))
    pairs = [(i, j) for i in range(n) for j in range(n) if rgs[i] == rgs[j]]
    return from_id_pairs(tuple(f"e{i}" for i in range(n)), pairs)


def rand_lattice(seed: int, ground: int = 4, extra: int = 4):
    """A random sublattice of a powerset, as (system, elems, index map).

    Always contains bottom and top; closure under union/intersection makes
    every pair's join/meet exist, so the order is a lattice.
    """
    full = (1 << ground) - 1
    closed = {0, full}
    for j in range(extra):
        closed.add(mix(seed, j) % (full + 1))
    changed = True
    while changed:
        changed = False
        for x, y in itertools.combinations(sorted(closed), 2):
            for z in (x | y, x & y):
                if z not in closed:
                    closed.add(z)
                    changed = True
    elems = sorted(closed)
    idx = {v: i for i, v in enumerate(elems)}
    labels = tuple(f"n{i}" for i in range(len(elems)))
    pairs = [
        (idx[x], idx[y]) for x in elems for y in elems if x | y == y
    ]
    return from_id_pairs(labels, pairs), elems, idx


def sample_masks(seed: int, n: int, count: int):
    """Deterministic subset masks, exhaustive when the space is small."""
    total = 1 << n
    if total <= count:
        return list(range(total))
    return [mix(seed, k) % total for k in range(count)]


def every_relation(n: int):
    """Every relation on n elements, in the order of its pair code."""
    cells = list(itertools.product(range(n), repeat=2))
    for code in range(1 << n * n):
        yield from_id_pairs(
            tuple(f"e{i}" for i in range(n)),
            [ab for k, ab in enumerate(cells) if code >> k & 1],
        )


def label_pairs(sys: RelationalSystem):
    return [
        (sys.labels[a], sys.labels[b])
        for a in range(sys.n)
        for b in range(sys.n)
        if sys.succ[a] >> b & 1
    ]


# --- acceptance criterion reporting -------------------------------------

ACCEPTANCE_LINES: list[tuple[int, str, str]] = []


def record_criterion(number: int, ok: bool, detail: str) -> None:
    ACCEPTANCE_LINES.append((number, "PASS" if ok else "FAIL", detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number, status, detail in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(f"criterion {number:2d}: {status} - {detail}")
