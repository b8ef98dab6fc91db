"""Naive reference implementations used to cross-check the library.

Most of them work on frozensets of labels and dict-of-set relations; the
per-subset scans take id masks, and the numpy references arrays. None
shares code with the package. Slow is fine; they run on small instances,
or one subset at a time.
"""

from __future__ import annotations

import math
from itertools import chain, combinations


def powerset(universe):
    xs = sorted(universe)
    return [
        frozenset(c) for c in chain.from_iterable(
            combinations(xs, r) for r in range(len(xs) + 1)
        )
    ]


def succ_map(universe, pairs):
    out = {x: set() for x in universe}
    for x, y in pairs:
        out[x].add(y)
    return out


def pred_map(universe, pairs):
    out = {x: set() for x in universe}
    for x, y in pairs:
        out[y].add(x)
    return out


def nbd_lower(universe, pairs, A):
    pred = pred_map(universe, pairs)
    out = set()
    for a in universe:
        if pred[a] <= set(A):
            out |= pred[a]
    return frozenset(out)


def nbd_upper(universe, pairs, A):
    pred = pred_map(universe, pairs)
    out = set()
    for a in universe:
        if pred[a] & set(A):
            out |= pred[a]
    return frozenset(out)


def upper_bound_set(universe, pairs, a, b):
    succ = succ_map(universe, pairs)
    return frozenset(succ[a] & succ[b])


def is_up_directed(universe, pairs):
    return all(
        upper_bound_set(universe, pairs, a, b)
        for a in universe
        for b in universe
    )


def is_cud(universe, pairs, A):
    return all(
        upper_bound_set(universe, pairs, a, b) & set(A)
        for a in A
        for b in A
    )


def cud_family(universe, pairs):
    return [A for A in powerset(universe) if is_cud(universe, pairs, A)]


def eth(universe, pairs, A):
    """Least CUD superset by (cardinality, sorted label tuple)."""
    best = None
    for H in cud_family(universe, pairs):
        if set(A) <= H:
            key = (len(H), tuple(sorted(H)))
            if best is None or key < best[0]:
                best = (key, H)
    return None if best is None else best[1]


def cud_lower(universe, pairs, A):
    out = set()
    for H in cud_family(universe, pairs):
        if H <= set(A):
            out |= H
    return frozenset(out)


def cud_upper_pointwise(universe, pairs, A):
    fam = cud_family(universe, pairs)
    out = set()
    for x in A:
        holding = [H for H in fam if x in H]
        for H in holding:
            if not any(K < H for K in holding):
                out |= H
    return frozenset(out)


def cud_upper_collection(universe, pairs, A):
    fam = [H for H in cud_family(universe, pairs) if H & set(A)]
    out = set()
    for H in fam:
        if not any(K < H for K in fam):
            out |= H
    return frozenset(out)


def minimal_union(members, n):
    """For each element x, the union of the inclusion-minimal members that
    hold x; members are masks, smallest first, so no later member lies
    below a kept one. One pass over the family per element."""
    out = []
    for x in range(n):
        kept = []
        for m in members:
            if m >> x & 1 and not any(k & ~m == 0 for k in kept):
                kept.append(m)
        union = 0
        for H in kept:
            union |= H
        out.append(union)
    return tuple(out)


def closed_sets(labels, table):
    """All product-closed subsets; table maps (a, b) -> product label."""
    out = []
    for A in powerset(labels):
        if all(table[(a, b)] in A for a in A for b in A):
            out.append(A)
    return out


def cud_masks(succ):
    """Every CUD subset as a mask, in increasing order, testing the 2^n
    subsets one at a time; succ[a] is the mask of a's successors."""
    out = []
    for A in range(1 << len(succ)):
        elems = [a for a in range(len(succ)) if A >> a & 1]
        if all(succ[a] & succ[b] & A for i, a in enumerate(elems) for b in elems[i:]):
            out.append(A)
    return out


def closed_masks(table):
    """Every product-closed subset as a mask, in increasing order, testing
    the 2^n subsets one at a time; table[a][b] is the id of a.b."""
    out = []
    for A in range(1 << len(table)):
        elems = [a for a in range(len(table)) if A >> a & 1]
        if all(A >> table[a][b] & 1 for a in elems for b in elems):
            out.append(A)
    return out


def generate(labels, table, A):
    cur = set(A)
    while True:
        nxt = set(cur)
        for a in cur:
            for b in cur:
                nxt.add(table[(a, b)])
        if nxt == cur:
            return frozenset(cur)
        cur = nxt


def pi_lower(labels, table, A):
    out = set()
    for H in closed_sets(labels, table):
        if H <= set(A):
            out |= H
    return frozenset(out)


def anti_upper(labels, table, A):
    if set(A) == set(labels):
        return frozenset(labels)
    supers = [H for H in closed_sets(labels, table) if set(A) < H]
    out = set()
    for H in supers:
        if not any(K < H for K in supers):
            out |= H
    return frozenset(out)


# --- the pair algebra (ACP) ---------------------------------------------
# A pair is (first, second), two frozensets of labels. `closed` is
# closed_sets(labels, table), passed in so it is built once per groupoid.


def _closed_key(labels, H):
    """Smallest first, then by the sorted positions of the labels."""
    return (len(H), sorted(labels.index(a) for a in H))


def acp_formal_carrier(labels, table):
    closed = sorted(closed_sets(labels, table), key=lambda H: _closed_key(labels, H))
    return [(X, Y) for X in closed for Y in closed if X <= Y]


def acp_realized_carrier(labels, table):
    pairs = {
        (generate(labels, table, pi_lower(labels, table, A)), generate(labels, table, A))
        for A in powerset(labels)
    }
    return sorted(
        pairs, key=lambda p: (_closed_key(labels, p[0]), _closed_key(labels, p[1]))
    )


def acp_join(labels, table, x, y):
    return (generate(labels, table, x[0] | y[0]), generate(labels, table, x[1] | y[1]))


def acp_meet(labels, table, closed, x, y):
    inside = set()
    for H in closed:
        if H <= x[0] & y[0]:
            inside |= H
    return (generate(labels, table, inside), x[1] & y[1])


def acp_neg(labels, table, closed, x):
    def flat(A):
        out = set()
        for H in closed:
            if not H & A:
                out |= H
        return out

    return (generate(labels, table, flat(x[1])), generate(labels, table, flat(x[0])))


def acp_coprod(labels, table, x):
    return (generate(labels, table, x[0]), generate(labels, table, x[1]))


def reach_map(universe, pairs):
    """x -> every element reachable from x in zero or more steps: the
    reflexive-transitive closure, grown until it is stable."""
    reach = {x: {x} for x in universe}
    changed = True
    succ = succ_map(universe, pairs)
    while changed:
        changed = False
        for x in universe:
            grow = set()
            for y in reach[x]:
                grow |= succ[y]
            if not grow <= reach[x]:
                reach[x] |= grow
                changed = True
    return reach


def minimal_pseudo_joins(universe, pairs, a, b):
    """Minimal elements of U_R(a,b) under the reflexive-transitive preorder."""
    U = upper_bound_set(universe, pairs, a, b)
    reach = reach_map(universe, pairs)
    # keep u unless some v in U is strictly below it (v <* u, not u <* v)
    out = set()
    for u in U:
        below = [
            v for v in U
            if v != u and u in reach[v] and v not in reach[u]
        ]
        if not below:
            out.add(u)
    return frozenset(out)


def b_of_s_fault(labels, pairs, table, pi):
    """The first reason the Cayley table (rows of element positions) is
    not in the B(S) family of the relation, the pi family under pi, or
    None, in two walks over the cells in row-major order: every cell
    against the B(S) rule first, then, under pi, each cell against its
    pseudo joins and the choice made for its upper-bound set."""
    if not is_up_directed(labels, pairs):
        return "system is not up-directed"
    related = set(pairs)
    cells = [(a, b) for a in labels for b in labels]
    product = {(a, b): labels[table[i][j]]
               for i, a in enumerate(labels) for j, b in enumerate(labels)}
    for a, b in cells:
        allowed = {b} if (a, b) in related else upper_bound_set(labels, pairs, a, b)
        if product[a, b] not in allowed:
            return "explicit table violates the B(S) condition"
    if pi:
        chosen = {}
        for a, b in cells:
            v = product[a, b]
            if (a, b) in related:
                continue  # the B(S) rule has fixed v = b
            if v not in minimal_pseudo_joins(labels, pairs, a, b):
                return f"product {a}.{b} is not a pseudo join"
            if chosen.setdefault(upper_bound_set(labels, pairs, a, b), v) != v:
                return "choice does not factor through the upper-bound set"
    return None


def regions(labels, table, universe, pairs, A, B, kind):
    succ = succ_map(universe, pairs)
    A, B = set(A), set(B)
    S = set(labels)
    if kind == "n":
        return frozenset(
            b for b in B if any(table[(a, b)] == b for a in A)
        )
    out = set()
    for a in A:
        for b in B:
            c = table[(a, b)]
            if c not in succ[a] or c not in succ[b]:
                continue
            if kind == "o1" and c in S - A:
                out.add(c)
            elif kind == "o2" and c in S - B:
                out.add(c)
            elif kind == "i1" and c in A:
                out.add(c)
            elif kind == "i2" and c in B:
                out.add(c)
    if kind == "o":
        return regions(labels, table, universe, pairs, A, B, "o1") & regions(
            labels, table, universe, pairs, A, B, "o2"
        )
    return frozenset(out)


def step1(rows, rho, eps):
    """Index pairs (a, c) with row a componentwise <= row c and within eps
    of it."""
    out = set()
    for a, p in enumerate(rows):
        for c, q in enumerate(rows):
            if not all(y - x >= 0 for x, y in zip(p, q)):
                continue
            if rho == "euclidean":
                dist = math.sqrt(sum((y - x) ** 2 for x, y in zip(p, q)))
            else:
                dist = max((abs(y - x) for x, y in zip(p, q)), default=0.0)
            if dist <= eps:
                out.add((a, c))
    return out


def nasd(rows):
    """Mean ordered-pair squared euclidean distance over dimension."""
    if not rows:
        return None
    dim = len(rows[0])
    total = 0.0
    for p in rows:
        for q in rows:
            total += sum((a - b) ** 2 for a, b in zip(p, q))
    return total / (len(rows) ** 2) / dim


def band_variance(rows):
    if not rows:
        return None
    dim = len(rows[0])
    out = []
    for j in range(dim):
        col = [r[j] for r in rows]
        mean = sum(col) / len(col)
        out.append(sum((v - mean) ** 2 for v in col) / len(col))
    return tuple(out)


def numpy_component_score(rows, metric):
    """One cluster component's score as numpy gives it for that component
    alone: the per-band population variance of its rows, taken in id order
    with np.var, or for "nasd" twice its sum over the dimension; None for
    no rows. score_clusters must reproduce these bits."""
    if not rows:
        return None
    import numpy as np  # no other oracle needs it

    var = np.asarray(rows, dtype=float).var(axis=0)
    if metric == "nasd":
        return float(2 * var.sum() / len(var))
    return tuple(float(v) for v in var)


def numpy_first_failure(table, lhs, rhs, variables):
    """The first assignment of ids to variables, in C order (the first
    variable varies slowest), on which the terms lhs and rhs differ over
    the Cayley table; None when they agree everywhere. A term is a variable
    name or a (left, right) product. Both sides are evaluated over the
    whole assignment grid and np.argwhere picks the failure."""
    import numpy as np  # only this oracle and numpy_component_score need it

    T = np.asarray(table, dtype=np.intp)
    grids = dict(zip(variables, np.indices((len(table),) * len(variables))))

    def value(t):
        return grids[t] if isinstance(t, str) else T[value(t[0]), value(t[1])]

    bad = np.argwhere(value(lhs) != value(rhs))
    return tuple(int(i) for i in bad[0]) if len(bad) else None


def cancellation_failure(table):
    """The first e for which row e is injective while column e is not
    constantly e, or the other way round; None when there is none."""
    n = len(table)
    for e in range(n):
        injective = all(
            table[e][x] != table[e][y] for x in range(n) for y in range(n) if x != y
        )
        if injective != all(table[x][e] == e for x in range(n)):
            return e
    return None


def greedy_clusters(universe, candidates):
    """The greedy pass of cluster proposal. candidates are (support, lower)
    set pairs in rank order. A candidate is skipped when its lower is
    already covered or its support is nested with a chosen support; the
    pass stops once the lowers cover the universe. Returns the chosen pairs
    and how many candidates reached the nesting test while meeting a chosen
    support."""
    chosen, covered, met = [], set(), 0
    for support, lower in candidates:
        if covered == set(universe):
            break
        if lower <= covered:
            continue
        met += any(support & s for s, _ in chosen)
        if any(support <= s or s <= support for s, _ in chosen):
            continue
        chosen.append((support, lower))
        covered |= lower
    return chosen, met


def disclusion_pairs(clusters):
    """Index pairs (i, j), i < j, of clusters (support, lower, upper) whose
    supports are nested or whose lower and upper both coincide; every pair
    is tested."""
    bad = []
    for i, (si, li, ui) in enumerate(clusters):
        for j in range(i + 1, len(clusters)):
            sj, lj, uj = clusters[j]
            if si <= sj or sj <= si or (li == lj and ui == uj):
                bad.append((i, j))
    return bad


def select_by_union(lowers, ranked, k):
    """Indices kept when, worst-ranked first and until at most k remain,
    each cluster is dropped whose removal leaves the union of the kept
    lowers unchanged; the union is rebuilt for every test."""
    kept = set(ranked)
    target = set().union(*lowers)
    for i in reversed(ranked):
        if len(kept) <= k:
            break
        if set().union(*(lowers[j] for j in kept if j != i)) == target:
            kept.remove(i)
    return sorted(kept)
