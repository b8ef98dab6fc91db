"""The closure route for the pi operators: approx_pi, the pi granule seeds
and the pair algebra's per-call meet and negation read Sg alone, through
Groupoid.closures and piappr.minimal_closed_supersets. Each is checked
against the subgroupoid family and against tests/oracles.py."""

import itertools
from functools import partial, reduce
from operator import or_

import pytest

import oracles
from conftest import every_relation, mix, rand_updirected, sample_masks

from dirough._bits import is_subset
from dirough.acp import AcpElement, _PairOps, acp_neg, acp_op
from dirough.audit import _AUDIT_STRATEGIES, OPERATORS, AuditInstance
from dirough.cluster import _seeds
from dirough.errors import CapExceededError
from dirough.grpd import ChoiceStrategy, Groupoid, build_updir_groupoid, generate
from dirough.piappr import approx_pi, minimal_closed_supersets


def minimal(masks):
    """The inclusion-minimal masks among the given ones, which come
    smallest first, so no later mask lies below a kept one."""
    kept = []
    for m in masks:
        if not any(is_subset(k, m) for k in kept):
            kept.append(m)
    return set(kept)


def family_path(g, A):
    """(l_pi, u_pi, u_a) of A read from the listed subgroupoid family."""
    fam = g.subgroupoids
    above = minimal([m for m in fam.members if is_subset(A, m) and m != A])
    return fam.within[A], fam.least[A], reduce(or_, above, A)


def closure_route(g, A):
    return tuple(approx_pi(g, A, op) for op in ("l_pi", "u_pi", "u_a"))


def pi_seeds(g):
    return set(minimal_closed_supersets(partial(generate, g), 0, g.full_mask))


def label_table(g):
    uni = g.labels
    return {(uni[a], uni[b]): uni[g.table[a][b]] for a in range(g.n) for b in range(g.n)}


def labelled(g, mask):
    return frozenset(g.set_labels(mask))


def sample_pairs(g, count):
    """Valid pairs of closed sets: every one when there are at most count,
    else a seeded sample."""
    members = g.subgroupoids.members
    pairs = [AcpElement(X, Y) for X in members for Y in members if is_subset(X, Y)]
    if len(pairs) <= count:
        return pairs
    return [pairs[mix(g.n, len(pairs), k) % len(pairs)] for k in range(count)]


def check_groupoid(g, subsets, pair_count=12):
    """The closure route against the family path on the given subsets and
    on sampled pairs, and against the oracles on the same subsets."""
    fam = g.subgroupoids
    uni, table = list(g.labels), label_table(g)
    closed = oracles.closed_sets(uni, table)
    seeds = pi_seeds(g)
    assert seeds == minimal([m for m in fam.members if m])
    assert {labelled(g, m) for m in seeds} == {
        H for H in closed if H and not any(K and K < H for K in closed)
    }
    for A in subsets:
        lo, up, ua = closure_route(g, A)
        assert (lo, up, ua) == family_path(g, A), (g.table, A)
        a = g.set_labels(A)
        assert labelled(g, lo) == oracles.pi_lower(uni, table, a)
        assert labelled(g, up) == oracles.generate(uni, table, a)
        assert labelled(g, ua) == oracles.anti_upper(uni, table, a)
    tables = _PairOps(g, tables=True)
    for x, y in itertools.pairwise(sample_pairs(g, pair_count)):
        meet, neg = acp_op(g, x, y, "meet"), acp_neg(g, x)
        assert meet == tables.op(x, y, "meet") and neg == tables.neg(x)
        lx = (labelled(g, x.first), labelled(g, x.second))
        ly = (labelled(g, y.first), labelled(g, y.second))
        assert (labelled(g, meet.first), labelled(g, meet.second)) == oracles.acp_meet(
            uni, table, closed, lx, ly
        )
        assert (labelled(g, neg.first), labelled(g, neg.second)) == oracles.acp_neg(
            uni, table, closed, lx
        )


def total_tables(n):
    labels = tuple("pq"[:n])
    for cells in itertools.product(range(n), repeat=n * n):
        yield Groupoid(labels, tuple(cells[a * n:(a + 1) * n] for a in range(n)))


def test_every_total_table_up_to_2():
    count = 0
    for n in (1, 2):
        for g in total_tables(n):
            check_groupoid(g, range(1 << n), pair_count=20)
            count += 1
    assert count == 1 + 16


@pytest.mark.parametrize("n", range(3, 7))
def test_seeded_tables(n):
    for seed in range(8):
        cells = tuple(tuple(mix(seed, n, a, b) % n for b in range(n)) for a in range(n))
        g = Groupoid(tuple(f"v{i}" for i in range(n)), cells)
        check_groupoid(g, range(1 << n))


def test_every_updirected_relation_on_3_under_the_audit_strategies():
    """The 175 up-directed relations on three elements, each under the five
    audit strategies; the auditor's u_a, which reads the family's least
    table, and cluster's pi seeds agree as well."""
    count = 0
    for sys in every_relation(3):
        if not sys.up_directed:
            continue
        count += 1
        for name, strategy in _AUDIT_STRATEGIES:
            g = build_updir_groupoid(sys, strategy)
            check_groupoid(g, range(8), pair_count=20)
            inst = AuditInstance(name, sys, g)
            assert [OPERATORS["u_a"].fn(inst, A) for A in range(8)] == [
                approx_pi(g, A, "u_a") for A in range(8)
            ]
            assert set(_seeds(sys, g, "pi", "granule")) == pi_seeds(g)
    assert count == 175


@pytest.mark.parametrize("n", range(3, 11))
def test_seeded_pi_groupoids(n):
    """Every subset against the family, a sample against the oracles."""
    for seed in range(3):
        g = build_updir_groupoid(rand_updirected(seed, n), ChoiceStrategy.seeded(seed, True))
        subsets = range(1 << n) if n <= 6 else sample_masks(seed, n, 12)
        check_groupoid(g, subsets)
        for A in range(1 << n):
            assert closure_route(g, A) == family_path(g, A), (seed, A)


@pytest.mark.parametrize("n", [17, 18])
def test_past_the_default_cap_against_the_family(n, monkeypatch):
    """On a closed set u_a takes the minimality test; each member is one."""
    monkeypatch.setenv("DIROUGH_CAP", str(n))
    g = build_updir_groupoid(rand_updirected(n, n), ChoiceStrategy.seeded(n, True))
    fam = g.subgroupoids
    subsets = list(sample_masks(n, n, 40)) + list(fam.members[:: max(1, len(fam) // 40)])
    for A in subsets:
        assert closure_route(g, A) == family_path(g, A), A
    assert pi_seeds(g) == minimal([m for m in fam.members if m])
    tables = _PairOps(g, tables=True)
    for x, y in itertools.pairwise(sample_pairs(g, 16)):
        assert acp_op(g, x, y, "meet") == tables.op(x, y, "meet")
        assert acp_neg(g, x) == tables.neg(x)


def test_the_closure_route_lists_no_family(monkeypatch):
    monkeypatch.delenv("DIROUGH_CAP", raising=False)
    g = build_updir_groupoid(rand_updirected(20, 20), ChoiceStrategy.seeded(20, True))
    for A in sample_masks(20, 20, 20):
        closure_route(g, A)
    seeds = sorted(pi_seeds(g))
    x = AcpElement(seeds[0], generate(g, seeds[0] | seeds[-1]))
    y = AcpElement(seeds[-1], g.full_mask)
    acp_op(g, x, y, "meet")
    acp_neg(g, x)
    assert "subgroupoids" not in g.__dict__
    with pytest.raises(CapExceededError):
        g.subgroupoids


def test_closures_are_the_singleton_closures():
    g = build_updir_groupoid(rand_updirected(5, 9), ChoiceStrategy.seeded(5, True))
    assert g.closures == tuple(generate(g, 1 << x) for x in range(g.n))
    assert g.closures is g.closures
