"""The granule families' tables over all 2^n subsets, against the oracles."""

import pytest

import oracles
from conftest import every_relation, label_pairs, mix

from dirough._bits import (
    bits, element_slices, id_list, lattice_transform, lex_key, mask_of, rank_key,
)
from dirough.audit import _AUDIT_STRATEGIES, random_system, random_updirected_system
from dirough.grpd import build_updir_groupoid
from dirough.relsys import build_relation


def labelled(sys, mask):
    return None if mask is None else frozenset(sys.set_labels(mask))


def small_relations():
    """Every relation on at most three elements."""
    for n in range(4):
        yield from every_relation(n)


def test_cud_tables_match_oracles_on_every_relation_up_to_3():
    """Every subset of every relation with n <= 3; the eth and upper
    oracles apply to the up-directed ones, and on the others least says
    that no member contains A exactly where the oracle finds none."""
    checked = 0
    for sys in small_relations():
        uni, pairs = list(sys.labels), label_pairs(sys)
        fam = sys.cud_family
        for A in range(1 << sys.n):
            a = sys.set_labels(A)
            assert labelled(sys, fam.within[A]) == oracles.cud_lower(uni, pairs, a)
            assert labelled(sys, fam.least[A]) == oracles.eth(uni, pairs, a)
            if sys.up_directed:
                assert labelled(sys, fam.pointwise_upper[A]) == (
                    oracles.cud_upper_pointwise(uni, pairs, a)
                )
        checked += sys.up_directed
    assert checked == 1 + 1 + 7 + 175


def test_subgroupoid_tables_match_oracles_for_every_audit_strategy():
    """The groupoid of each audit strategy over every up-directed relation
    with n <= 3: within is the pi lower and least is Sg."""
    for sys in small_relations():
        if not sys.up_directed:
            continue
        for name, strategy in _AUDIT_STRATEGIES:
            g = build_updir_groupoid(sys, strategy)
            uni = list(g.labels)
            table = {(uni[a], uni[b]): uni[g.table[a][b]] for a in range(g.n) for b in range(g.n)}
            fam = g.subgroupoids
            for A in range(1 << g.n):
                a = g.set_labels(A)
                assert labelled(g, fam.within[A]) == oracles.pi_lower(uni, table, a), name
                assert labelled(g, fam.least[A]) == oracles.generate(uni, table, a), name


@pytest.mark.parametrize("n", [14, 15, 16])
def test_minimal_union_matches_the_n_pass_oracle(n):
    for sys in (random_updirected_system(n, n), random_system(n, n, 20)):
        fam = sys.cud_family
        assert fam.minimal_union == oracles.minimal_union(fam.members, n)


def test_least_says_when_no_member_contains_the_set():
    """The CUD family of a system that is not up-directed misses the
    universe; least gives None there, never the universe."""
    sys = build_relation(["x", "y"], [("x", "x"), ("y", "y")])
    fam = sys.cud_family
    assert not sys.up_directed and fam.members == (0, 1, 2)
    assert fam.least == (0, 1, 2, None)


@pytest.mark.parametrize("width", range(6))
def test_element_slices(width):
    slices = element_slices(width)
    assert len(slices) == width
    for e, word in enumerate(slices):
        assert word == sum(1 << A for A in range(1 << width) if A >> e & 1)


def test_lattice_transform_folds_subsets_and_supersets():
    for n in range(7):
        values = [3 * A + 1 for A in range(1 << n)]
        up = lattice_transform(list(values), lambda a, b: list(map(max, a, b)), upward=True)
        down = lattice_transform(list(values), lambda a, b: list(map(min, a, b)), upward=False)
        for A in range(1 << n):
            subsets = [values[B] for B in range(1 << n) if B & ~A == 0]
            supersets = [values[B] for B in range(1 << n) if A & ~B == 0]
            assert up[A] == max(subsets) and down[A] == min(supersets)


def wide_masks(seed, n, count):
    """Seeded n-bit masks: dense ones, ones of one to seven members, and
    variants of one mask in its top 8 bits, which agree on every lower byte."""
    full = (1 << n) - 1
    dense = [sum(mix(seed, k, w) << 64 * w for w in range(n // 64 + 1)) & full for k in range(count)]
    sparse = [mask_of(mix(seed, k, j) % n for j in range(1 + k % 7)) for k in range(count)]
    top = max(n - 8, 0)
    tails = [dense[0] & ~(255 << top) & full | v << top & full for v in range(256)]
    return dense + sparse + tails


@pytest.mark.parametrize("n", [10, 13, 63, 65, 550, 4001])
def test_id_list_is_bits(n):
    masks = range(1 << n) if n <= 10 else wide_masks(n, n, 100)
    for m in masks:
        assert id_list(m) == list(bits(m))


@pytest.mark.parametrize("n", [*range(11), 13, 64, 550, 4001])
def test_rank_key_orders_by_size_then_id_tuple(n):
    masks = range(1 << n) if n <= 10 else wide_masks(n, n, 100)
    want = sorted(masks, key=lambda m: (m.bit_count(), lex_key(m)))
    assert sorted(masks, key=rank_key(n)) == want
