import pytest

import oracles
from conftest import every_relation, label_pairs, rand_system, rand_updirected, sample_masks

from dirough.cud import (
    RoughTuple,
    approx_cud,
    cud_bounds,
    cud_family,
    cud_tuple,
    cudas_op,
    eth_closure,
    is_cud,
)
from dirough.errors import CapExceededError, LawError, NotUpDirectedError, StructureError
from dirough.fixtures import section6_system
from dirough.grpd import ChoiceStrategy, build_updir_groupoid
from dirough.relsys import RelationalSystem, build_relation


@pytest.fixture(scope="module")
def F():
    return section6_system()


def chain_xy():
    return build_relation(["x", "y"], [("x", "y"), ("y", "y")])


class TestIsCud:
    def test_empty(self, F):
        assert is_cud(F, 0)

    def test_cf(self, F):
        assert is_cud(F, F.mask(["c", "f"]))

    def test_ab_not(self, F):
        assert not is_cud(F, F.mask(["a", "b"]))

    def test_singleton_iff_loop(self, F):
        for x in range(F.n):
            assert is_cud(F, 1 << x) == F.has(x, x)

    def test_matches_oracle(self):
        for seed in range(30):
            sys = rand_system(seed, 5)
            uni, prs = list(sys.labels), label_pairs(sys)
            for A in sample_masks(seed, sys.n, 20):
                assert is_cud(sys, A) == oracles.is_cud(uni, prs, set(sys.set_labels(A)))


class TestFamily:
    def test_fixture_count(self, F):
        # the printed granule list has twenty sets; the empty set joins them
        assert len(cud_family(F).members) == 21

    def test_chain(self):
        sys = chain_xy()
        got = {sys.set_labels(m) for m in cud_family(sys).members}
        assert got == {(), ("y",), ("x", "y")}

    def test_bounded(self, F):
        members = cud_family(F).members
        assert members[0] == 0 and members[-1] == F.full_mask

    def test_matches_oracle(self):
        # every relation with n <= 3 (512 at n = 3), then seeded ones
        systems = [sys for n in range(4) for sys in every_relation(n)]
        systems += [rand_system(seed, 5) for seed in range(20)]
        for sys in systems:
            got = [frozenset(sys.set_labels(m)) for m in cud_family(sys).members]
            assert got == oracles.cud_family(list(sys.labels), label_pairs(sys)), sys.succ

    def test_cap(self, monkeypatch):
        labs = [f"x{i}" for i in range(20)]
        sys = build_relation(labs, [(x, x) for x in labs])
        with pytest.raises(CapExceededError):
            cud_family(sys)
        monkeypatch.setenv("DIROUGH_CAP", "20")
        cud_family(sys)


class TestEthClosure:
    def test_tie_broken_lexicographically(self, F):
        # minimal CUD supersets of {a,b} are {a,b,c} and {a,b,f}
        got = eth_closure(F, F.mask(["a", "b"]))
        assert F.set_labels(got) == ("a", "b", "c")

    def test_fixed_on_cud_sets(self, F):
        for H in cud_family(F).members:
            assert eth_closure(F, H) == H

    def test_empty_and_full(self, F):
        assert eth_closure(F, 0) == 0
        assert eth_closure(F, F.full_mask) == F.full_mask

    def test_inclusion_and_idempotence(self):
        for seed in range(30):
            sys = rand_updirected(seed, 5)
            for A in sample_masks(seed, sys.n, 16):
                c = eth_closure(sys, A)
                assert A & ~c == 0
                assert eth_closure(sys, c) == c

    def test_matches_oracle(self):
        for seed in range(20):
            sys = rand_updirected(seed, 5)
            uni, prs = list(sys.labels), label_pairs(sys)
            for A in sample_masks(seed, sys.n, 12):
                got = frozenset(sys.set_labels(eth_closure(sys, A)))
                assert got == oracles.eth(uni, prs, set(sys.set_labels(A)))

    def test_no_superset(self):
        sys = build_relation(["x", "y"], [("x", "x"), ("y", "y")])
        with pytest.raises(NotUpDirectedError):
            eth_closure(sys, 0b11)

    def test_needs_updirected_system(self, monkeypatch):
        # {x} is CUD here, yet the system is not up-directed, as approx_cud
        # already refuses; the relation decides that before any family is
        # built, so a cap below the universe's size does not come into it
        two = build_relation(["x", "y"], [("x", "x"), ("y", "y")])
        three = build_relation(["x", "y", "z"], [("x", "x"), ("y", "y"), ("z", "z")])
        for sys, cap in ((two, None), (three, "2")):
            if cap is not None:
                monkeypatch.setenv("DIROUGH_CAP", cap)
            for op in (
                lambda: eth_closure(sys, 0b01),
                lambda: cudas_op(sys, 0b01, 0b01, "oplus"),
                lambda: cudas_op(sys, 0b11, 0b01, "odot"),
                lambda: approx_cud(sys, 0b01, "l"),
            ):
                with pytest.raises(NotUpDirectedError, match="need"):
                    op()


class TestCudas:
    def test_oplus_example(self, F):
        got = cudas_op(F, F.mask(["c"]), F.mask(["f"]), "oplus")
        assert F.set_labels(got) == ("c", "f")

    def test_odot_example(self, F):
        got = cudas_op(F, F.mask(["a", "c"]), F.mask(["b", "c"]), "odot")
        assert F.set_labels(got) == ("c",)

    def test_idempotent_and_commutative(self, F):
        members = cud_family(F).members
        for A in members:
            assert cudas_op(F, A, A, "oplus") == A
            assert cudas_op(F, A, A, "odot") == A
        for A in members[:8]:
            for B in members[:8]:
                for op in ("oplus", "odot"):
                    assert cudas_op(F, A, B, op) == cudas_op(F, B, A, op)

    def test_union_inclusion(self, F):
        members = cud_family(F).members
        for A in members[:10]:
            for B in members[:10]:
                assert A & ~cudas_op(F, A, B, "oplus") == 0

    def test_non_cud_operand(self, F):
        with pytest.raises(LawError):
            cudas_op(F, F.mask(["a", "b"]), 0, "oplus")
        with pytest.raises(LawError):
            cudas_op(F, 0, F.mask(["a", "b"]), "odot")

    def test_operand_outside_universe(self, F):
        with pytest.raises(LawError):
            cudas_op(F, F.full_mask + 1, 0, "oplus")

    def test_operands_are_the_family(self, F):
        """An operand is accepted exactly when is_cud accepts it."""
        for A in range(F.full_mask + 1):
            try:
                cudas_op(F, A, A, "oplus")
                accepted = True
            except LawError:
                accepted = False
            assert accepted == is_cud(F, A)


class TestApprox:
    def test_paper_values(self, F):
        A = F.mask(["e", "b", "c"])
        assert F.set_labels(approx_cud(F, A, "l")) == ("b", "c")
        assert F.set_labels(approx_cud(F, A, "u")) == ("b", "c", "e", "f")
        assert F.set_labels(approx_cud(F, A, "u", "collection")) == ("b", "c", "e", "f")

    def test_top_splits_by_mode(self, F):
        assert approx_cud(F, F.full_mask, "u") == F.full_mask
        got = approx_cud(F, F.full_mask, "u", "collection")
        assert F.set_labels(got) == ("c", "f")

    def test_matches_oracles(self):
        for seed in range(20):
            sys = rand_updirected(seed, 5)
            uni, prs = list(sys.labels), label_pairs(sys)
            for A in sample_masks(seed, sys.n, 10):
                labs = set(sys.set_labels(A))
                assert set(sys.set_labels(approx_cud(sys, A, "l"))) == set(
                    oracles.cud_lower(uni, prs, labs)
                )
                assert set(sys.set_labels(approx_cud(sys, A, "u"))) == set(
                    oracles.cud_upper_pointwise(uni, prs, labs)
                )
                assert set(
                    sys.set_labels(approx_cud(sys, A, "u", "collection"))
                ) == set(oracles.cud_upper_collection(uni, prs, labs))

    def test_sandwich_pointwise(self):
        for seed in range(25):
            sys = rand_updirected(seed, 5)
            for A in sample_masks(seed, sys.n, 12):
                lo = approx_cud(sys, A, "l")
                up = approx_cud(sys, A, "u")
                assert lo & ~A == 0
                assert A & ~up == 0

    def test_not_updirected_rejected(self):
        sys = build_relation(["a", "b"], [("a", "b")])
        for op, mode in (("l", "pointwise"), ("u", "pointwise"), ("u", "collection")):
            with pytest.raises(NotUpDirectedError):
                approx_cud(sys, sys.mask(["a"]), op, mode)

    def test_bad_args(self, F):
        with pytest.raises(LawError):
            approx_cud(F, F.full_mask, "x")
        with pytest.raises(LawError):
            approx_cud(F, F.full_mask, "u", "other")
        with pytest.raises(LawError):
            approx_cud(F, 1 << F.n, "l")


def oracle_bounds(sys, A):
    """(lower, pointwise upper, collection upper) of A from tests/oracles.py."""
    uni, prs, a = list(sys.labels), label_pairs(sys), set(sys.set_labels(A))
    return tuple(
        sys.mask(f(uni, prs, a))
        for f in (oracles.cud_lower, oracles.cud_upper_pointwise, oracles.cud_upper_collection)
    )


def both_modes(sys, A):
    lo, up = cud_bounds(sys, A)
    lo_c, coll = cud_bounds(sys, A, "collection")
    assert lo_c == lo
    return lo, up, coll


def minimal(masks):
    return {m for m in masks if not any(k != m and k & ~m == 0 for k in masks)}


class TestBounds:
    """cud_bounds reads the per-element minimal members; each side is
    checked against the oracles and against the whole-lattice tables."""

    def test_every_subset_of_every_updirected_relation_up_to_3(self):
        checked = 0
        for n in range(4):
            for sys in every_relation(n):
                if not sys.up_directed:
                    continue
                checked += 1
                for A in range(1 << n):
                    assert both_modes(sys, A) == oracle_bounds(sys, A), (sys.succ, A)
        assert checked == 1 + 1 + 7 + 175

    @pytest.mark.parametrize("n", range(4, 11))
    def test_seeded_systems_against_the_oracles(self, n):
        for seed in range(2):
            sys = rand_updirected(seed, n)
            for A in sample_masks(seed, n, 4):
                assert both_modes(sys, A) == oracle_bounds(sys, A), (seed, A)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_subset_against_the_tables(self, n):
        for seed in range(3):
            sys = rand_updirected(seed, n)
            fam = sys.cud_family
            for A in range(1 << n):
                assert cud_bounds(sys, A) == (fam.within[A], fam.pointwise_upper[A]), A

    def test_the_minimal_members_by_brute_force(self):
        for seed in range(6):
            for sys in (rand_updirected(seed, 6), rand_system(seed, 6)):
                fam = cud_family(sys)
                members = fam.members
                for x in range(sys.n):
                    want = minimal([m for m in members if m >> x & 1])
                    assert sorted(fam.minimal_holding[x]) == sorted(want)
                for A in sample_masks(seed, sys.n, 16):
                    want = minimal([m for m in members if m & A])
                    assert sorted(fam.minimal_meeting(A)) == sorted(want)

    def test_on_subgroupoid_families_the_minimal_member_is_the_closure(self):
        for seed in range(4):
            for pi in (False, True):
                g = build_updir_groupoid(rand_updirected(seed, 7), ChoiceStrategy.seeded(seed, pi))
                held = g.subgroupoids.minimal_holding
                assert held == tuple((c,) for c in g.closures)

    def test_reflexive_lists_no_family(self, monkeypatch):
        monkeypatch.delenv("DIROUGH_CAP", raising=False)
        base = rand_updirected(20, 20)
        sys = RelationalSystem(base.labels, tuple(r | 1 << i for i, r in enumerate(base.succ)))
        for A in sample_masks(20, 20, 8):
            assert both_modes(sys, A) == (A, A, A)
            assert cud_tuple(sys, A) == RoughTuple(A, A)
        assert "cud_family" not in sys.__dict__
        with pytest.raises(CapExceededError):
            cud_bounds(base, 1)

    def test_checks_in_order(self):
        """The set, then the mode, then up-directedness."""
        sys = build_relation(["a", "b"], [("a", "a"), ("b", "b")])
        with pytest.raises(LawError, match="universe"):
            cud_bounds(sys, 1 << 2, "other")
        with pytest.raises(LawError, match="mode"):
            cud_bounds(sys, 1, "other")
        with pytest.raises(NotUpDirectedError):
            cud_bounds(sys, 1)


class TestTuples:
    def test_fixture_tuple(self, F):
        t = cud_tuple(F, F.mask(["e", "b", "c"]))
        assert F.set_labels(t.lower) == ("b", "c")
        assert F.set_labels(t.upper) == ("b", "c", "e", "f")
        assert F.set_labels(t.boundary) == ("e", "f")

    def test_empty_and_top(self, F):
        assert cud_tuple(F, 0) == RoughTuple(0, 0)
        assert cud_tuple(F, F.full_mask) == RoughTuple(F.full_mask, F.full_mask)

    def test_invariants_enforced(self):
        with pytest.raises(StructureError):
            RoughTuple(0b11, 0b01)

