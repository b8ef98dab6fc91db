import pytest

import oracles
from conftest import every_relation, label_pairs, mix, rand_system, sample_masks

from dirough.errors import (
    CapExceededError,
    InputFormatError,
    LabelError,
    LawError,
    StructureError,
)
from dirough.fixtures import section6_system
from dirough.relsys import (
    approx_basic,
    basic_bounds,
    build_relation,
    check_morphism,
    classify,
    dc_neighborhood,
    dump_relation,
    is_up_directed,
    neighborhood,
    parse_relation,
    require_cap,
    upper_bounds,
)


@pytest.fixture(scope="module")
def F():
    return section6_system()


class TestBuild:
    def test_fixture_has_fourteen_pairs(self, F):
        assert sum(s.bit_count() for s in F.succ) == 14
        assert F.labels == ("a", "b", "c", "e", "f")

    def test_empty_relation(self):
        sys = build_relation(["x"], [])
        assert sys.succ == (0,)

    def test_unknown_label_rejected(self):
        with pytest.raises(LabelError):
            build_relation(["x"], [("x", "y")])

    def test_duplicate_universe_label_rejected(self):
        with pytest.raises(LabelError):
            build_relation(["x", "x"], [])

    def test_duplicate_pairs_collapse(self):
        sys = build_relation(["x", "y"], [("x", "y"), ("x", "y")])
        assert sys.succ[0] == 0b10


class TestReach:
    def test_reflexive_transitive_closure(self):
        for seed in range(10):
            sys = rand_system(seed, 6)
            for x in range(sys.n):
                seen, todo = {x}, [x]
                while todo:
                    y = todo.pop()
                    for z in range(sys.n):
                        if sys.has(y, z) and z not in seen:
                            seen.add(z)
                            todo.append(z)
                assert sys.reach[x] == sum(1 << z for z in seen)

    def test_matches_oracle(self):
        """Every relation with n <= 3, then sparse to dense seeded systems
        with n = 5..40."""
        systems = [sys for n in range(1, 4) for sys in every_relation(n)]
        systems += [
            rand_system(seed, 5 + seed % 36, density)
            for seed in range(40) for density in (2, 5, 10, 35)
        ]
        assert len(systems) == 690
        for sys in systems:
            want = oracles.reach_map(sys.labels, label_pairs(sys))
            assert [set(sys.set_labels(m)) for m in sys.reach] == [want[x] for x in sys.labels]


class TestNeighborhood:
    def test_direct_b(self, F):
        assert F.set_labels(neighborhood(F, F.id("b"))) == ("c", "e", "f")

    def test_direct_e_empty(self, F):
        assert neighborhood(F, F.id("e")) == 0

    def test_direct_a_includes_c(self, F):
        # the printed table omits c, but the pair (c, a) is in the relation
        assert F.set_labels(neighborhood(F, F.id("a"))) == ("c", "e", "f")

    def test_inverse_is_succ(self, F):
        a = F.id("a")
        assert neighborhood(F, a, "inverse") == F.succ[a]

    def test_invalid_element(self, F):
        with pytest.raises(LabelError):
            neighborhood(F, 99)


class TestDcNeighborhood:
    def test_empty_reference_set(self, F):
        for x in range(F.n):
            assert dc_neighborhood(F, 0, x, "idc") == 0

    def test_idc_single_witness(self, F):
        got = dc_neighborhood(F, F.mask(["a"]), F.id("e"), "idc")
        assert F.set_labels(got) == ("f",)

    def test_idc_full_inside_inverse_neighborhood(self, F):
        for x in range(F.n):
            nu = dc_neighborhood(F, F.full_mask, x, "idc")
            assert nu & ~F.succ[x] == 0

    def test_nu1_equivalence(self):
        # e, f in [a] iff a in U_R(e, f)
        for seed in range(40):
            sys = rand_system(seed, 3 + seed % 5)
            for a in range(sys.n):
                nb = neighborhood(sys, a)
                for e in range(sys.n):
                    for f in range(sys.n):
                        lhs = bool(nb >> e & 1) and bool(nb >> f & 1)
                        rhs = bool(upper_bounds(sys, e, f) >> a & 1)
                        assert lhs == rhs


class TestUpperBounds:
    def test_fixture_ab(self, F):
        assert F.set_labels(upper_bounds(F, F.id("a"), F.id("b"))) == ("c", "f")

    def test_fixture_bc_erratum_cell(self, F):
        # printed {c}; both succ sets contain f as well
        assert F.set_labels(upper_bounds(F, F.id("b"), F.id("c"))) == ("c", "f")

    def test_lower_side(self, F):
        got = upper_bounds(F, F.id("a"), F.id("b"), "lower")
        assert F.set_labels(got) == ("c", "e", "f")

    def test_matches_oracle(self):
        for seed in range(30):
            sys = rand_system(seed, 4)
            uni = list(sys.labels)
            prs = label_pairs(sys)
            for a in range(sys.n):
                for b in range(sys.n):
                    got = set(sys.set_labels(upper_bounds(sys, a, b)))
                    want = oracles.upper_bound_set(uni, prs, uni[a], uni[b])
                    assert got == set(want)


class TestClassify:
    def test_fixture_profile(self, F):
        p = classify(F)
        assert p.up_directed and not p.reflexive and not p.antisymmetric
        assert not p.transitive and not p.symmetric

    def test_identity_relation(self):
        sys = build_relation(["x", "y"], [("x", "x"), ("y", "y")])
        p = classify(sys)
        assert p.reflexive and p.antisymmetric and p.transitive and p.symmetric
        assert not p.up_directed

    def test_up_directed_agrees_with_oracle(self):
        for seed in range(40):
            sys = rand_system(seed, 4)
            want = oracles.is_up_directed(list(sys.labels), label_pairs(sys))
            assert is_up_directed(sys) == want


class TestApproxBasic:
    def test_fixture_lower_empty(self, F):
        assert approx_basic(F, F.mask(["e", "b", "c"]), "l") == 0

    def test_fixture_upper_full(self, F):
        assert approx_basic(F, F.mask(["e", "b", "c"]), "u") == F.full_mask

    def test_empty_set(self, F):
        assert approx_basic(F, 0, "l") == 0
        assert approx_basic(F, 0, "u") == 0

    def test_matches_oracle(self):
        # every subset of every relation at n = 1..3 (4,164 cases, reflexive
        # or not, with and without empty neighborhoods), then every subset at
        # n = 1..7 from sparse systems to dense ones, most not up-directed
        systems = [sys for n in range(1, 4) for sys in every_relation(n)]
        systems += [
            rand_system(mix(seed, n, density), n, density)
            for n in range(1, 8) for density in (10, 35, 60, 90) for seed in range(3)
        ]
        seen_empty = seen_not_updirected = False
        for sys in systems:
            n, uni, prs = sys.n, list(sys.labels), label_pairs(sys)
            seen_empty |= 0 in sys.pred
            seen_not_updirected |= not is_up_directed(sys)
            for A in range(1 << n):
                labs = frozenset(sys.set_labels(A))
                lo, up = approx_basic(sys, A, "l"), approx_basic(sys, A, "u")
                assert frozenset(sys.set_labels(lo)) == oracles.nbd_lower(uni, prs, labs), sys
                assert frozenset(sys.set_labels(up)) == oracles.nbd_upper(uni, prs, labs), sys
            # every subset is now kept on the system, and a second call
            # returns what the first stored
            assert sorted(sys._bounds) == list(range(1 << n))
            for A, bounds in sys._bounds.items():
                labs = frozenset(sys.set_labels(A))
                assert basic_bounds(sys, A) is bounds
                assert [frozenset(sys.set_labels(b)) for b in bounds] == [
                    oracles.nbd_lower(uni, prs, labs), oracles.nbd_upper(uni, prs, labs)
                ]
        assert seen_empty and seen_not_updirected

    def test_memo_lives_on_its_system(self):
        a, b = rand_system(1, 5), rand_system(1, 5)
        assert a == b and a is not b
        cached = ("up", "nbds_by_least", "_bounds")
        # a set outside the universe raises before any table or memo exists
        with pytest.raises(LawError, match="not a subset of the universe"):
            basic_bounds(a, 1 << a.n)
        assert not any(name in a.__dict__ for name in cached)
        bounds = basic_bounds(a, 0b101)
        tables = (a.up, a.nbds_by_least)
        assert 0b101 in a._bounds and not any(name in b.__dict__ for name in cached)
        # built once: another set reads the same tables
        basic_bounds(a, 0b11010)
        assert a.up is tables[0] and a.nbds_by_least is tables[1]
        # an equal system builds its own, equal tables and memo
        assert basic_bounds(b, 0b101) == bounds
        assert (b.up, b.nbds_by_least) == tables
        assert b.up is not tables[0] and b.nbds_by_least is not tables[1]
        assert sorted(b._bounds) == [0b101]

    def test_outside_universe_never_stored(self, F):
        outside = 1 << F.n | 1
        for _ in range(2):
            with pytest.raises(LawError, match="not a subset of the universe"):
                basic_bounds(F, outside)
            with pytest.raises(LawError, match="not a subset of the universe"):
                approx_basic(F, outside, "u")
        assert outside not in F._bounds

    def test_errors(self, F):
        with pytest.raises(LawError):
            approx_basic(F, 0, "x")
        # a set outside the universe is reported before an unknown op
        with pytest.raises(LawError):
            approx_basic(F, 1 << F.n, "x")

    def test_containment_and_monotonicity(self):
        for seed in range(25):
            sys = rand_system(seed, 5)
            masks = sample_masks(seed, sys.n, 12)
            for A in masks:
                lo, up = approx_basic(sys, A, "l"), approx_basic(sys, A, "u")
                assert lo & ~A == 0
                assert lo & ~up == 0
                for B in masks:
                    if A & ~B == 0:
                        assert lo & ~approx_basic(sys, B, "l") == 0
                        assert up & ~approx_basic(sys, B, "u") == 0


class TestMorphism:
    def test_identity_strong(self, F):
        assert check_morphism(list(range(F.n)), F, F) == "strong"

    def test_constant_map_onto_c(self, F):
        c = F.id("c")
        assert check_morphism([c] * F.n, F, F) == "morphism"

    def test_swap_breaks_it(self, F):
        f = {i: i for i in range(F.n)}
        f[F.id("e")], f[F.id("f")] = F.id("f"), F.id("e")
        assert check_morphism(f, F, F) == "none"

    def test_partial_map_rejected(self, F):
        with pytest.raises(StructureError):
            check_morphism({0: 0}, F, F)


class TestTextFormats:
    def test_round_trip(self, F):
        assert parse_relation(dump_relation(F)) == F

    def test_comments_and_blanks(self):
        text = "elements: x y\n# comment\n\nx y  # trailing\n"
        sys = parse_relation(text)
        assert sys.succ == (0b10, 0)

    def test_missing_header(self):
        with pytest.raises(InputFormatError):
            parse_relation("x y\n")

    def test_bad_pair_line(self):
        with pytest.raises(InputFormatError):
            parse_relation("elements: x y\nx\n")


class TestCaps:
    def test_cap_violation(self):
        with pytest.raises(CapExceededError):
            require_cap(40, "test enumeration")

    def test_cap_override(self, monkeypatch):
        monkeypatch.setenv("DIROUGH_CAP", "64")
        require_cap(40, "test enumeration")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("DIROUGH_CAP", "5")
        with pytest.raises(CapExceededError):
            require_cap(6, "test enumeration")

    def test_negative_cap_rejected(self, monkeypatch):
        monkeypatch.setenv("DIROUGH_CAP", "-2")
        with pytest.raises(InputFormatError):
            require_cap(3, "test enumeration")
        monkeypatch.setenv("DIROUGH_CAP", "many")
        with pytest.raises(InputFormatError):
            require_cap(3, "test enumeration")
