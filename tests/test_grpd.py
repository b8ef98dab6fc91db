import ast
import gc
import hashlib
import itertools
import re
import weakref

import pytest

import oracles
from conftest import (
    every_relation, label_pairs, rand_equivalence, rand_system, rand_updirected,
)

from dirough._bits import mix
from dirough.cud import cud_family
from dirough.errors import (
    InputFormatError,
    LawError,
    NotUpDirectedError,
    StructureError,
)
from dirough.fixtures import section6_groupoid, section6_system
from dirough.grpd import (
    ALL_LAWS,
    E_CONSEQUENCES,
    ChoiceStrategy,
    Groupoid,
    b_of_s_fault,
    build_order_groupoid,
    build_updir_groupoid,
    check_laws,
    dump_cayley,
    generate,
    is_closed,
    law_violation,
    parse_cayley,
    pseudo_joins,
    relation_of,
    subgroupoids,
    verify_b_of_s,
)
from dirough.grpd import _EQUATIONAL_LAWS, _parse_equation
from dirough.relsys import build_relation, classify, from_id_pairs, is_up_directed


@pytest.fixture(scope="module")
def F():
    return section6_system()


@pytest.fixture(scope="module")
def G(F):
    return section6_groupoid()


def total_system(n):
    labs = [f"t{i}" for i in range(n)]
    return build_relation(labs, [(x, y) for x in labs for y in labs])


def every_table(n):
    """Every Cayley table on n elements."""
    labels = tuple(f"g{i}" for i in range(n))
    for cells in itertools.product(range(n), repeat=n * n):
        yield Groupoid(labels, tuple(cells[a * n:(a + 1) * n] for a in range(n)))


def seeded_table(seed, n):
    labels = tuple(f"g{i}" for i in range(n))
    return Groupoid(labels, tuple(
        tuple(mix(seed, a, b) % n for b in range(n)) for a in range(n)
    ))


def chain_groupoid(n):
    labels = tuple(f"c{i}" for i in range(n))
    return build_order_groupoid(
        from_id_pairs(labels, [(i, j) for i in range(n) for j in range(i, n)])
    )


def size_then_ids(m):
    return (bin(m).count("1"), [i for i in range(m.bit_length()) if m >> i & 1])


class TestPseudoJoins:
    def test_fixture_pair(self, F):
        pj = pseudo_joins(F, F.id("a"), F.id("b"))
        assert F.set_labels(pj) == ("c", "f")

    def test_empty_bounds_raise(self):
        sys = build_relation(["x", "y"], [("x", "x"), ("y", "y")])
        with pytest.raises(NotUpDirectedError):
            pseudo_joins(sys, 0, 1)

    def test_minimal_matches_oracle(self):
        for seed in range(30):
            sys = rand_updirected(seed, 4 + seed % 3)
            uni, prs = list(sys.labels), label_pairs(sys)
            for a in range(sys.n):
                for b in range(sys.n):
                    got = set(sys.set_labels(pseudo_joins(sys, a, b)))
                    assert got == oracles.minimal_pseudo_joins(uni, prs, uni[a], uni[b])

    def test_minimal_inside_bounds(self):
        for seed in range(20):
            sys = rand_updirected(seed, 5)
            for a in range(sys.n):
                for b in range(sys.n):
                    U = sys.succ[a] & sys.succ[b]
                    assert pseudo_joins(sys, a, b) & ~U == 0


class TestBuild:
    def test_order_groupoid_rule(self, F):
        g = build_order_groupoid(F)
        for a in range(F.n):
            for b in range(F.n):
                assert g.table[a][b] == (a if F.has(a, b) else b)

    def test_updir_tables_obey_bs(self, F):
        for strat in (
            ChoiceStrategy.min_index(),
            ChoiceStrategy.max_index(),
            ChoiceStrategy.seeded(7),
            ChoiceStrategy.seeded(7, pi_constrained=True),
        ):
            assert verify_b_of_s(F, build_updir_groupoid(F, strat))

    def test_seeded_is_deterministic(self, F):
        a = build_updir_groupoid(F, ChoiceStrategy.seeded(11))
        b = build_updir_groupoid(F, ChoiceStrategy.seeded(11))
        assert a.table == b.table

    def test_pi_constrained_factors_through_bound_set(self, F):
        g = build_updir_groupoid(F, ChoiceStrategy.seeded(3, pi_constrained=True))
        seen = {}
        for a in range(F.n):
            for b in range(F.n):
                if F.has(a, b):
                    continue
                U = F.succ[a] & F.succ[b]
                assert seen.setdefault(U, g.table[a][b]) == g.table[a][b]

    def test_explicit_table_checked(self, F):
        good = build_updir_groupoid(F, ChoiceStrategy.min_index())
        assert b_of_s_fault(F, good) is None and verify_b_of_s(F, good)
        bad = [list(row) for row in good.table]
        bad[F.id("e")][F.id("a")] = F.id("e")  # e.a must lie in U(e, a)
        g = Groupoid(F.labels, tuple(map(tuple, bad)))
        assert b_of_s_fault(F, g) == "explicit table violates the B(S) condition"
        assert not verify_b_of_s(F, g)

    def test_fault_needs_updirected_system_and_its_labels(self):
        # a two-cycle: every cell obeys the cell rule, but B(S) asks for an
        # up-directed system, and U(a, b) is empty
        sys = build_relation(["a", "b"], [("a", "b"), ("b", "a")])
        g = Groupoid(sys.labels, ((1, 1), (0, 0)))
        assert b_of_s_fault(sys, g) == "system is not up-directed"
        assert not verify_b_of_s(sys, g, pi=True)
        with pytest.raises(StructureError, match="universes differ"):
            verify_b_of_s(sys, Groupoid(("x", "y"), g.table))

    def test_not_updirected_rejected(self):
        sys = build_relation(["x", "y"], [("x", "x"), ("y", "y")])
        with pytest.raises(NotUpDirectedError):
            build_updir_groupoid(sys, ChoiceStrategy.min_index())

    def test_bad_strategy_args(self):
        with pytest.raises(LawError):
            ChoiceStrategy("seeded_random")
        with pytest.raises(LawError):
            ChoiceStrategy("other")
        # a given table is checked by b_of_s_fault, not built by a strategy
        with pytest.raises(LawError):
            ChoiceStrategy("explicit")


# sha256 over dump_cayley of every table one strategy builds for
# rand_updirected(seed, n), seeds 0-39 and n = 2-7 in that order, recorded
# from an implementation that wrote the B(S) cell rule out in each loop
BS_TABLE_PINS = {
    ("min", False): "4f65ce762ea7fece63da6a06ac60381151dd31e562d72f03ddca0da227fcb3d8",
    ("min", True): "92b904cfd7dc7fcd17e323e9d21098ab3ae6e6665197e1eec4c0ed70e41d8fdd",
    ("max", False): "a9830e872d33aea1ad41143f487bfb50cb7743ca994285e92e9af3fa0128385f",
    ("max", True): "3af9dc2eea099d77f8491ba388d5156b44c3bed49c9bb20848541e6fbe8f31db",
    ("seeded", False): "8e54c0b21493fad0ff46dc336e9b4e9e6a1cdc31822daa7a069544c696c952a4",
    ("seeded", True): "cca9b8eefe6a9bbf0984eb6c4feeb819ecc3bd050c7e0b21477ca9c8ce5274a8",
}


def pinned_strategy(kind, seed, pi):
    if kind == "seeded":
        return ChoiceStrategy.seeded(seed, pi_constrained=pi)
    return getattr(ChoiceStrategy, f"{kind}_index")(pi_constrained=pi)


class TestBSPins:
    @pytest.mark.parametrize("kind,pi", sorted(BS_TABLE_PINS))
    def test_tables_pinned(self, kind, pi):
        h = hashlib.sha256()
        for seed in range(40):
            for n in range(2, 8):
                g = build_updir_groupoid(rand_updirected(seed, n), pinned_strategy(kind, seed, pi))
                h.update(dump_cayley(g).encode())
        assert h.hexdigest() == BS_TABLE_PINS[kind, pi]

    def test_tables_in_their_family(self):
        """Every table is a B(S) member and every pi strategy's table a
        pi-groupoid, while 162 of the 720 other tables are not."""
        outside_pi = 0
        for seed in range(40):
            for n in range(2, 8):
                sys = rand_updirected(seed, n)
                for kind, pi in BS_TABLE_PINS:
                    g = build_updir_groupoid(sys, pinned_strategy(kind, seed, pi))
                    assert verify_b_of_s(sys, g), (seed, n, kind, pi)
                    if pi:
                        assert verify_b_of_s(sys, g, pi=True), (seed, n, kind)
                    else:
                        outside_pi += not verify_b_of_s(sys, g, pi=True)
        assert outside_pi == 162

    @pytest.mark.parametrize("strat,message", [
        (ChoiceStrategy.max_index(), "product v2.v2 is not a pseudo join"),
        (ChoiceStrategy.seeded(1), "choice does not factor through the upper-bound set"),
    ])
    def test_explicit_pi_errors(self, strat, message):
        sys = rand_updirected(0, 5)
        g = build_updir_groupoid(sys, strat)
        # a B(S) member, so only the pi conditions can reject it
        assert b_of_s_fault(sys, g) is None
        assert b_of_s_fault(sys, g, pi=True) == message
        assert not verify_b_of_s(sys, g, pi=True)
        # breaking a forced cell as well: the B(S) verdict comes first
        a, b = next((a, b) for a in range(sys.n) for b in range(sys.n) if sys.has(a, b))
        bad = [list(row) for row in g.table]
        bad[a][b] = (b + 1) % sys.n
        bad_g = Groupoid(sys.labels, tuple(map(tuple, bad)))
        assert b_of_s_fault(sys, bad_g, pi=True) == "explicit table violates the B(S) condition"


class TestRoundTrip:
    def test_fixture_relation_recovered(self, F, G):
        assert relation_of(G) == F

    def test_random_updirected_recovered(self):
        for seed in range(60):
            sys = rand_updirected(seed, 3 + seed % 5)
            for strat in (
                ChoiceStrategy.min_index(),
                ChoiceStrategy.max_index(),
                ChoiceStrategy.seeded(seed),
            ):
                assert relation_of(build_updir_groupoid(sys, strat)) == sys

    def test_rstar_extends_r(self, G):
        r = relation_of(G)
        rs = relation_of(G, "Rstar")
        for a in range(G.n):
            assert r.succ[a] & ~rs.succ[a] == 0


class TestEquationalLaws:
    def test_equivalence_satisfies_everything(self):
        for seed in range(60):
            sys = rand_equivalence(seed, 3 + seed % 5)
            g = build_order_groupoid(sys)
            law_set = ("E1", "E2", "E3", "E4", "E5") + E_CONSEQUENCES
            report = check_laws(g, law_set)
            assert all(report.values()), [k for k, v in report.items() if not v]

    def test_total_relation_groupoid(self):
        g = build_updir_groupoid(total_system(3), ChoiceStrategy.min_index())
        report = check_laws(
            g, ("idempotence", "symmetry", "transitivity", "associativity",
                "commutativity", "antisymmetry")
        )
        assert report["idempotence"] and report["symmetry"]
        assert report["transitivity"] and report["associativity"]
        assert not report["commutativity"] and not report["antisymmetry"]

    def test_violation_witness_evaluates(self):
        g = build_updir_groupoid(total_system(3), ChoiceStrategy.min_index())
        w = law_violation(g, "commutativity")
        a, b = g.id(w["a"]), g.id(w["b"])
        assert g.table[a][b] != g.table[b][a]
        assert w["equation"] == "ab = ba"

    def test_no_witness_when_law_holds(self):
        g = build_updir_groupoid(total_system(3), ChoiceStrategy.min_index())
        assert law_violation(g, "idempotence") is None

    def test_unknown_law(self, G):
        with pytest.raises(LawError):
            check_laws(G, ("E99",))

    def test_all_laws_cover_default(self, G):
        assert set(check_laws(G)) == set(ALL_LAWS)

    def test_cancellation_direction(self):
        # one non-idempotent cell makes row p non-injective while column p
        # stays constantly p, so the two sides of the equivalence split
        g = Groupoid(("p", "q"), ((0, 0), (0, 1)))
        assert not check_laws(g, ("EC14",))["EC14"]
        assert law_violation(g, "EC14") == {"e": "p"}


def _python_term(side):
    """A law side read by Python's own parser, with juxtaposition written
    as the left-associative *; a product becomes a (left, right) pair."""
    def term(node):
        if isinstance(node, ast.Name):
            return node.id
        assert isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
        return term(node.left), term(node.right)

    return term(ast.parse(re.sub(r"(?<=[\w)])(?=[\w(])", "*", side), mode="eval").body)


def _leaves(t):
    return (t,) if isinstance(t, str) else _leaves(t[0]) + _leaves(t[1])


@pytest.mark.parametrize("eq", [eq for eqs in _EQUATIONAL_LAWS.values() for eq in eqs])
def test_law_parser_agrees_with_python(eq):
    """The parsed sides nest as Python nests the same products, and the
    variables come in order of first appearance."""
    lhs, rhs, vs = _parse_equation(eq)
    want = tuple(_python_term(side.replace(" ", "")) for side in eq.split("="))
    assert (lhs, rhs) == want
    assert vs == tuple(dict.fromkeys(_leaves(want[0]) + _leaves(want[1])))


class TestLawsAgainstNumpy:
    """law_violation against the whole-grid numpy evaluator: the same
    witness, or None, for every law."""

    @staticmethod
    def reference(g, law):
        if law == "EC14":
            e = oracles.cancellation_failure(g.table)
            return None if e is None else {"e": g.labels[e]}
        for eq in _EQUATIONAL_LAWS[law]:
            lhs, rhs, vs = _parse_equation(eq)
            first = oracles.numpy_first_failure(g.table, lhs, rhs, vs)
            if first is not None:
                return {**{v: g.labels[i] for v, i in zip(vs, first)}, "equation": eq}
        return None

    def assert_agree(self, groupoids):
        seen = set()
        for g in groupoids:
            if g.table in seen:
                continue
            seen.add(g.table)
            for law in ALL_LAWS:
                assert law_violation(g, law) == self.reference(g, law), (g.table, law)

    def test_every_small_table(self):
        self.assert_agree(itertools.chain(every_table(1), every_table(2)))

    def test_every_updirected_relation_at_3(self):
        systems = [sys for sys in every_relation(3) if is_up_directed(sys)]
        assert len(systems) == 175
        self.assert_agree(
            build_updir_groupoid(sys, strat)
            for code, sys in enumerate(systems)
            for pi in (False, True)
            for strat in (
                ChoiceStrategy.min_index(pi),
                ChoiceStrategy.max_index(pi),
                ChoiceStrategy.seeded(code, pi),
            )
        )

    def test_seeded_pi_groupoids(self):
        self.assert_agree(
            build_updir_groupoid(rand_updirected(n, n), ChoiceStrategy.seeded(n, True))
            for n in range(4, 17)
        )

    def test_chain_order_groupoids(self, G):
        self.assert_agree([chain_groupoid(n) for n in range(1, 17)] + [G])
        assert sum(law_violation(chain_groupoid(16), law) is None for law in ALL_LAWS) == 18


class TestCorrespondences:
    def test_reflexive_iff_idempotent(self):
        for seed in range(40):
            sys = rand_updirected(seed, 4 + seed % 3)
            g = build_updir_groupoid(sys, ChoiceStrategy.seeded(seed))
            assert check_laws(g, ("idempotence",))["idempotence"] == classify(sys).reflexive

    def test_symmetric_iff_symmetry_law(self):
        for seed in range(40):
            sys = rand_updirected(seed, 4 + seed % 3)
            g = build_updir_groupoid(sys, ChoiceStrategy.seeded(seed))
            assert check_laws(g, ("symmetry",))["symmetry"] == classify(sys).symmetric


class TestGeneration:
    def test_empty_and_full(self, G):
        assert generate(G, 0) == 0
        assert generate(G, G.full_mask) == G.full_mask

    def test_generate_is_closure(self, G):
        for A in range(1 << G.n):
            got = generate(G, A)
            assert is_closed(G, got) and A & ~got == 0

    def test_matches_oracle(self):
        for seed in range(20):
            sys = rand_updirected(seed, 5)
            g = build_updir_groupoid(sys, ChoiceStrategy.seeded(seed))
            uni = list(g.labels)
            table = {
                (uni[a], uni[b]): uni[g.table[a][b]]
                for a in range(g.n)
                for b in range(g.n)
            }
            for A in range(0, 1 << g.n, 3):
                got = set(g.set_labels(generate(g, A)))
                assert got == oracles.generate(uni, table, set(g.set_labels(A)))

    def test_subgroupoids_match_oracle(self):
        cases = [(seed, 5) for seed in range(12)]
        cases += [(seed, 8) for seed in range(4)] + [(seed, 10) for seed in range(3)]
        groupoids = [
            build_updir_groupoid(rand_updirected(seed, n), ChoiceStrategy.seeded(seed))
            for seed, n in cases
        ]
        groupoids += [g for n in range(3) for g in every_table(n)]
        groupoids += [seeded_table(seed, n) for n in range(3, 9) for seed in range(4)]
        for g in groupoids:
            uni = list(g.labels)
            table = {
                (uni[a], uni[b]): uni[g.table[a][b]]
                for a in range(g.n)
                for b in range(g.n)
            }
            got = [frozenset(g.set_labels(m)) for m in subgroupoids(g).members]
            assert got == oracles.closed_sets(uni, table), g.table

    @pytest.mark.parametrize("n", range(12, 18))
    def test_families_match_per_subset_scan(self, n, monkeypatch):
        # n = 17 sweeps the subsets in two blocks
        monkeypatch.setenv("DIROUGH_CAP", str(n))
        sys = rand_updirected(n, n)
        g = build_updir_groupoid(sys, ChoiceStrategy.seeded(n, pi_constrained=True))
        assert list(cud_family(sys).members) == sorted(oracles.cud_masks(sys.succ), key=size_then_ids)
        assert list(subgroupoids(g).members) == sorted(oracles.closed_masks(g.table), key=size_then_ids)

    def test_family_sorted_by_size_then_lex(self, G):
        fam = subgroupoids(G)
        keys = [(bin(m).count("1"), sorted(G.set_labels(m))) for m in fam.members]
        assert keys == sorted(keys)

    def test_families_live_and_die_with_their_objects(self):
        sys = rand_updirected(3, 6)
        g = build_updir_groupoid(sys, ChoiceStrategy.min_index())
        assert cud_family(sys) is cud_family(sys) and subgroupoids(g) is subgroupoids(g)
        refs = [weakref.ref(x) for x in (sys, g, cud_family(sys), subgroupoids(g))]
        del sys, g
        gc.collect()
        assert [r() for r in refs] == [None] * 4


class TestCayleyFormat:
    def test_round_trip(self, G):
        assert parse_cayley(dump_cayley(G)) == G

    def test_header_row_order_enforced(self):
        with pytest.raises(InputFormatError):
            parse_cayley(",p,q\nq,p,q\np,p,q\n")

    def test_unknown_cell_label(self):
        with pytest.raises(InputFormatError):
            parse_cayley(",p,q\np,p,z\nq,p,q\n")

    def test_shape_enforced(self):
        with pytest.raises(InputFormatError):
            parse_cayley(",p,q\np,p,q\n")

    def test_cell_out_of_range_rejected(self):
        with pytest.raises(StructureError):
            Groupoid(("p", "q"), ((0, 2), (0, 1)))
