import pytest

import oracles
from conftest import label_pairs, rand_updirected, sample_masks

from dirough.errors import LawError, NotUpDirectedError, StructureError
from dirough.fixtures import section6_groupoid, section6_system
from dirough.grpd import ChoiceStrategy, build_updir_groupoid, parse_cayley
from dirough.relsys import parse_relation
from dirough.regions import REGION_KINDS, region_table


@pytest.fixture(scope="module")
def F():
    return section6_system()


@pytest.fixture(scope="module")
def G():
    return section6_groupoid()


class TestExamples:
    def test_n_region(self, F, G):
        got = region_table(G, F, F.mask(["c"]), F.mask(["a", "b"]))["n"]
        assert F.set_labels(got) == ("a", "b")

    def test_o_region(self, F, G):
        got = region_table(G, F, F.mask(["a"]), F.mask(["b"]))["o"]
        assert F.set_labels(got) == ("f",)

    def test_empty_left_operand(self, F, G):
        t = region_table(G, F, 0, F.full_mask)
        for kind in REGION_KINDS:
            assert t[kind] == 0

    def test_table_covers_all_kinds(self, F, G):
        t = region_table(G, F, F.mask(["a"]), F.mask(["b"]))
        assert set(t) == set(REGION_KINDS)
        assert t["o"] == t["o1"] & t["o2"]


class TestErrors:
    def test_inconsistent_pair(self, F, G):
        other = rand_updirected(1, F.n)
        with pytest.raises(StructureError):
            region_table(G, other, 0, 0)

    @pytest.mark.parametrize("rel,table,error,message", [
        # b.a = a, where B(S) asks for an upper bound of b and a, here only b
        ("elements: a b\na a\na b\nb b\n", ",a,b\na,a,b\nb,a,b\n",
         StructureError, "explicit table violates the B(S) condition"),
        # a two-cycle has no B(S) family, though this table obeys the cell rule
        ("elements: a b\na b\nb a\n", ",a,b\na,b,b\nb,a,a\n",
         NotUpDirectedError, "system is not up-directed"),
    ], ids=["outside-bs", "not-updirected"])
    def test_fault_names_itself(self, rel, table, error, message):
        sys_, g = parse_relation(rel), parse_cayley(table)
        with pytest.raises(error) as e:
            region_table(g, sys_, 1, 2)
        assert str(e.value) == message

    def test_operands_checked(self, F, G):
        with pytest.raises(LawError):
            region_table(G, F, 1 << F.n, 0)


class TestProperties:
    def _instances(self):
        for seed in range(12):
            sys = rand_updirected(seed, 5)
            g = build_updir_groupoid(sys, ChoiceStrategy.seeded(seed))
            yield seed, sys, g

    def test_containments(self):
        for seed, sys, g in self._instances():
            for A in sample_masks(seed, sys.n, 6):
                for B in sample_masks(seed + 1, sys.n, 6):
                    t = region_table(g, sys, A, B)
                    assert t["o"] == t["o1"] & t["o2"]
                    assert t["o1"] & A == 0
                    assert t["o2"] & B == 0
                    assert t["i1"] & ~A == 0
                    assert t["i2"] & ~B == 0
                    assert t["n"] & ~B == 0

    def test_matches_oracle(self):
        for seed, sys, g in self._instances():
            uni, prs = list(sys.labels), label_pairs(sys)
            tbl = {
                (uni[a], uni[b]): uni[g.table[a][b]]
                for a in range(sys.n)
                for b in range(sys.n)
            }
            for A in sample_masks(seed, sys.n, 5):
                for B in sample_masks(seed + 2, sys.n, 5):
                    la, lb = set(sys.set_labels(A)), set(sys.set_labels(B))
                    t = region_table(g, sys, A, B)
                    for kind in REGION_KINDS:
                        got = set(sys.set_labels(t[kind]))
                        assert got == oracles.regions(uni, tbl, uni, prs, la, lb, kind)

    def test_every_offrelation_product_classified(self):
        # when not Rab, the product is an upper bound and must land in
        # exactly one of (o1 vs i1) and one of (o2 vs i2)
        for seed, sys, g in self._instances():
            for a in range(sys.n):
                for b in range(sys.n):
                    if sys.has(a, b):
                        continue
                    c = 1 << g.table[a][b]
                    A, B = 1 << a, 1 << b
                    t = region_table(g, sys, A, B)
                    assert (t["o1"] | t["i1"]) & c == c
                    assert (t["o2"] | t["i2"]) & c == c
                    assert t["o1"] & t["i1"] == 0
                    assert t["o2"] & t["i2"] == 0
