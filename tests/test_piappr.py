import pytest

import oracles
from conftest import rand_updirected, sample_masks

from dirough.errors import LawError
from dirough.fixtures import section6_groupoid
from dirough.grpd import ChoiceStrategy, build_updir_groupoid, generate, is_closed
from dirough.piappr import PgTuple, approx_pi, pg_tuple


@pytest.fixture(scope="module")
def G():
    return section6_groupoid()


def rand_groupoid(seed, n):
    return build_updir_groupoid(rand_updirected(seed, n), ChoiceStrategy.seeded(seed))


def label_table(g):
    uni = list(g.labels)
    return {
        (uni[a], uni[b]): uni[g.table[a][b]]
        for a in range(g.n)
        for b in range(g.n)
    }


class TestApproxPi:
    def test_fixture_lower(self, G):
        got = approx_pi(G, G.mask(["e", "b", "c"]), "l_pi")
        assert G.set_labels(got) == ("c",)

    def test_fixture_uppers(self, G):
        A = G.mask(["e", "b", "c"])
        assert approx_pi(G, A, "u_pi") == G.full_mask
        assert approx_pi(G, A, "u_a") == G.full_mask

    def test_anti_upper_of_b(self, G):
        got = approx_pi(G, G.mask(["b"]), "u_a")
        assert G.set_labels(got) == ("b", "f")

    def test_anti_upper_of_top_is_top(self, G):
        assert approx_pi(G, G.full_mask, "u_a") == G.full_mask

    def test_unknown_op(self, G):
        with pytest.raises(LawError):
            approx_pi(G, 0, "l")

    def test_matches_oracles(self):
        for seed in range(15):
            g = rand_groupoid(seed, 5)
            tbl = label_table(g)
            uni = list(g.labels)
            for A in sample_masks(seed, g.n, 12):
                labs = set(g.set_labels(A))
                assert set(g.set_labels(approx_pi(g, A, "l_pi"))) == set(
                    oracles.pi_lower(uni, tbl, labs)
                )
                assert set(g.set_labels(approx_pi(g, A, "u_pi"))) == set(
                    oracles.generate(uni, tbl, labs)
                )
                assert set(g.set_labels(approx_pi(g, A, "u_a"))) == set(
                    oracles.anti_upper(uni, tbl, labs)
                )

    def test_lower_inside_upper_inside_anti(self):
        for seed in range(20):
            g = rand_groupoid(seed, 5)
            for A in sample_masks(seed, g.n, 12):
                lo = approx_pi(g, A, "l_pi")
                up = approx_pi(g, A, "u_pi")
                ua = approx_pi(g, A, "u_a")
                assert lo & ~A == 0
                assert A & ~up == 0
                assert A & ~ua == 0


class TestPgTuple:
    def test_fixture_triple(self, G):
        t = pg_tuple(G, G.mask(["e", "b", "c"]))
        assert t.lower == t.generated_lower == G.mask(["c"])
        assert t.upper == G.full_mask

    def test_empty(self, G):
        assert pg_tuple(G, 0) == PgTuple(0, 0, 0)

    def test_sandwich_and_closure(self):
        for seed in range(20):
            g = rand_groupoid(seed, 5)
            for A in sample_masks(seed, g.n, 12):
                t = pg_tuple(g, A)
                assert t.lower & ~t.generated_lower == 0
                assert t.generated_lower & ~generate(g, A) == 0
                assert is_closed(g, t.generated_lower)
                assert is_closed(g, t.upper)

