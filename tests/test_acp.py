import hashlib
import itertools
import json

import pytest

import oracles
from conftest import rand_updirected

from dirough._bits import is_subset, mix
from dirough.acp import (
    CARRIER_MODES,
    AcpElement,
    _PairOps,
    acp_carrier,
    acp_coprod,
    acp_leq,
    acp_neg,
    acp_op,
    audit_acp_laws,
    bottom,
    top,
    validate_element,
)
from dirough.audit import random_updirected_system
from dirough.errors import CapExceededError, LawError, StructureError
from dirough.fixtures import section6_groupoid
from dirough.grpd import ChoiceStrategy, Groupoid, build_updir_groupoid, generate, subgroupoids
from dirough.piappr import pg_tuple


@pytest.fixture(scope="module")
def G():
    return section6_groupoid()


def rand_groupoid(seed, n):
    return build_updir_groupoid(rand_updirected(seed, n), ChoiceStrategy.seeded(seed))


def elem(g, lo, hi):
    return AcpElement(g.mask(lo), g.mask(hi))


def seeded_groupoids():
    """Twelve seeded groupoids on 3 to 5 elements."""
    return [rand_groupoid(seed, 3 + seed % 3) for seed in range(12)]


def as_labels(g, x):
    return (frozenset(g.set_labels(x.first)), frozenset(g.set_labels(x.second)))


def label_table(g):
    return {
        (g.labels[a], g.labels[b]): g.labels[c]
        for a, row in enumerate(g.table)
        for b, c in enumerate(row)
    }


class TestCarrier:
    def test_formal_contains_example(self, G):
        assert elem(G, ["c"], ["a", "c"]) in acp_carrier(G)

    def test_formal_size(self, G):
        assert len(acp_carrier(G)) == 46

    def test_bounds_in_both_modes(self, G):
        for mode in ("formal", "realized"):
            car = acp_carrier(G, mode)
            assert bottom(G) in car and top(G) in car

    def test_realized_inside_formal(self, G):
        formal = set(acp_carrier(G))
        for x in acp_carrier(G, "realized"):
            assert x in formal

    def test_realized_inside_formal_random(self):
        for seed in range(10):
            g = rand_groupoid(seed, 5)
            formal = set(acp_carrier(g))
            realized = acp_carrier(g, "realized")
            assert set(realized) <= formal

    def test_realized_are_approximation_pairs(self, G):
        reached = set()
        for A in range(1 << G.n):
            t = pg_tuple(G, A)
            reached.add((t.generated_lower, t.upper))
        assert {(x.first, x.second) for x in acp_carrier(G, "realized")} == reached

    def test_unknown_mode(self, G):
        with pytest.raises(LawError):
            acp_carrier(G, "other")


class TestValidation:
    def test_open_component_rejected(self, G):
        with pytest.raises(StructureError):
            validate_element(G, elem(G, ["b"], ["b", "f"]))

    def test_unordered_pair_rejected(self, G):
        with pytest.raises(StructureError):
            validate_element(G, elem(G, ["c", "f"], ["c"]))

    def test_operations_validate_operands(self, G):
        bad = elem(G, ["b"], ["b", "f"])
        with pytest.raises(StructureError):
            acp_op(G, bad, bottom(G), "join")
        with pytest.raises(StructureError):
            acp_neg(G, bad)
        with pytest.raises(StructureError):
            acp_coprod(G, bad)


class TestOperations:
    def test_join_example(self, G):
        got = acp_op(G, elem(G, ["c"], ["c", "f"]), elem(G, ["f"], ["b", "f"]), "join")
        assert got == elem(G, ["c", "f"], ["b", "c", "f"])

    def test_meet_idempotent(self, G):
        for x in acp_carrier(G)[:12]:
            assert acp_op(G, x, x, "meet") == x

    def test_bottom_neutral_for_join(self, G):
        for x in acp_carrier(G)[:12]:
            assert acp_op(G, bottom(G), x, "join") == x

    def test_top_neutral_for_meet(self, G):
        for x in acp_carrier(G)[:12]:
            assert acp_op(G, top(G), x, "meet") == x

    def test_neg_example(self, G):
        # {b,e,f} is not closed (f.e = a), so the flat of {a,c} stops at {b,f}
        got = acp_neg(G, elem(G, ["c"], ["a", "c"]))
        assert got == elem(G, ["b", "f"], ["b", "f"])

    def test_neg_swaps_bounds(self, G):
        assert acp_neg(G, top(G)) == bottom(G)
        assert acp_neg(G, bottom(G)) == top(G)

    def test_unknown_operation(self, G):
        with pytest.raises(LawError):
            acp_op(G, bottom(G), top(G), "x")

    def test_coprod_identity(self, G):
        x = elem(G, ["c"], ["a", "c"])
        assert acp_coprod(G, x) == x
        assert acp_coprod(G, bottom(G)) == bottom(G)

    def test_coprod_inflationary(self, G):
        for x in acp_carrier(G):
            assert acp_leq(x, acp_coprod(G, x))

    def test_order(self, G):
        x, y = elem(G, ["c"], ["c", "f"]), elem(G, ["c", "f"], ["b", "c", "f"])
        assert acp_leq(x, y) and not acp_leq(y, x)
        for z in acp_carrier(G)[:12]:
            assert acp_leq(bottom(G), z) and acp_leq(z, top(G))

    def test_order_antisymmetric(self, G):
        car = acp_carrier(G)
        for x in car[:10]:
            for y in car[:10]:
                if acp_leq(x, y) and acp_leq(y, x):
                    assert x == y

    def test_results_stay_valid(self):
        for seed in range(8):
            g = rand_groupoid(seed, 5)
            car = acp_carrier(g)
            for x in car[:8]:
                for y in car[:8]:
                    validate_element(g, acp_op(g, x, y, "join"))
                    validate_element(g, acp_op(g, x, y, "meet"))
                validate_element(g, acp_neg(g, x))
                validate_element(g, acp_coprod(g, x))


def test_per_call_operations_need_no_tables(monkeypatch):
    """On a 17-element groupoid, past the default cap, every operation runs
    per call and lists no family: join and the coproduct close one set, meet
    and negation read the singleton closures. Under a cap raised to 17 they
    equal the operations over the family's tables."""
    monkeypatch.delenv("DIROUGH_CAP", raising=False)
    g = build_updir_groupoid(random_updirected_system(0, 17), ChoiceStrategy.min_index(True))
    x = AcpElement(generate(g, g.mask(["v2"])), generate(g, g.mask(["v2", "v5"])))
    y = AcpElement(generate(g, g.mask(["v3"])), generate(g, g.mask(["v3", "v13"])))
    assert acp_op(g, x, y, "join").as_labels(g) == {
        "first": ["v0", "v1", "v2", "v3"],
        "second": ["v0", "v1", "v2", "v3", "v5", "v8", "v9", "v13"],
    }
    assert acp_coprod(g, x).as_labels(g) == {
        "first": ["v0", "v2"], "second": ["v0", "v1", "v2", "v5"],
    }
    meet, negs = acp_op(g, x, y, "meet"), (acp_neg(g, x), acp_neg(g, y))
    assert "subgroupoids" not in g.__dict__
    with pytest.raises(CapExceededError):
        subgroupoids(g)
    monkeypatch.setenv("DIROUGH_CAP", "17")
    tables = _PairOps(g, tables=True)
    assert meet == tables.op(x, y, "meet")
    assert negs == (tables.neg(x), tables.neg(y))


def lemma_groupoids():
    """name -> groupoid: the fixture, the seeded B(S) groupoids, every total
    table on 2 elements and seeded total tables on 3 and 4 elements."""
    out = {"fixture": section6_groupoid()}
    out |= {f"seeded-{k}": g for k, g in enumerate(seeded_groupoids())}
    for k, cells in enumerate(itertools.product(range(2), repeat=4)):
        out[f"table2-{k}"] = Groupoid(("p", "q"), (cells[:2], cells[2:]))
    for seed in range(20):
        n = 3 + seed % 2
        cells = tuple(tuple(mix(seed, a, b) % n for b in range(n)) for a in range(n))
        out[f"table{n}-{seed}"] = Groupoid(tuple(f"t{i}" for i in range(n)), cells)
    return out


LEMMA_GROUPOIDS = lemma_groupoids()


class TestGenerationLemma:
    """Sg(X) is the least closed superset of X: the AND of the subgroupoids
    holding X. The audit samples pairs on this ground, since it makes join
    and meet the lattice bounds by componentwise order theory."""

    @pytest.mark.parametrize("name", LEMMA_GROUPOIDS)
    def test_generate_is_the_and_of_closed_supersets(self, name):
        g = LEMMA_GROUPOIDS[name]
        members = subgroupoids(g).members
        for X in range(1 << g.n):
            closed_above = g.full_mask
            for H in members:
                if is_subset(X, H):
                    closed_above &= H
            assert generate(g, X) == closed_above, g.set_labels(X)


class TestAudit:
    def test_fixture_hard_laws(self, G):
        rep = audit_acp_laws(G)
        byname = {v.law: v for v in rep.verdicts}
        for law in ("A1", "A3", "A4", "A5", "well-defined"):
            assert byname[law].holds and byname[law].tier == 1

    def test_fixture_a6_witness(self, G):
        rep = audit_acp_laws(G)
        a6 = next(v for v in rep.verdicts if v.law == "A6")
        assert not a6.holds and a6.tier == 2
        assert a6.witness == {"x": {"first": [], "second": ["c"]}}

    def test_failing_always_carries_witness(self, G):
        for v in audit_acp_laws(G).verdicts:
            assert v.holds or v.witness is not None

    def test_one_element_groupoid(self):
        g = Groupoid(("s",), ((0,),))
        rep = audit_acp_laws(g)
        assert all(v.holds for v in rep.verdicts)

    def test_as_dict_shape(self, G):
        d = audit_acp_laws(G).as_dict()
        assert d["mode"] == "formal"
        assert {row["law"] for row in d["laws"]} >= {"A1", "A2", "A3", "A4", "A5", "A6"}

    def test_deterministic(self, G):
        assert audit_acp_laws(G, seed=5) == audit_acp_laws(G, seed=5)

    def test_hard_laws_on_random_groupoids(self):
        for seed in range(6):
            g = rand_groupoid(seed, 5)
            rep = audit_acp_laws(g, pair_limit=256)
            for v in rep.verdicts:
                if v.tier == 1:
                    assert v.holds, (v.law, v.witness)


class TestAgainstOracle:
    """Both carriers, in order, and every formal pair through the public
    operations, against the frozenset definitions in tests/oracles.py."""

    @pytest.mark.parametrize("idx", range(13))
    def test_carriers_and_operations(self, G, idx):
        g = G if idx == 0 else seeded_groupoids()[idx - 1]
        labels, table = g.labels, label_table(g)
        closed = oracles.closed_sets(labels, table)
        car = acp_carrier(g)
        assert [as_labels(g, x) for x in car] == oracles.acp_formal_carrier(labels, table)
        assert [as_labels(g, x) for x in acp_carrier(g, "realized")] == (
            oracles.acp_realized_carrier(labels, table)
        )
        for x in car:
            lx = as_labels(g, x)
            assert as_labels(g, acp_neg(g, x)) == oracles.acp_neg(labels, table, closed, lx)
            assert as_labels(g, acp_coprod(g, x)) == oracles.acp_coprod(labels, table, lx)
            for y in car:
                ly = as_labels(g, y)
                assert as_labels(g, acp_op(g, x, y, "join")) == (
                    oracles.acp_join(labels, table, lx, ly)
                )
                assert as_labels(g, acp_op(g, x, y, "meet")) == (
                    oracles.acp_meet(labels, table, closed, lx, ly)
                )


# sha256 over the JSON of audit_acp_laws(...).as_dict() for the fixture and
# the twelve seeded groupoids, in both modes, at (seed, pair_limit) of
# (0, 4096) and (5, 64); taken before the audit ran the operations proper
AUDIT_REPORTS_SHA256 = "5b29d151b7b4549af62e7dc16e74ac9fadb0f5a6ac66092006873b297d972098"


def audit_reports_sha256(groupoids) -> str:
    h = hashlib.sha256()
    for g in groupoids:
        for mode in CARRIER_MODES:
            for seed, limit in ((0, 4096), (5, 64)):
                rep = audit_acp_laws(g, mode, seed=seed, pair_limit=limit)
                h.update(json.dumps(rep.as_dict()).encode())
    return h.hexdigest()


class TestAuditGolden:
    def test_reports_pinned(self, G):
        assert audit_reports_sha256([G, *seeded_groupoids()]) == AUDIT_REPORTS_SHA256

    def test_each_pair_validated_once(self, G, monkeypatch):
        """Once per carrier element, plus the four results per pair that
        well-defined checks: 46 + 4 * 46**2 on the fixture. The audit checks
        pairs against the subgroupoid tables, never through the per-call
        validate_element."""
        import dirough.acp as acp_mod

        calls, public = [], []
        real, real_public = acp_mod._PairOps.fault, acp_mod.validate_element
        monkeypatch.setattr(
            acp_mod._PairOps, "fault", lambda ops, x: calls.append(x) or real(ops, x)
        )
        monkeypatch.setattr(
            acp_mod, "validate_element", lambda g, x: public.append(x) or real_public(g, x)
        )
        audit_acp_laws(G)
        assert len(calls) == 46 + 4 * 46**2
        assert public == []

    @pytest.mark.parametrize("limit", [0, -5])
    def test_pair_limit_below_one_rejected(self, G, limit):
        with pytest.raises(LawError):
            audit_acp_laws(G, pair_limit=limit)

    def test_invalid_carrier_stops_the_audit(self, G, monkeypatch):
        import dirough.acp as acp_mod

        bad = elem(G, ["b"], ["b", "f"])
        monkeypatch.setattr(acp_mod, "acp_carrier", lambda g, mode: (bad,))
        with pytest.raises(StructureError):
            audit_acp_laws(G)
