import hashlib
import inspect
import itertools
import json
import re

import pytest

import oracles
from dirough._bits import MASK64, mix, mix_rows
from dirough.audit import (
    CLAIMS,
    AuditInstance,
    audit_claims,
    check_claim,
    claim_ids,
    random_system,
    random_updirected_system,
    replay_witness,
)
from dirough.errors import LawError
from dirough.fixtures import section6_groupoid, section6_system
from dirough.grpd import ChoiceStrategy, build_updir_groupoid
from dirough.relsys import build_relation, from_id_pairs, is_up_directed

EXPECTED_DEVIATIONS = {
    "acp.A2",
    "acp.A6",
    "aup.uaadd",
    "aup.uamo",
    "cdbas.cdInclusion-collection",
    "cdbas.cdtop-collection",
    "cdbas.ucdmo-collection",
    "cudas.inclusiondot",
    "pi9.lupipId",
}


# sha256 of the registry metadata and of the default report as the CLI
# prints it (`audit claims --json`); a change to any claim, witness or
# sampling order shows up here
CLAIMS_SHA256 = "f1d37e75580b3ed807781e1babc403968832547d9cb83c8e24cae785a1111eb0"
DEFAULT_REPORT_SHA256 = (
    "37d1db8ebb67219e7f1e6658270b9a77763b05f2b56286415815651e442a021e"
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def default_report():
    return audit_claims()


class TestRegistry:
    def test_every_claim_has_one_check_form(self):
        for c in CLAIMS:
            assert (c.predicate is None) != (c.checker is None)

    def test_tier_split(self):
        ids = set(claim_ids())
        assert set(claim_ids("1")) | set(claim_ids("2")) == ids
        assert not set(claim_ids("1")) & set(claim_ids("2"))

    def test_deviating_claims_are_tier2(self):
        tier2 = set(claim_ids("2"))
        assert EXPECTED_DEVIATIONS <= tier2

    def test_predicates_take_operands_positionally(self):
        for c in CLAIMS:
            if c.predicate is None:
                continue
            params = inspect.signature(c.predicate).parameters.values()
            assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params), c.id
            assert len(params) == 1 + len(c.vars), c.id


class TestDefaultRun:
    def test_no_hard_failures(self, default_report):
        assert default_report.tier1_failures == ()

    def test_deviations_are_exactly_the_registered_set(self, default_report):
        assert {r.claim for r in default_report.deviations} == EXPECTED_DEVIATIONS

    def test_every_failure_carries_witness(self, default_report):
        for r in default_report.deviations:
            assert r.witness

    def test_witnesses_replay(self):
        sys, g = section6_system(), section6_groupoid()
        inst = AuditInstance("given", sys, g)
        rep = audit_claims(sys, g, random_instances=0)
        for r in rep.deviations:
            assert replay_witness(r.claim, inst, r.witness)

    def test_collection_top_witness(self):
        sys, g = section6_system(), section6_groupoid()
        rep = audit_claims(sys, g, random_instances=0)
        row = next(
            r for r in rep.results if r.claim == "cdbas.cdtop-collection"
        )
        assert row.status == "fail"
        assert row.witness == {"upper": ["c", "f"]}

    def test_deterministic(self, default_report):
        assert audit_claims() == default_report

    def test_golden_registry_and_report(self, default_report):
        meta = [
            [c.id, c.tier, c.needs, list(c.vars), c.domain,
             c.requires_updirected, c.checker is not None]
            for c in CLAIMS
        ]
        assert len(CLAIMS) == 75
        assert sha256(json.dumps(meta)) == CLAIMS_SHA256
        report = json.dumps(default_report.as_dict(), indent=2) + "\n"
        assert sha256(report) == DEFAULT_REPORT_SHA256

    def test_as_dict_rows(self, default_report):
        d = default_report.as_dict()
        assert set(d) == {"results"}
        row = d["results"][0]
        assert set(row) == {"claim", "tier", "instance", "status", "witness"}


class TestSelection:
    def test_tier_filter(self):
        rep = audit_claims(tier="1", random_instances=1)
        assert all(r.tier == 1 for r in rep.results)
        assert rep.deviations == ()

    def test_unknown_tier(self):
        with pytest.raises(LawError):
            audit_claims(tier="3")

    def test_non_updirected_input_skips_guarded_claims(self):
        sys = build_relation(["x", "y"], [("x", "x"), ("y", "y")])
        rep = audit_claims(sys, random_instances=0)
        assert rep.tier1_failures == ()
        guarded = next(c for c in CLAIMS if c.requires_updirected)
        rows = [r for r in rep.results if r.claim == guarded.id]
        assert rows and all(r.status == "skipped" for r in rows)

    def test_check_claim_skips_without_groupoid(self):
        sys = build_relation(["x"], [("x", "x")])
        claim = next(c for c in CLAIMS if c.needs == "grpd")
        res = check_claim(claim, AuditInstance("t", sys, None))
        assert res.status == "skipped"

    def test_replay_unknown_claim(self):
        inst = AuditInstance("t", section6_system(), None)
        with pytest.raises(LawError):
            replay_witness("nope", inst, {})

    @pytest.mark.parametrize(
        "claim, witness, message",
        [
            ("lup.l-mo", {"A": ["a"]}, "'B' must be a list of labels, got None"),
            ("nbd.idcn-sub", {"A": ["a"], "x": ["a"]}, "'x' must be a label"),
            ("lup.l-mo", ["A", "B"], "a witness is a dict, got list"),
            ("pi9.lpimo", {"A": ["a"], "B": ["a"]}, "no groupoid available"),
            ("acp.A6", {"x": {"first": [], "second": ["c"]}}, "no groupoid available"),
            ("cudas.ic-oplus", {"A": ["a", "b"], "B": ["c"]}, "is not a CUD set"),
        ],
        ids=["missing-variable", "element-as-list", "not-a-dict", "no-groupoid",
             "no-groupoid-checker", "operand-not-cud"],
    )
    def test_replay_malformed_witness(self, claim, witness, message):
        """A witness read back from a report is outside input: each fault is
        one LawError, and a groupoid claim without a groupoid names the
        reason check_claim gives when it skips."""
        inst = AuditInstance("t", section6_system(), None)
        with pytest.raises(LawError, match=re.escape(message)):
            replay_witness(claim, inst, witness)

    @pytest.mark.parametrize("claim", ["lup.upper-cone", "eth.inclusion"])
    def test_replay_needs_updirected_system(self, claim):
        """A guarded claim says nothing about a system that is not
        up-directed: replay raises the reason check_claim skips with,
        rather than returning a verdict or leaking another error."""
        sys = build_relation(["x", "y"], [("x", "x"), ("y", "y")])
        inst = AuditInstance("t", sys, None)
        guarded = next(c for c in CLAIMS if c.id == claim)
        assert guarded.requires_updirected and not is_up_directed(sys)
        assert check_claim(guarded, inst).witness == {"reason": "system is not up-directed"}
        with pytest.raises(
            LawError, match=f"^cannot replay {re.escape(claim)}: system is not up-directed$"
        ):
            replay_witness(claim, inst, {"A": ["x", "y"]})

    @pytest.mark.parametrize("tier", ["x", "3", "", "ALL"])
    def test_claim_ids_unknown_tier(self, tier):
        with pytest.raises(LawError):
            claim_ids(tier)
        with pytest.raises(LawError):
            audit_claims(tier=tier, random_instances=0)

    @pytest.mark.parametrize("limit", [0, -5])
    def test_limit_below_one_rejected(self, limit):
        """A limit that checks no assignment must not read as a pass: this
        claim fails on the fixture at the default limit."""
        claim = next(c for c in CLAIMS if c.id == "cdbas.ucdmo-collection")
        inst = AuditInstance("F", section6_system(), section6_groupoid())
        assert check_claim(claim, inst).status == "fail"
        with pytest.raises(LawError):
            check_claim(claim, inst, limit=limit)


class TestGenerators:
    def test_random_system_deterministic(self):
        assert random_system(4, 5) == random_system(4, 5)
        assert random_system(4, 5) != random_system(5, 5)

    def test_random_updirected_always_is(self):
        for seed in range(25):
            assert is_up_directed(random_updirected_system(seed, 3 + seed % 5))

    def test_sampler_rows_equal_mix(self):
        """The sampler's row(t)[k] is mix(base, t, k), over bases, rows and
        widths that reach past 64 bits."""
        for base in (0, 1, 2030, MASK64, MASK64 + 5, -1, 1 << 70):
            for width in range(5):
                row = mix_rows(base, width)
                for t in (0, 1, 7, 255, 1 << 63, MASK64 + 3):
                    assert row(t) == [mix(base, t, k) for k in range(width)]


# ---------------------------------------------------------------------------
# Whole space at n = 3: every up-directed relation on three elements


def _brute_force_rows(sys, g):
    """Each row's definition over labels, with the oracles as operators.

    Returns {claim id: (vars, domains, holds)}; domains list the values in
    the auditor's order (subsets from the full set down, elements by index).
    """
    uni = list(sys.labels)
    prs = [(uni[a], uni[b]) for a in range(3) for b in range(3) if sys.has(a, b)]
    subsets = [
        frozenset(uni[i] for i in range(3) if m >> i & 1) for m in range(7, -1, -1)
    ]
    fam = set(oracles.cud_family(uni, prs))
    cuds = [A for A in subsets if A in fam]
    succ, pred = oracles.succ_map(uni, prs), oracles.pred_map(uni, prs)
    tbl = {(uni[a], uni[b]): uni[g.table[a][b]] for a in range(3) for b in range(3)}
    eth = {A: oracles.eth(uni, prs, A) for A in subsets}
    lo = {A: oracles.nbd_lower(uni, prs, A) for A in subsets}
    up = {A: oracles.nbd_upper(uni, prs, A) for A in subsets}
    lo_pi = {A: oracles.pi_lower(uni, tbl, A) for A in subsets}
    sg = {A: oracles.generate(uni, tbl, A) for A in subsets}

    def plus(A, B):
        return eth[A | B]

    def dot(A, B):
        return eth[A & B]

    def idc(A, x):
        return frozenset(z for z in succ[x] if any(z in succ[h] for h in A))

    def dc(A, x):
        return frozenset(z for z in uni if x in succ[z] and any(x in succ[h] for h in A))

    def ic(op):
        return lambda A, B: op(A, B) == op(B, A) and op(A, A) == A

    def cmo(op, join):
        return lambda A, B, C, E: not (
            A <= B and C <= E and join(B, E) <= op(A, C)
        ) or op(A, C) <= op(B, E)

    def nbd_mo(n):
        return lambda A, B, x: not A <= B or n(A, x) <= n(B, x)

    def lift(lower, upper):
        return lambda A: lower[A] <= upper[lower[A]] <= upper[A]

    AB, ABCE = (cuds, cuds), (cuds,) * 4
    return {
        "cudas.ic-oplus": (AB, ic(plus)),
        "cudas.ic-odot": (AB, ic(dot)),
        "cudas.cmo-plus": (ABCE, cmo(plus, frozenset.union)),
        "cudas.cmo-dot": (ABCE, cmo(dot, frozenset.intersection)),
        "nbd.idcn-mo": ((subsets, subsets, uni), nbd_mo(idc)),
        "nbd.idcn-sub": ((subsets, uni), lambda A, x: idc(A, x) <= succ[x]),
        "nbd.eta-mo": ((subsets, subsets, uni), nbd_mo(dc)),
        "nbd.eta-sub": ((subsets, uni), lambda A, x: dc(A, x) <= pred[x]),
        "lup.lu-inc": ((subsets,), lift(lo, up)),
        "sappr.sandwich": ((subsets,), lift(lo_pi, sg)),
    }


def test_template_rows_match_brute_force_on_every_updirected_3_relation():
    by_id = {c.id: c for c in CLAIMS}
    cells = [(a, b) for a in range(3) for b in range(3)]
    checked = 0
    for code in range(1 << 9):
        pairs = [ab for k, ab in enumerate(cells) if code >> k & 1]
        sys = from_id_pairs(("a", "b", "c"), pairs)
        if not is_up_directed(sys):
            continue
        checked += 1
        g = build_updir_groupoid(sys, ChoiceStrategy.min_index())
        inst = AuditInstance(f"rel-{code}", sys, g)
        for cid, (domains, holds) in _brute_force_rows(sys, g).items():
            claim = by_id[cid]
            bad = next(
                (vs for vs in itertools.product(*domains) if not holds(*vs)), None
            )
            want = None if bad is None else {
                v: sorted(x) if v[0].isupper() else x for v, x in zip(claim.vars, bad)
            }
            got = check_claim(claim, inst)
            assert (got.status, got.witness) == (
                ("pass", None) if bad is None else ("fail", want)
            ), (code, cid)
    assert checked == 175
