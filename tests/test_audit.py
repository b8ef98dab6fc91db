import hashlib
import json

import pytest

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
from dirough.relsys import build_relation, is_up_directed

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


class TestGenerators:
    def test_random_system_deterministic(self):
        assert random_system(4, 5) == random_system(4, 5)
        assert random_system(4, 5) != random_system(5, 5)

    def test_random_updirected_always_is(self):
        for seed in range(25):
            assert is_up_directed(random_updirected_system(seed, 3 + seed % 5))
