import pytest

from dirough import fixtures
from dirough.cli import run
from dirough.fixtures import (
    ERRATA,
    PRINTED_VALUES,
    build_section6_report,
    section3_system,
    section6_groupoid,
    section6_system,
)
from dirough.grpd import verify_b_of_s
from dirough.relsys import classify, is_up_directed, upper_bounds


@pytest.fixture(scope="module")
def report():
    return build_section6_report()


class TestEmbeddedData:
    def test_system_shape(self):
        sys = section6_system()
        assert sys.labels == ("a", "b", "c", "e", "f")
        assert sum(s.bit_count() for s in sys.succ) == 14
        assert is_up_directed(sys)

    def test_groupoid_fits_relation(self):
        assert verify_b_of_s(section6_system(), section6_groupoid())

    def test_profile(self):
        p = classify(section6_system())
        assert p.up_directed
        assert not (p.reflexive or p.symmetric or p.transitive or p.antisymmetric)


class TestReport:
    def test_exact_after_errata(self, report):
        assert report["exact_after_errata"] is True
        assert report["groupoid_consistent"] is True

    def test_every_diff_is_a_known_erratum(self, report):
        assert {d["erratum"] for d in report["diffs"]} == {e.id for e in ERRATA}

    def test_diff_count_matches_errata(self, report):
        assert len(report["diffs"]) == len(ERRATA) == 6

    def test_upper_bound_corrections(self, report):
        assert report["table1"]["b,c"] == ["c", "f"]
        assert report["table1"]["c,e"] == ["a", "b", "f"]
        assert report["table1"]["a,b"] == ["c", "f"]

    def test_neighborhood_correction(self, report):
        assert report["table3"]["a"] == ["c", "e", "f"]
        assert report["table3"]["e"] == []

    def test_granule_list_reproduced(self, report):
        assert len(report["granules"]) == 20
        assert ["c"] in report["granules"] and ["f"] in report["granules"]

    def test_su_list_drops_unclosed_member(self, report):
        assert ["b", "e", "f"] not in report["su"]
        assert len(report["su"]) == 10  # 11 printed, one of them bogus

    def test_approximation_values(self, report):
        v = report["values"]
        assert v["A.l"] == []
        assert v["A.u"] == ["a", "b", "c", "e", "f"]
        assert v["A.l_cd"] == ["b", "c"]
        assert v["A.u_cd"] == ["b", "c", "e", "f"]
        assert v["A.l_pi"] == ["c"]
        assert v["A.u_pi"] == ["a", "b", "c", "e", "f"]
        assert v["A.u_a"] == ["a", "b", "c", "e", "f"]
        assert v["B.l_pi"] == []
        assert v["B.u_pi"] == ["b", "f"]
        assert v["B.u_a"] == ["b", "f"]

    def test_printed_values_kept_verbatim_where_correct(self, report):
        for key in ("A.l_cd", "A.u_cd", "A.l_pi"):
            assert tuple(report["values"][key]) == PRINTED_VALUES[key]

    def test_errata_carry_forcing_text(self):
        for e in ERRATA:
            d = e.as_dict()
            assert d["printed"] and d["oracle"] and d["forcing"]

    def test_deterministic(self, report):
        assert build_section6_report() == report

    @pytest.mark.parametrize("erratum, oracle", [("table1-bc", "{c, e}"), ("su-efb", "closed")])
    def test_erratum_oracle_must_match_recomputation(
        self, monkeypatch, capsys, erratum, oracle
    ):
        # a recomputation that differs from its erratum's oracle is not exact
        errata = tuple(
            e._replace(oracle=oracle) if e.id == erratum else e
            for e in ERRATA
        )
        monkeypatch.setattr(fixtures, "ERRATA", errata)
        assert build_section6_report()["exact_after_errata"] is False
        assert run(["fixture", "section6"]) == 1
        assert capsys.readouterr().out.endswith("exact after errata: false\n")


class TestSection3:
    def test_repaired_bound_set(self):
        sys = section3_system()
        got = upper_bounds(sys, sys.id("1"), sys.id("2"))
        assert sys.set_labels(got) == ("3", "4", "5")

    def test_no_reflexive_edge_at_one(self):
        sys = section3_system()
        assert not sys.has(sys.id("1"), sys.id("1"))

    def test_up_directed(self):
        assert is_up_directed(section3_system())
