"""The package's public surface: names resolved on first access are the
home modules' objects, and the list of names stays fixed."""

import subprocess
import sys

import pytest

import dirough

PUBLIC = [
    "ALL_LAWS", "AcpElement", "AuditInstance", "CLAIMS", "CapExceededError",
    "ChoiceStrategy", "Claim", "ClaimResult", "ClusterSet", "Dataset",
    "DeviationReport", "DiroughError", "ERRATA", "E_CONSEQUENCES", "GranuleFamily",
    "Groupoid", "InformationTable", "InputFormatError", "LabelError",
    "LawAuditReport", "LawError", "LawVerdict", "NotUpDirectedError", "PgTuple",
    "PseudoJoinMode", "REGION_KINDS", "RelationalSystem", "RoughCluster",
    "RoughTuple", "ScoreTable", "SpaceProfile", "StructureError", "ValidityReport",
    "acp", "acp_carrier", "acp_coprod", "acp_leq", "acp_neg", "acp_op",
    "approx_basic", "approx_cud", "approx_pi", "audit", "audit_acp_laws",
    "audit_claims", "bottom", "build_order_groupoid", "build_relation",
    "build_section6_report", "build_updir_groupoid", "check_claim", "check_laws",
    "check_morphism", "claim_ids", "classify", "cluster", "compare_cud",
    "compare_pi", "cud", "cud_family", "cud_tuple", "cudas_op", "dc_neighborhood",
    "derive_pawl_relation", "dump_cayley", "dump_relation", "errors",
    "eth_closure", "exhaustive_cap", "fixtures", "from_id_pairs", "generate",
    "grpd", "is_closed", "is_cud", "is_ideal_or_filter", "is_up_directed",
    "law_violation", "load_cayley", "load_dataset", "load_relation",
    "neighborhood", "parse_cayley", "parse_dataset", "parse_relation", "pg_tuple",
    "piappr", "propose_clusters", "pseudo_joins", "random_system",
    "random_updirected_system", "region", "region_table", "regions",
    "relation_of", "relsys", "replay_witness", "rough_tuple_for",
    "score_clusters", "section3_system", "section6_groupoid", "section6_system",
    "segmentation_csv", "segmentation_rows", "select_clusters", "step1_relation",
    "subgroupoids", "to_dot", "top", "upper_bounds", "validate_clustering",
    "validate_element", "verify_b_of_s",
]


def test_public_names_fixed():
    assert len(PUBLIC) == 113
    assert sorted(dirough.__all__) == PUBLIC
    assert set(PUBLIC) <= set(dir(dirough))


def test_names_are_home_objects():
    for name in PUBLIC:
        value = getattr(dirough, name)
        if name in dirough._EXPORTS:
            assert value is sys.modules[f"dirough.{name}"], name
        else:
            home = sys.modules[f"dirough.{dirough._HOME[name]}"]
            assert value is getattr(home, name), name


def test_star_import_binds_every_name():
    ns: dict = {}
    exec("from dirough import *", ns)
    assert set(PUBLIC) <= set(ns)
    assert ns["approx_pi"] is dirough.piappr.approx_pi


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        dirough.no_such_name  # noqa: B018


def test_bare_import_loads_no_submodule():
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, dirough; print(sorted(m for m in sys.modules"
         " if m.split('.')[0] in ('dirough', 'numpy')))"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['dirough']"
