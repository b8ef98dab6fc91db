"""Finite engine for directed rough sets and the groupoids they induce.

The library works over an explicitly listed universe: relations, granule
families, approximations, and algebraic checks are all exhaustive and
deterministic. Subsets are plain Python ints used as bitmasks over the
universe's label order; every public constructor accepts labels and every
report converts back to labels.

Public names load on first access (PEP 562), so ``python -m dirough <cmd>``
imports only the modules that ``<cmd>`` runs; numpy loads only with the
cluster pipeline.
"""

import sys as _sys

__version__ = "0.1.0"

# Home module -> the public names it exports.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "acp": (
        "AcpElement",
        "LawAuditReport",
        "LawVerdict",
        "acp_carrier",
        "acp_coprod",
        "acp_leq",
        "acp_neg",
        "acp_op",
        "audit_acp_laws",
        "bottom",
        "top",
        "validate_element",
    ),
    "audit": (
        "CLAIMS",
        "AuditInstance",
        "Claim",
        "ClaimResult",
        "DeviationReport",
        "audit_claims",
        "check_claim",
        "claim_ids",
        "random_system",
        "random_updirected_system",
        "replay_witness",
    ),
    "cluster": (
        "ClusterSet",
        "Dataset",
        "RoughCluster",
        "ScoreTable",
        "ValidityReport",
        "load_dataset",
        "parse_dataset",
        "propose_clusters",
        "rough_tuple_for",
        "score_clusters",
        "segmentation_csv",
        "segmentation_rows",
        "select_clusters",
        "step1_relation",
        "validate_clustering",
    ),
    "cud": (
        "RoughTuple",
        "approx_cud",
        "cud_family",
        "cud_tuple",
        "cudas_op",
        "eth_closure",
    ),
    "errors": (
        "CapExceededError",
        "DiroughError",
        "InputFormatError",
        "LabelError",
        "LawError",
        "NotUpDirectedError",
        "StructureError",
    ),
    "fixtures": (
        "ERRATA",
        "build_section6_report",
        "section3_system",
        "section6_groupoid",
        "section6_system",
    ),
    "grpd": (
        "ALL_LAWS",
        "E_CONSEQUENCES",
        "ChoiceStrategy",
        "Groupoid",
        "build_order_groupoid",
        "build_updir_groupoid",
        "check_laws",
        "dump_cayley",
        "generate",
        "is_closed",
        "law_violation",
        "load_cayley",
        "parse_cayley",
        "pseudo_joins",
        "relation_of",
        "subgroupoids",
        "verify_b_of_s",
    ),
    "piappr": ("PgTuple", "approx_pi", "pg_tuple"),
    "regions": ("REGION_KINDS", "region_table"),
    "relsys": (
        "GranuleFamily",
        "RelationalSystem",
        "SpaceProfile",
        "approx_basic",
        "build_relation",
        "check_morphism",
        "classify",
        "dc_neighborhood",
        "dump_relation",
        "exhaustive_cap",
        "from_id_pairs",
        "is_cud",
        "is_up_directed",
        "load_relation",
        "neighborhood",
        "parse_relation",
        "upper_bounds",
    ),
}

_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}

# the home modules are public names too
__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    home = name if name in _EXPORTS else _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in -X importtime
    __import__(f"{__name__}.{home}")
    module = _sys.modules[f"{__name__}.{home}"]
    if home == name:
        return module  # the import bound it on the package
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
