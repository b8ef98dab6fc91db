"""Finite engine for directed rough sets and the groupoids they induce.

The library works over an explicitly listed universe: relations, granule
families, approximations, and algebraic checks are all exhaustive and
deterministic. Subsets are plain Python ints used as bitmasks over the
universe's label order; every public constructor accepts labels and every
report converts back to labels.
"""

from .acp import (
    AcpElement,
    LawAuditReport,
    LawVerdict,
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
from .audit import (
    CLAIMS,
    AuditInstance,
    Claim,
    ClaimResult,
    DeviationReport,
    audit_claims,
    check_claim,
    claim_ids,
    random_system,
    random_updirected_system,
    replay_witness,
)
from .cluster import (
    ClusterSet,
    Dataset,
    RoughCluster,
    ScoreTable,
    ValidityReport,
    load_dataset,
    parse_dataset,
    propose_clusters,
    rough_tuple_for,
    score_clusters,
    segmentation_csv,
    segmentation_rows,
    select_clusters,
    step1_relation,
    validate_clustering,
)
from .cud import (
    RoughTuple,
    approx_cud,
    compare_cud,
    cud_family,
    cud_tuple,
    cudas_op,
    eth_closure,
)
from .errors import (
    CapExceededError,
    DiroughError,
    InputFormatError,
    LabelError,
    LawError,
    NotUpDirectedError,
    StructureError,
)
from .fixtures import (
    ERRATA,
    build_section6_report,
    section3_system,
    section6_groupoid,
    section6_system,
)
from .grpd import (
    ALL_LAWS,
    E_CONSEQUENCES,
    ChoiceStrategy,
    Groupoid,
    PseudoJoinMode,
    build_order_groupoid,
    build_updir_groupoid,
    check_laws,
    dump_cayley,
    generate,
    is_closed,
    law_violation,
    load_cayley,
    parse_cayley,
    pseudo_joins,
    relation_of,
    subgroupoids,
    verify_b_of_s,
)
from .piappr import PgTuple, approx_pi, compare_pi, pg_tuple
from .regions import REGION_KINDS, region, region_table
from .relsys import (
    GranuleFamily,
    InformationTable,
    RelationalSystem,
    SpaceProfile,
    approx_basic,
    build_relation,
    check_morphism,
    classify,
    dc_neighborhood,
    derive_pawl_relation,
    dump_relation,
    exhaustive_cap,
    from_id_pairs,
    is_cud,
    is_ideal_or_filter,
    is_up_directed,
    load_relation,
    neighborhood,
    parse_relation,
    to_dot,
    upper_bounds,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
