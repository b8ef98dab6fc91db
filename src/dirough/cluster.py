"""Rough clustering over numeric band data.

Step 1 induces a relation from componentwise dominance plus a distance
threshold. Step 2 proposes candidate clusters from seed subsets and
approximates them (cud granules or the subgroupoid lattice). Steps 3-5
score the proposals and select a small covering family. Validity of a
clustering means the lower approximations cover the universe and no two
clusters include one another or coincide roughly (disclusion).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from ._bits import bits, is_subset, lex_key, mask_of, popcount
from .cud import RoughTuple, cud_family, cud_tuple
from .errors import InputFormatError, LawError, NotUpDirectedError, StructureError
from .grpd import Groupoid, subgroupoids
from .piappr import approx_pi
from .relsys import RelationalSystem, approx_basic, from_id_pairs, is_up_directed, read_parsed

RHO_NAMES = ("euclidean", "chebyshev")
SEED_KINDS = ("neighborhood", "granule")
FALLBACKS = ("error", "basic", "top")
TOP_LABEL = "__top__"


# ---------------------------------------------------------------------------
# Dataset


@dataclass(frozen=True)
class Dataset:
    """Rows of non-negative band intensities, optionally georeferenced."""

    ids: tuple[str, ...]
    bands: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    coords: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if len(set(self.ids)) != len(self.ids):
            raise InputFormatError("duplicate row id")
        if TOP_LABEL in self.ids:
            raise InputFormatError(f"row id {TOP_LABEL!r} is reserved for the top fallback")
        if len(self.rows) != len(self.ids):
            raise InputFormatError("row count does not match id count")
        d = len(self.bands)
        for rid, row in zip(self.ids, self.rows):
            if len(row) != d:
                raise InputFormatError(f"row {rid!r} has {len(row)} bands, expected {d}")
            for band, v in zip(self.bands, row):
                if not math.isfinite(v) or v < 0:
                    raise InputFormatError(
                        f"row {rid!r}, band {band!r}: intensities must be finite and >= 0"
                    )
        if self.coords is not None and len(self.coords) != len(self.ids):
            raise InputFormatError("coordinate count does not match row count")

    @property
    def dimension(self) -> int:
        return len(self.bands)

    @cached_property
    def array(self) -> np.ndarray:
        """The rows as one read-only float array, built once and shared."""
        X = np.asarray(self.rows, dtype=float)
        X.flags.writeable = False
        return X

    @cached_property
    def _index(self) -> dict[str, int]:
        return {rid: i for i, rid in enumerate(self.ids)}


def parse_dataset(text: str, schema: Mapping[str, str] | None = None) -> Dataset:
    """CSV with a header row. schema maps column name to a role among
    id, band, lat, lon, ignore; unmapped columns default to band.

    Without a schema, columns literally named id, lat, or lon
    (case-insensitive) take those roles; everything else is a band.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise InputFormatError("empty dataset")
    roles = {}
    if schema is None:
        schema = {
            col: col.lower()
            for col in header
            if col.lower() in ("id", "lat", "lon")
        }
    else:
        schema = dict(schema)
    for col in schema:
        if col not in header:
            raise InputFormatError(f"schema names unknown column {col!r}")
    for col in header:
        role = schema.get(col, "band")
        if role not in ("id", "band", "lat", "lon", "ignore"):
            raise InputFormatError(f"unknown column role {role!r}")
        roles[col] = role
    band_cols = [i for i, c in enumerate(header) if roles[c] == "band"]
    id_col = next((i for i, c in enumerate(header) if roles[c] == "id"), None)
    lat_col = next((i for i, c in enumerate(header) if roles[c] == "lat"), None)
    lon_col = next((i for i, c in enumerate(header) if roles[c] == "lon"), None)
    if not band_cols:
        raise InputFormatError("dataset has no band columns")

    ids, rows, coords = [], [], []
    for k, rec in enumerate(reader):
        if not rec:
            continue
        if len(rec) != len(header):
            raise InputFormatError(f"row {k + 1} has {len(rec)} fields, expected {len(header)}")
        ids.append(rec[id_col].strip() if id_col is not None else f"r{k}")
        vals = []
        for i in band_cols:
            cell = rec[i].strip()
            try:
                vals.append(float(cell))
            except ValueError:
                raise InputFormatError(
                    f"row {ids[-1]!r}, column {header[i]!r}: not a number: {cell!r}"
                )
        rows.append(tuple(vals))
        if lat_col is not None and lon_col is not None:
            try:
                coords.append((float(rec[lat_col]), float(rec[lon_col])))
            except ValueError:
                raise InputFormatError(f"row {ids[-1]!r}: bad coordinate")
    if not rows:
        raise InputFormatError("dataset has no rows")
    return Dataset(
        tuple(ids),
        tuple(header[i] for i in band_cols),
        tuple(rows),
        tuple(coords) if lat_col is not None and lon_col is not None else None,
    )


def load_dataset(path: str, schema: Mapping[str, str] | None = None) -> Dataset:
    return read_parsed(path, lambda text: parse_dataset(text, schema))


# ---------------------------------------------------------------------------
# Step 1: the induced relation


def step1_relation(
    ds: Dataset,
    rho: str = "euclidean",
    eps: float | Mapping[str, float] = 1.0,
) -> RelationalSystem:
    """Rac iff row a is componentwise <= row c and within eps of it.

    eps is a global scalar or a per-row map keyed by the source row's id.
    Reflexive by construction (distance 0, dominance non-strict).
    """
    if rho not in RHO_NAMES:
        raise LawError(f"unknown distance {rho!r}")
    if isinstance(eps, Mapping):
        missing = [rid for rid in ds.ids if rid not in eps]
        if missing:
            raise LawError(f"eps map is missing rows: {', '.join(missing)}")
        eps_by_row = np.asarray([float(eps[rid]) for rid in ds.ids])
    else:
        eps_by_row = np.full(len(ds.ids), float(eps))
    if not (eps_by_row > 0).all():
        raise LawError("eps must be positive")

    X = ds.array
    succ = []
    for a in range(len(ds.ids)):
        diff = X - X[a]  # diff[c] = row c - row a
        dominated = (diff >= 0).all(axis=1)
        if rho == "euclidean":
            dist = np.sqrt((diff**2).sum(axis=1))
        else:
            dist = np.abs(diff).max(axis=1, initial=0.0)
        row = dominated & (dist <= eps_by_row[a])
        succ.append(int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little"))
    return RelationalSystem(ds.ids, tuple(succ))


# ---------------------------------------------------------------------------
# Rough clusters


@dataclass(frozen=True)
class RoughCluster:
    """A candidate subset together with its approximation tuple."""

    support: int
    approx: RoughTuple


@dataclass(frozen=True)
class ClusterSet:
    clusters: tuple[RoughCluster, ...]
    flavor: str
    sys: RelationalSystem
    g: Groupoid | None = None

    @property
    def lower_union(self) -> int:
        out = 0
        for c in self.clusters:
            out |= c.approx.lower
        return out


@dataclass(frozen=True)
class ValidityReport:
    covers: bool
    uncovered: tuple[str, ...]
    disclusion_pairs: tuple[tuple[int, int], ...]

    @property
    def valid(self) -> bool:
        return self.covers and not self.disclusion_pairs

    def as_dict(self) -> dict:
        return {
            "covers": self.covers,
            "uncovered": list(self.uncovered),
            "disclusion_pairs": [list(p) for p in self.disclusion_pairs],
            "valid": self.valid,
        }


def _reflexive(sys: RelationalSystem) -> bool:
    """Every singleton is CUD, so the CUD family need not be enumerated."""
    return all(sys.has(x, x) for x in range(sys.n))


def rough_tuple_for(
    sys: RelationalSystem,
    g: Groupoid | None,
    A: int,
    flavor: str,
) -> RoughTuple:
    """Approximate A per flavor.

    Reflexive systems admit an exact shortcut past the exponential granule
    family: every singleton is CUD, so both cud approximations collapse to A
    itself, at any size and whether or not the system is up-directed.
    """
    if flavor == "cud":
        if _reflexive(sys):
            if A & ~sys.full_mask:
                raise LawError("set A is not a subset of the universe")
            return RoughTuple(A, A, 0, "cud")
        return cud_tuple(sys, A, "pointwise")
    if flavor == "pi":
        if g is None:
            raise LawError("pi clustering needs a groupoid")
        lo = approx_pi(g, A, "l_pi")
        up = approx_pi(g, A, "u_pi")
        return RoughTuple(lo, up, up & ~lo, "pi")
    if flavor == "basic":
        lo = approx_basic(sys, A, "l")
        up = approx_basic(sys, A, "u")
        return RoughTuple(lo, up, up & ~lo, "basic")
    raise LawError(f"unknown clustering flavor {flavor!r}")


def _augment_with_top(sys: RelationalSystem) -> RelationalSystem:
    if TOP_LABEL in sys.labels:
        raise StructureError(f"universe already contains {TOP_LABEL!r}")
    labels = sys.labels + (TOP_LABEL,)
    top = len(sys.labels)
    pairs = list(sys.pairs())
    pairs += [(x, top) for x in range(top + 1)]
    return from_id_pairs(labels, pairs)


def _seed_candidates(
    sys: RelationalSystem, g: Groupoid | None, flavor: str, seeds: str
) -> list[int]:
    if seeds == "neighborhood":
        cands = {sys.pred[x] for x in range(sys.n)}
    elif seeds == "granule":
        if flavor != "pi" and _reflexive(sys):
            cands = {1 << x for x in range(sys.n)}  # the minimal CUD sets
        else:
            fam = subgroupoids(g) if flavor == "pi" else cud_family(sys)
            cands = set(fam.minimal_members(bool))
    else:
        raise LawError(f"unknown seed kind {seeds!r}")
    cands.discard(0)
    return sorted(cands, key=lambda m: (popcount(m), lex_key(m)))


def propose_clusters(
    sys: RelationalSystem,
    g: Groupoid | None,
    flavor: str,
    seeds: str = "neighborhood",
    on_not_updirected: str = "error",
) -> ClusterSet:
    """Generate, deduplicate, and greedily select candidate clusters.

    A system that is not up-directed stops the pipeline unless the caller
    opts into a fallback: "basic" switches to plain neighborhood
    approximations, "top" adds a synthetic row above everything. Neither
    happens silently. Greedy selection prefers large lower approximations
    and stops once the lowers cover the universe; failure to cover is left
    for validate_clustering to report.
    """
    if flavor not in ("cud", "pi"):
        raise LawError(f"unknown clustering flavor {flavor!r}")
    if flavor == "pi" and g is None:
        raise LawError("pi clustering needs a groupoid")
    if on_not_updirected not in FALLBACKS:
        raise LawError(f"unknown fallback {on_not_updirected!r}")

    work_flavor = flavor
    if not is_up_directed(sys):
        if on_not_updirected == "error":
            raise NotUpDirectedError(
                "induced relation is not up-directed; pass a fallback to proceed"
            )
        if on_not_updirected == "top":
            sys = _augment_with_top(sys)
            if flavor == "pi":
                raise LawError(
                    "pi clustering over an augmented system needs a groupoid "
                    "rebuilt from it; build one and call again"
                )
        else:
            work_flavor = "basic"

    candidates = _seed_candidates(sys, g, work_flavor, seeds)
    seen: set[tuple[int, int]] = set()
    clusters: list[RoughCluster] = []
    for A in candidates:
        t = rough_tuple_for(sys, g, A, work_flavor)
        if not t.lower:
            continue
        key = (t.lower, t.upper)
        if key in seen:
            continue
        seen.add(key)
        clusters.append(RoughCluster(A, t))

    clusters.sort(
        key=lambda c: (-popcount(c.approx.lower), lex_key(c.approx.lower), lex_key(c.support))
    )
    chosen: list[RoughCluster] = []
    covered = 0
    for c in clusters:
        if covered == sys.full_mask:
            break
        if is_subset(c.approx.lower, covered):
            continue
        conflict = any(
            is_subset(c.support, k.support) or is_subset(k.support, c.support)
            for k in chosen
        )
        if conflict:
            continue
        chosen.append(c)
        covered |= c.approx.lower
    return ClusterSet(tuple(chosen), work_flavor, sys, g)


def validate_clustering(
    sys: RelationalSystem,
    g: Groupoid | None,
    cs: ClusterSet,
    flavor: str,
) -> ValidityReport:
    """covers: lowers union to the universe. disclusion: no two clusters
    with nested supports or roughly equal tuples."""
    covered = 0
    for c in cs.clusters:
        t = rough_tuple_for(sys, g, c.support, flavor)
        if t != c.approx:
            raise StructureError(
                f"cluster over {sys.set_labels(c.support)} does not reproduce its tuple"
            )
        covered |= t.lower
    uncovered = sys.full_mask & ~covered
    bad: list[tuple[int, int]] = []
    for i in range(len(cs.clusters)):
        for j in range(i + 1, len(cs.clusters)):
            a, b = cs.clusters[i], cs.clusters[j]
            nested = is_subset(a.support, b.support) or is_subset(b.support, a.support)
            rough_eq = (
                a.approx.lower == b.approx.lower and a.approx.upper == b.approx.upper
            )
            if nested or rough_eq:
                bad.append((i, j))
    return ValidityReport(
        covers=uncovered == 0,
        uncovered=sys.set_labels(uncovered),
        disclusion_pairs=tuple(bad),
    )


# ---------------------------------------------------------------------------
# Scoring and selection


@dataclass(frozen=True)
class ScoreRow:
    cluster: int
    component: str
    value: tuple[float, ...] | float | None


@dataclass(frozen=True)
class ScoreTable:
    metric: str
    rows: tuple[ScoreRow, ...]
    cluster_set: ClusterSet

    @cached_property
    def _values(self) -> dict[tuple[int, str], tuple[float, ...] | float | None]:
        # reversed, so that the first of two rows with one key wins
        return {(r.cluster, r.component): r.value for r in reversed(self.rows)}

    def value(self, cluster: int, component: str):
        try:
            return self._values[cluster, component]
        except KeyError:
            raise LawError(f"no score for cluster {cluster} component {component!r}")

    def as_dict(self) -> dict:
        return {
            "metric": self.metric,
            "rows": [
                {
                    "cluster": r.cluster,
                    "component": r.component,
                    "value": list(r.value) if isinstance(r.value, tuple) else r.value,
                }
                for r in self.rows
            ],
        }


def score_clusters(ds: Dataset, cs: ClusterSet, metric: str = "nasd") -> ScoreTable:
    """Population variance per band, or normalized average squared distance.

    The mean squared Euclidean distance over all ordered pairs, self-pairs
    included, is twice the summed per-band population variance, so both
    metrics come from one variance vector. Empty components score null
    rather than zero; a singleton scores 0. The synthetic top row of the
    "top" fallback has no bands and is left out of every component.
    """
    if metric not in ("band_variance", "nasd"):
        raise LawError(f"unknown metric {metric!r}")
    labels = cs.sys.labels
    row_of = np.asarray([ds._index.get(lab, -1) for lab in labels], dtype=np.intp)
    missing = mask_of(np.flatnonzero(row_of < 0).tolist())
    top = 1 << labels.index(TOP_LABEL) if TOP_LABEL in labels else 0
    nbytes = (cs.sys.n + 7) // 8
    rows: list[ScoreRow] = []
    for i, c in enumerate(cs.clusters):
        for name, mask in (
            ("lower", c.approx.lower),
            ("upper", c.approx.upper),
            ("boundary", c.approx.boundary),
        ):
            if stray := mask & missing & ~top:
                lab = labels[(stray & -stray).bit_length() - 1]
                raise LawError(f"cluster element {lab!r} is not a dataset row")
            member = np.unpackbits(
                np.frombuffer((mask & ~top).to_bytes(nbytes, "little"), dtype=np.uint8),
                bitorder="little",
            )
            data = ds.array[row_of[np.flatnonzero(member)]]
            val = None
            if len(data):
                var = data.var(axis=0)
                if metric == "nasd":
                    val = float(2 * var.sum() / ds.dimension)
                else:
                    val = tuple(float(v) for v in var)
            rows.append(ScoreRow(i, name, val))
    return ScoreTable(metric, tuple(rows), cs)


def _weighted(
    value: tuple[float, ...] | float | None, weights: Sequence[float] | None
) -> float:
    if value is None:
        return math.inf
    if isinstance(value, tuple):
        if weights is None:
            weights = [1.0] * len(value)
        if len(weights) != len(value):
            raise LawError("weight count does not match band count")
        if not all(math.isfinite(w) for w in weights):
            raise LawError("weights must be finite")
        if any(w < 0 for w in weights):
            raise LawError("weights must be non-negative")
        return float(sum(w * v for w, v in zip(weights, value)))
    return float(value)


def select_clusters(
    scored: ScoreTable, priorities: Sequence[float] | None = None, k: int = 2
) -> ClusterSet:
    """Keep at most k clusters, best weighted lower-component score first,
    never dropping one whose lower is needed for the cover. Priorities
    weight the bands of band_variance scores; nasd scores have no bands."""
    if k < 1:
        raise LawError("k must be at least 1")
    if priorities is not None and scored.metric != "band_variance":
        raise LawError("band weights apply only to band_variance scores")
    cs = scored.cluster_set
    ranked = sorted(
        range(len(cs.clusters)),
        key=lambda i: (_weighted(scored.value(i, "lower"), priorities), i),
    )
    kept = set(ranked)
    target = cs.lower_union
    for i in reversed(ranked):  # worst first
        if len(kept) <= k:
            break
        union = 0
        for j in kept:
            if j != i:
                union |= cs.clusters[j].approx.lower
        if union == target:
            kept.remove(i)
    clusters = tuple(cs.clusters[i] for i in sorted(kept))
    return ClusterSet(clusters, cs.flavor, cs.sys, cs.g)


def segmentation_rows(cs: ClusterSet) -> list[tuple[str, str]]:
    """Row id -> cluster assignment from lower membership.

    Rows inside exactly one lower approximation get that cluster's index;
    rows in no lower (or in several) are boundary. The synthetic top row of
    the "top" fallback is not a dataset row and gets no line.
    """
    n = cs.sys.n
    hits = [0] * n
    owner = [""] * n
    for k, c in enumerate(cs.clusters):
        for i in bits(c.approx.lower):
            hits[i] += 1
            owner[i] = str(k)
    return [
        (lab, owner[i] if hits[i] == 1 else "boundary")
        for i, lab in enumerate(cs.sys.labels)
        if lab != TOP_LABEL
    ]


def segmentation_csv(cs: ClusterSet) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["id", "cluster"])
    w.writerows(segmentation_rows(cs))
    return buf.getvalue()
