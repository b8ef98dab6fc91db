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
from functools import cache, cached_property, partial
from itertools import groupby
from typing import Callable, Collection, NamedTuple, Sequence

import numpy as np

from ._bits import is_subset, lex_key, mask_of, rank_key
from .cud import RoughTuple, cud_bounds, cud_family
from .errors import InputFormatError, LawError, NotUpDirectedError, StructureError
from .grpd import Groupoid, generate
from .piappr import approx_pi, minimal_closed_supersets
from .relsys import Record, RelationalSystem, basic_bounds, from_id_pairs, read_parsed

RHO_NAMES = ("euclidean", "chebyshev")
FALLBACKS = ("error", "basic")
TOP_LABEL = "__top__"
# source rows per step-1 block: a block's (rows, N) masks stay small
_STEP1_BLOCK = 32
# the least band-0 reach of a step-1 window: a difference this large still
# squares to a normal double, so its square never underflows to zero
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)
# components per scoring block: a block's member arrays stay small
_SCORE_BLOCK = 64
# support pairs per nested-support block: a block's word arrays stay small
_PAIR_BLOCK = 1024


# ---------------------------------------------------------------------------
# Dataset


class Dataset(Record):
    """Rows of non-negative band intensities, optionally georeferenced;
    array, not a field, holds them as one read-only float array."""

    _fields = ("ids", "bands", "rows", "coords")

    def __init__(
        self,
        ids: tuple[str, ...],
        bands: tuple[str, ...],
        rows: tuple[tuple[float, ...], ...],
        coords: tuple[tuple[float, float], ...] | None = None,
    ):
        d = self.__dict__
        d["ids"], d["bands"], d["rows"], d["coords"] = ids, bands, rows, coords
        if len(set(ids)) != len(ids):
            raise InputFormatError("duplicate row id")
        if TOP_LABEL in ids:
            raise InputFormatError(f"row id {TOP_LABEL!r} is reserved for the top fallback")
        if len(rows) != len(ids):
            raise InputFormatError("row count does not match id count")
        dim = len(bands)
        for rid, row in zip(ids, rows):
            if len(row) != dim:
                raise InputFormatError(f"row {rid!r} has {len(row)} bands, expected {dim}")
        X = np.asarray(rows, dtype=float)
        bad = np.flatnonzero(~(np.isfinite(X) & (X >= 0)))
        if len(bad):
            i, j = divmod(int(bad[0]), dim)
            raise InputFormatError(
                f"row {ids[i]!r}, band {bands[j]!r}: intensities must be finite and >= 0"
            )
        X.flags.writeable = False
        d["array"] = X
        if coords is not None and len(coords) != len(ids):
            raise InputFormatError("coordinate count does not match row count")

    @property
    def dimension(self) -> int:
        return len(self.bands)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {rid: i for i, rid in enumerate(self.ids)}


def parse_dataset(text: str) -> Dataset:
    """CSV with a header row. Columns named id, lat or lon
    (case-insensitive) take those roles; every other column is a band.
    Each of these three roles has at most one column, and each band name
    one column. Header names and cells are trimmed; blank lines are skipped.
    """
    reader = csv.reader(io.StringIO(text))
    header = next((rec for rec in reader if rec), None)
    if header is None:
        raise InputFormatError("empty dataset")
    header = [col.strip() for col in header]
    # the column of each band name, and the one column of each id, lat and lon role
    band_cols: dict[str, int] = {}
    role_col: dict[str, int] = {}
    for i, col in enumerate(header):
        role = col.lower()
        if role not in ("id", "lat", "lon"):
            if col in band_cols:
                raise InputFormatError(f"dataset has two band columns named {col!r}")
            band_cols[col] = i
        elif role in role_col:
            raise InputFormatError(
                f"dataset has two {role} columns: {header[role_col[role]]!r} and {col!r}"
            )
        else:
            role_col[role] = i
    id_col, lat_col, lon_col = (role_col.get(role) for role in ("id", "lat", "lon"))
    if not band_cols:
        raise InputFormatError("dataset has no band columns")
    if (lat_col is None) != (lon_col is None):
        have, missing = ("lat", "lon") if lon_col is None else ("lon", "lat")
        raise InputFormatError(f"dataset has a {have} column but no {missing} column")

    ids, rows, coords = [], [], []
    for k, rec in enumerate(reader):
        if not rec:
            continue
        if len(rec) != len(header):
            raise InputFormatError(f"row {k + 1} has {len(rec)} fields, expected {len(header)}")
        ids.append(rec[id_col].strip() if id_col is not None else f"r{k}")
        vals = []
        for band, i in band_cols.items():
            cell = rec[i].strip()
            try:
                vals.append(float(cell))
            except ValueError:
                raise InputFormatError(
                    f"row {ids[-1]!r}, column {band!r}: not a number: {cell!r}"
                )
        rows.append(tuple(vals))
        if lat_col is not None:
            try:
                coords.append((float(rec[lat_col]), float(rec[lon_col])))
            except ValueError:
                raise InputFormatError(f"row {ids[-1]!r}: bad coordinate")
    if not rows:
        raise InputFormatError("dataset has no rows")
    return Dataset(
        tuple(ids),
        tuple(band_cols),
        tuple(rows),
        tuple(coords) if lat_col is not None else None,
    )


def load_dataset(path: str) -> Dataset:
    return read_parsed(path, parse_dataset)


# ---------------------------------------------------------------------------
# Step 1: the induced relation


def step1_relation(
    ds: Dataset,
    rho: str = "euclidean",
    eps: float = 1.0,
) -> RelationalSystem:
    """Rac iff row a is componentwise <= row c and within eps of it.

    Reflexive by construction (distance 0, dominance non-strict). The rows
    are taken in band-0 order, a block of source rows at a time, and each
    block is compared only with its window: the rows whose band 0 lies
    from the block's first band-0 value to its last plus a margin of
    max(2 * eps, _SQRT_TINY). A row before the window fails dominance. A
    row past it differs from every source row by more than the margin in
    band 0, even as rounded, so under either rho it lies farther than eps
    away: its squared band-0 difference cannot underflow, and a sum that
    overflows is scaled. The dominance and distance tests decide every
    pair inside the window, so the relation is the one all N² pairs give.
    The cost is O(N·w·d) for windows of w rows, and N²·d at worst, when
    eps or a run of equal band-0 values spans the rows.
    """
    if rho not in RHO_NAMES:
        raise LawError(f"unknown distance {rho!r}")
    eps = float(eps)
    if not eps > 0:
        raise LawError("eps must be positive")

    n, d = len(ds.ids), ds.dimension
    X = ds.array.reshape(n, d)
    band0 = X[:, 0] if d else np.zeros(n)
    order = np.argsort(band0, kind="stable")
    S, key = X[order], band0[order]
    cols = np.ascontiguousarray(S.T)
    margin = max(2 * eps, _SQRT_TINY)
    packed = np.empty((n, (n + 7) // 8), dtype=np.uint8)
    for a0 in range(0, n, _STEP1_BLOCK):
        block = S[a0:a0 + _STEP1_BLOCK]
        b = len(block)
        # Python floats: an end past the largest double is inf, silently
        lo = int(key.searchsorted(key[a0], "left"))
        hi = int(key.searchsorted(float(key[a0 + b - 1]) + margin, "right"))
        window = S[lo:hi]
        # dominance band by band: for finite floats c - a >= 0 iff c >= a
        related = np.ones((b, hi - lo), dtype=bool)
        for j in range(d):
            related &= cols[j, lo:hi] >= block[:, j, None]
        # the distance only over the dominated pairs, as (K, d) rows
        pairs = np.flatnonzero(related)
        src, dst = np.divmod(pairs, hi - lo)
        diff = window[dst] - block[src]
        if rho == "euclidean":
            dist = _euclidean(diff)
        else:
            dist = np.abs(diff).max(axis=1, initial=0.0)
        related.reshape(-1)[pairs[~(dist <= eps)]] = False
        # back into id order, block row by block row
        scattered = np.zeros((b, n), dtype=bool)
        scattered[:, order[lo:hi]] = related
        packed[order[a0:a0 + b]] = np.packbits(scattered, axis=1, bitorder="little")
    succ = tuple(int.from_bytes(row.tobytes(), "little") for row in packed)
    return RelationalSystem(ds.ids, succ)


def _euclidean(diff: np.ndarray) -> np.ndarray:
    """The euclidean norm of each row of diff. A row whose sum of squares
    overflows is scaled by its largest |diff| first; every other row keeps
    the bits of the plain sqrt of its sum of squares."""
    with np.errstate(over="ignore"):
        dist = np.sqrt((diff**2).sum(axis=1))
        big = np.flatnonzero(np.isinf(dist))
        if len(big):
            part = np.abs(diff[big])
            scale = part.max(axis=1)
            dist[big] = scale * np.sqrt(((part / scale[:, None]) ** 2).sum(axis=1))
    return dist


# ---------------------------------------------------------------------------
# Rough clusters


class RoughCluster(NamedTuple):
    """A candidate subset together with its approximation tuple."""

    support: int
    approx: RoughTuple


class ClusterSet(NamedTuple):
    """Clusters whose tuples one machinery produced, named by flavor: cud
    granules, the subgroupoid lattice (pi), or plain neighborhood
    approximations (basic, the fallback for systems that are not
    up-directed)."""

    clusters: tuple[RoughCluster, ...]
    flavor: str
    sys: RelationalSystem
    g: Groupoid | None = None


class ValidityReport(NamedTuple):
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


def rough_tuple_for(
    sys: RelationalSystem,
    g: Groupoid | None,
    A: int,
    flavor: str,
) -> RoughTuple:
    """Approximate A per flavor: the tuple over _bounds_for's pair.

    propose_clusters and validate_clustering read _bounds_for's pairs
    instead, and propose builds a tuple only for a cluster it returns.
    """
    return RoughTuple(*_bounds_for(sys, g, A, flavor))


def _bounds_for(
    sys: RelationalSystem, g: Groupoid | None, A: int, flavor: str
) -> tuple[int, int]:
    """(lower, upper) of A per flavor, with rough_tuple_for's errors."""
    if flavor == "cud":
        return cud_bounds(sys, A)
    if flavor == "pi":
        if g is None:
            raise LawError("pi clustering needs a groupoid")
        return approx_pi(g, A, "l_pi"), approx_pi(g, A, "u_pi")
    if flavor == "basic":
        return basic_bounds(sys, A)
    raise LawError(f"unknown clustering flavor {flavor!r}")


def augment_with_top(sys: RelationalSystem) -> RelationalSystem:
    """sys plus a synthetic element, TOP_LABEL, that every element relates to."""
    if TOP_LABEL in sys.labels:
        raise StructureError(f"universe already contains {TOP_LABEL!r}")
    labels = sys.labels + (TOP_LABEL,)
    top = len(sys.labels)
    pairs = list(sys.pairs())
    pairs += [(x, top) for x in range(top + 1)]
    return from_id_pairs(labels, pairs)


def _seeds(sys: RelationalSystem, g: Groupoid | None, flavor: str, seeds: str) -> Collection[int]:
    """The distinct seed masks, in no particular order."""
    if seeds == "neighborhood":
        return [nb for filed in sys.nbds_by_least for nb in filed]
    if seeds == "granule":
        if flavor == "pi":  # the minimal nonempty closed sets
            return minimal_closed_supersets(partial(generate, g), 0, g.full_mask)
        if sys.reflexive:
            return [1 << x for x in range(sys.n)]  # the minimal CUD sets
        return cud_family(sys).minimal_meeting(sys.full_mask)
    raise LawError(f"unknown seed kind {seeds!r}")


def _seed_candidates(
    sys: RelationalSystem, g: Groupoid | None, flavor: str, seeds: str
) -> list[int]:
    """The seeds in candidate order: fewest members first, then by id tuple."""
    return sorted(_seeds(sys, g, flavor, seeds), key=rank_key(sys.n))


def propose_clusters(
    sys: RelationalSystem,
    g: Groupoid | None,
    flavor: str,
    seeds: str = "neighborhood",
    on_not_updirected: str = "error",
) -> ClusterSet:
    """Generate, deduplicate, and greedily select candidate clusters.

    A system that is not up-directed stops the pipeline unless the caller
    opts into the "basic" fallback, which switches to plain neighborhood
    approximations; it never happens silently. A caller that wants a
    synthetic row above everything passes augment_with_top(sys), which is
    up-directed. Pi clustering reads g, a groupoid over the system
    clustered: for an augmented one, over it. Greedy selection prefers
    large lower approximations, skips a candidate whose lower is already
    covered, and stops once the lowers cover the universe; failure to
    cover is left for validate_clustering to report. Candidates are
    deduplicated and sorted on their (lower, upper) pairs, the first
    candidate of a pair standing for it, and a RoughCluster is built only
    for a chosen one. Basic approximations of neighborhood seeds skip the
    pairs: each seed is its own lower, and only a chosen seed's bounds
    are computed.

    No two chosen supports are nested, with no test for it, because every
    lower used here is monotone in its support. A support inside a chosen
    one has its lower inside that cluster's lower, so it is already
    covered. A chosen support inside the candidate's has its lower inside
    the candidate's, and by the sort no smaller, so the two lowers are
    equal and the candidate is covered as well.
    """
    if flavor not in ("cud", "pi"):
        raise LawError(f"unknown clustering flavor {flavor!r}")
    if on_not_updirected not in FALLBACKS:
        raise LawError(f"unknown fallback {on_not_updirected!r}")

    work_flavor = flavor
    if not sys.up_directed:
        if on_not_updirected == "error":
            raise NotUpDirectedError(
                "induced relation is not up-directed; pass a fallback to proceed"
            )
        work_flavor = "basic"
    if work_flavor == "pi" and (g is None or g.labels != sys.labels):
        raise LawError("pi clustering needs a groupoid over the system it clusters")

    chosen: list[RoughCluster] = []
    covered = 0
    if work_flavor == "basic" and seeds == "neighborhood":
        # a neighborhood is its own basic lower, so the lowers are distinct
        # and the seeds sort as their pairs would: largest first, and in
        # candidate order within a size, which the stable sort keeps. Only
        # a chosen seed is approximated.
        cands = _seed_candidates(sys, g, work_flavor, seeds)
        for A in sorted(cands, key=int.bit_count, reverse=True):
            if covered == sys.full_mask:
                break
            if not is_subset(A, covered):
                chosen.append(RoughCluster(A, RoughTuple(*basic_bounds(sys, A))))
                covered |= A
        return ClusterSet(tuple(chosen), work_flavor, sys, g)

    # the first candidate of each (lower, upper) pair stands for it, with
    # its lower's key: the candidate's own where the lower is the candidate
    rank = rank_key(sys.n)
    cands = _seeds(sys, g, work_flavor, seeds)
    first: dict[tuple[int, int], tuple[int, int]] = {}
    for key, A in sorted(zip(map(rank, cands), cands)):
        bounds = _bounds_for(sys, g, A, work_flavor)
        if bounds[0] and bounds not in first:
            first[bounds] = A, key if bounds[0] == A else rank(bounds[0])

    pairs = sorted(first, key=lambda b: (-b[0].bit_count(), first[b][1]))
    for lower, run in groupby(pairs, key=lambda b: b[0]):
        if covered == sys.full_mask:
            break
        if is_subset(lower, covered):
            continue
        # of the pairs with this lower only the one whose support has the
        # first id tuple can be chosen; the rest are then covered
        run = list(run)
        best = min(run, key=lambda b: lex_key(first[b][0])) if len(run) > 1 else run[0]
        chosen.append(RoughCluster(first[best][0], RoughTuple(*best)))
        covered |= lower
    return ClusterSet(tuple(chosen), work_flavor, sys, g)


def validate_clustering(
    sys: RelationalSystem,
    g: Groupoid | None,
    cs: ClusterSet,
    flavor: str,
) -> ValidityReport:
    """covers: lowers union to the universe. disclusion: no two clusters
    with nested supports or roughly equal tuples.

    Each cluster's (lower, upper) is derived again from its support and
    compared with the pair its tuple carries; a mismatch raises
    StructureError. Support i can lie inside support j only if j
    holds the least member of i, so only such pairs are tested, on the
    supports' 64-bit words; an empty support lies inside every support.
    """
    covered = 0
    # the clusters of each (lower, upper) pair, which are roughly equal
    classes: dict[tuple[int, int], list[int]] = {}
    for i, c in enumerate(cs.clusters):
        bounds = _bounds_for(sys, g, c.support, flavor)
        if bounds != (c.approx.lower, c.approx.upper):
            raise StructureError(
                f"cluster over {sys.set_labels(c.support)} does not reproduce its tuple"
            )
        covered |= bounds[0]
        classes.setdefault(bounds, []).append(i)
    uncovered = sys.full_mask & ~covered
    partners = _nested([c.support for c in cs.clusters], sys.n)
    for same in classes.values():
        if len(same) > 1:
            partners[np.ix_(same, same)] = True
    # the pairs i < j in row-major order
    first, second = np.divmod(np.flatnonzero(partners), len(partners))
    upper = first < second
    return ValidityReport(
        covers=uncovered == 0,
        uncovered=sys.set_labels(uncovered),
        disclusion_pairs=tuple(zip(first[upper].tolist(), second[upper].tolist())),
    )


def _nested(supports: Sequence[int], n: int) -> np.ndarray:
    """The bool matrix whose entry (i, j), i != j, is set when one of
    supports i and j lies inside the other."""
    k = len(supports)
    packed = _packed(supports, 8 * max(1, -(-n // 64)))
    words = packed.view("<u8")
    # the least member of each support, -1 for an empty one
    least = np.asarray([(m & -m).bit_length() - 1 for m in supports], dtype=np.intp)
    held = least.clip(0)
    # candidates[j, i]: j holds the least member of i, or i is empty
    candidates = packed[:, held >> 3]
    candidates >>= (held & 7).astype(np.uint8)
    candidates &= 1
    candidates = candidates.view(bool)
    candidates[:, least < 0] = True
    np.fill_diagonal(candidates, False)
    outer, inner = np.divmod(np.flatnonzero(candidates), k)
    inside = np.empty(len(inner), dtype=bool)
    for p0 in range(0, len(inner), _PAIR_BLOCK):
        block = slice(p0, p0 + _PAIR_BLOCK)
        stray = words[inner[block]]
        stray &= ~words[outer[block]]
        inside[block] = ~stray.any(axis=1)
    inner, outer = inner[inside], outer[inside]
    partners = np.zeros((k, k), dtype=bool)
    partners[inner, outer] = partners[outer, inner] = True
    return partners


# ---------------------------------------------------------------------------
# Scoring and selection

_COMPONENTS = ("lower", "upper", "boundary")


class ScoreRow(NamedTuple):
    cluster: int
    component: str
    value: tuple[float, ...] | float | None


class ScoreTable(Record):
    """Scores of the lower, upper and boundary component of each cluster
    in a cluster set, under one metric.

    A table built from explicit rows holds them as given. score_clusters
    builds one that has scored every lower and scores the uppers, or the
    boundaries, the first time something reads one of them: value(i,
    "upper"), or rows and what reads it (as_dict, ==, hash, repr). A
    nonempty upper or boundary whose score is not finite raises LawError
    then, as score_clusters does for a lower.
    """

    _fields = ("metric", "rows", "cluster_set")

    def __init__(self, metric: str, rows: tuple[ScoreRow, ...], cluster_set: ClusterSet):
        d = self.__dict__
        d["metric"], d["rows"], d["cluster_set"] = metric, rows, cluster_set

    @classmethod
    def _scored(
        cls, metric: str, cluster_set: ClusterSet, column: Callable[[str], list]
    ) -> ScoreTable:
        """The table whose component name of cluster i scores column(name)[i];
        column is cached, so each component is scored once."""
        table = cls.__new__(cls)
        d = table.__dict__
        d["metric"], d["cluster_set"], d["_column"] = metric, cluster_set, cache(column)
        return table

    @cached_property
    def rows(self) -> tuple[ScoreRow, ...]:
        # only a table from _scored gets here: explicit rows shadow this
        columns = [self._column(name) for name in _COMPONENTS]
        return tuple(
            ScoreRow(i, name, col[i])
            for i in range(len(self.cluster_set.clusters))
            for name, col in zip(_COMPONENTS, columns)
        )

    @cached_property
    def _values(self) -> dict[tuple[int, str], tuple[float, ...] | float | None]:
        # reversed, so that the first of two rows with one key wins
        return {(r.cluster, r.component): r.value for r in reversed(self.rows)}

    def value(self, cluster: int, component: str):
        column = self.__dict__.get("_column")
        if column is None:
            if (key := (cluster, component)) in self._values:
                return self._values[key]
        # a scored table has every component of every cluster
        elif component in _COMPONENTS and cluster in range(len(self.cluster_set.clusters)):
            return column(component)[int(cluster)]
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
    rather than zero; a singleton scores 0. The synthetic top row of
    augment_with_top has no bands and is left out of every component.

    The metric and every component's elements are checked here, and every
    lower is scored here: the lowers are what select_clusters ranks. The
    table scores the uppers, or the boundaries, the first time something
    reads one (see ScoreTable). Each component is scored in one pass over
    all clusters, with the bits that scoring each cluster's on its own
    gives. A nonempty component whose score is not finite, as when its
    squares overflow, raises LawError when it is scored: here for a lower,
    on first read for an upper or a boundary.
    """
    if metric not in ("band_variance", "nasd"):
        raise LawError(f"unknown metric {metric!r}")
    labels = cs.sys.labels
    row_of = np.asarray([ds._index.get(lab, -1) for lab in labels], dtype=np.intp)
    top = 1 << labels.index(TOP_LABEL) if TOP_LABEL in labels else 0
    missing = mask_of(np.flatnonzero(row_of < 0).tolist()) & ~top
    for c in cs.clusters:
        # a boundary lies inside its upper, so it holds no stray of its own
        for mask in (c.approx.lower, c.approx.upper):
            if stray := mask & missing:
                lab = labels[(stray & -stray).bit_length() - 1]
                raise LawError(f"cluster element {lab!r} is not a dataset row")

    def column(name: str) -> list:
        comps = [getattr(c.approx, name) & ~top for c in cs.clusters]
        # an empty component scores 0/0, left out below; a nonempty one whose
        # score passes the largest double is an error, not a value
        with np.errstate(over="ignore", invalid="ignore"):
            var = _component_variances(ds.array, row_of, comps, cs.sys.n)
            scores = 2 * var.sum(axis=1, keepdims=True) / ds.dimension if metric == "nasd" else var
        for i in np.flatnonzero(~np.isfinite(scores).all(axis=1)).tolist():
            if comps[i]:
                raise LawError(f"cluster {i} {name}: {metric} score is not finite")
        values = scores[:, 0].tolist() if metric == "nasd" else [tuple(v) for v in var.tolist()]
        return [val if mask else None for mask, val in zip(comps, values)]

    table = ScoreTable._scored(metric, cs, column)
    table._column("lower")
    return table


def _component_variances(
    X: np.ndarray, row_of: np.ndarray, masks: Sequence[int], n: int
) -> np.ndarray:
    """Per-band population variance of every component; nan, from 0/0, for
    an empty one. The caller sets numpy's errstate for it.

    Each value has the bits of X[rows].var(axis=0) over the component's rows
    in id order. With two or more bands numpy adds those rows one by one,
    each band on its own, so two bincount passes per band reproduce it: the
    sums, then the squared deviations from the mean. A single band is one
    contiguous column, which numpy sums pairwise, so there each component
    keeps its own call.
    """
    var = np.full((len(masks), X.shape[1]), np.nan)
    # a block of components at a time keeps the member arrays small
    for k0 in range(0, len(masks), _SCORE_BLOCK):
        block = masks[k0:k0 + _SCORE_BLOCK]
        k = len(block)
        member = _members(block, n)
        # the members component by component, each in id order
        comp, pos = np.divmod(np.flatnonzero(member), member.shape[1])
        rows = row_of[pos]
        size = np.bincount(comp, minlength=k)
        out = var[k0:k0 + k]
        if X.shape[1] == 1:
            for i, (m, end) in enumerate(zip(size.tolist(), np.cumsum(size).tolist())):
                if m:
                    out[i] = X[rows[end - m:end]].var(axis=0)
            continue
        for j, col in enumerate(X.T):
            vals = col[rows]
            mean = np.bincount(comp, vals, k) / size
            dev = vals - mean[comp]
            out[:, j] = np.bincount(comp, dev * dev, k) / size
    return var


def _packed(masks: Sequence[int], nbytes: int) -> np.ndarray:
    """The uint8 matrix whose row i holds masks[i] in nbytes little-endian
    bytes."""
    packed = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in masks), np.uint8)
    return packed.reshape(len(masks), nbytes)


def _members(masks: Sequence[int], n: int) -> np.ndarray:
    """The bool matrix whose row i marks the members of masks[i], over an
    n-element universe padded to whole bytes."""
    packed = _packed(masks, (n + 7) // 8)
    return np.unpackbits(packed, axis=1, bitorder="little").view(bool)


def _mask_of_row(row: np.ndarray) -> int:
    """The mask whose bit x is set when row[x] is."""
    return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")


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
    if priorities is not None:
        if scored.metric != "band_variance":
            raise LawError("band weights apply only to band_variance scores")
        if not all(math.isfinite(w) for w in priorities):
            raise LawError("weights must be finite")
        if any(w < 0 for w in priorities):
            raise LawError("weights must be non-negative")
    cs = scored.cluster_set
    ranked = sorted(
        range(len(cs.clusters)),
        key=lambda i: (_weighted(scored.value(i, "lower"), priorities), i),
    )
    kept = set(ranked)
    # depth[x]: how many kept lowers contain x; a cluster can go without
    # shrinking the cover exactly when its lower misses every element of
    # depth at most 1
    member = _members([c.approx.lower for c in cs.clusters], cs.sys.n)
    depth = member.sum(axis=0)
    thin = _mask_of_row(depth <= 1)
    for i in reversed(ranked):  # worst first
        if len(kept) <= k:
            break
        if not cs.clusters[i].approx.lower & thin:
            kept.remove(i)
            depth -= member[i]
            thin = _mask_of_row(depth <= 1)
    clusters = tuple(cs.clusters[i] for i in sorted(kept))
    return ClusterSet(clusters, cs.flavor, cs.sys, cs.g)


def segmentation_rows(cs: ClusterSet) -> list[tuple[str, str]]:
    """Row id -> cluster assignment from lower membership.

    Rows inside exactly one lower approximation get that cluster's index;
    rows in no lower (or in several) are boundary. The synthetic top row of
    augment_with_top is not a dataset row and gets no line.
    """
    member = _members([c.approx.lower for c in cs.clusters], cs.sys.n)
    hits = member.sum(axis=0).tolist()
    # the index of a row's cluster, where it has exactly one
    owner = (np.arange(len(member)) @ member).tolist()
    return [
        (lab, str(owner[i]) if hits[i] == 1 else "boundary")
        for i, lab in enumerate(cs.sys.labels)
        if lab != TOP_LABEL
    ]


def segmentation_csv(cs: ClusterSet) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["id", "cluster"])
    w.writerows(segmentation_rows(cs))
    return buf.getvalue()
