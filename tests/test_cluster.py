import math
import tracemalloc
from functools import reduce
from operator import or_

import pytest

import oracles
from conftest import every_relation, label_pairs, mix, rand_system, rand_updirected, sample_masks

from dirough.audit import _AUDIT_STRATEGIES
from dirough.cluster import (
    ClusterSet,
    Dataset,
    RoughCluster,
    ScoreRow,
    TOP_LABEL,
    _PAIR_BLOCK,
    _seed_candidates,
    augment_with_top,
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
from dirough.cud import RoughTuple, approx_cud, cud_tuple
from dirough.errors import InputFormatError, LawError, NotUpDirectedError, StructureError
from dirough.grpd import ChoiceStrategy, build_updir_groupoid, is_closed
from dirough.piappr import approx_pi
from dirough.relsys import RelationalSystem, approx_basic, basic_bounds, classify, is_up_directed


def ds_from(rows, ids=None, bands=None):
    ids = ids or tuple(f"r{i}" for i in range(len(rows)))
    bands = bands or tuple(f"b{j}" for j in range(len(rows[0]) if rows else 0))
    return Dataset(tuple(ids), tuple(bands), tuple(tuple(map(float, r)) for r in rows))


def two_blobs():
    return ds_from([(0, 0), (0.5, 0.5), (10, 10), (10.5, 10.5)])


def chain3():
    return ds_from([(0, 0), (1, 0), (1, 1)])


def blobs(seed, m, d=3, spread=5):
    """m rows around three far-apart centres; integer bands keep distances exact."""
    return ds_from([
        tuple(20 * (i % 3) + mix(seed, i, j) % spread for j in range(d)) for i in range(m)
    ])


def ids(mask):
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def oracle_view(cs):
    return [(ids(c.support), ids(c.approx.lower), ids(c.approx.upper)) for c in cs.clusters]


def hand_cluster_sets():
    """A blob dataset and ClusterSets over its system with nested supports,
    rough-equal pairs, an empty support and an empty lower; every tuple
    reproduces."""
    ds = blobs(5, 45)
    sys = step1_relation(ds, eps=4)
    mk = lambda m: RoughCluster(m, rough_tuple_for(sys, None, m, "basic"))
    pred = sys.pred
    empty_lower = next(1 << x for x in range(sys.n) if not rough_tuple_for(
        sys, None, 1 << x, "basic").lower)
    # distinct, non-nested supports with one tuple
    by_tuple = {}
    for m in [1 << x for x in range(sys.n)] + list(pred):
        by_tuple.setdefault(mk(m).approx, []).append(m)
    equal = [(a, b) for group in by_tuple.values() for a in group for b in group
             if a & ~b and b & ~a]
    sets = [
        [mk(0), mk(pred[0]), mk(pred[0] | pred[3]), mk(pred[3]), mk(0), mk(empty_lower)],
        [mk(pred[x]) for x in range(0, sys.n, 4)] + [mk(pred[0] | pred[4])],
        [mk(empty_lower), mk(sys.full_mask), mk(pred[7])] + [
            mk(m) for pair in equal[:3] for m in pair
        ],
        [mk(sum(1 << x for x in range(r, sys.n, 5))) for r in range(5)] * 2,
    ]
    assert equal and any(c.support == 0 for c in sets[0])
    return ds, [ClusterSet(tuple(cl), "basic", sys) for cl in sets]


def mask_over(n, *key):
    """A seeded mask over an n-element universe, 64 bits per mix word."""
    words = b"".join(mix(*key, w).to_bytes(8, "little") for w in range((n + 63) // 64))
    return int.from_bytes(words, "little") & ((1 << n) - 1)


def nested_supports(sys, seed, count, holding=0):
    """2 * count supports over sys, each ORed with holding: masks dense and
    sparse in turn, each followed by a random part of itself."""
    out = []
    for k in range(count):
        m = mask_over(sys.n, seed, k, 0)
        if k % 2:
            m &= mask_over(sys.n, seed, k, 1) & mask_over(sys.n, seed, k, 2)
        out += [m | holding, m & mask_over(sys.n, seed, k, 3) | holding]
    return out


def basic_set(sys, supports):
    return ClusterSet(tuple(
        RoughCluster(m, rough_tuple_for(sys, None, m, "basic")) for m in supports
    ), "basic", sys)


def assert_disclusion_matches_oracle(cs):
    rep = validate_clustering(cs.sys, None, cs, cs.flavor)
    want = oracles.disclusion_pairs(oracle_view(cs))
    assert list(rep.disclusion_pairs) == want
    assert all(type(i) is int and type(j) is int for i, j in rep.disclusion_pairs)
    return want


class TestParse:
    def test_plain(self):
        ds = parse_dataset("b1,b2\n1,2\n3,4\n5,6\n")
        assert ds.dimension == 2 and len(ds.rows) == 3
        assert ds.ids == ("r0", "r1", "r2")

    def test_roles_inferred_from_names(self):
        ds = parse_dataset("id,lat,lon,v\np1,1.5,2.5,7\n")
        assert ds.ids == ("p1",)
        assert ds.bands == ("v",)
        assert ds.coords == ((1.5, 2.5),)

    def test_bad_cell_names_row_and_column(self):
        with pytest.raises(InputFormatError) as err:
            parse_dataset("id,v\np1,abc\n")
        assert "p1" in str(err.value) and "v" in str(err.value)

    def test_no_bands(self):
        with pytest.raises(InputFormatError):
            parse_dataset("id\np1\n")

    def test_header_names_trimmed(self):
        """A header name takes its role, or names its band, as a cell is read:
        without the spaces around it."""
        ds = parse_dataset(" id , b \nx,1\n")
        assert ds.ids == ("x",) and ds.bands == ("b",)

    def test_blank_lines_before_header_skipped(self):
        ds = parse_dataset("\n\nb1\n1\n\n2\n")
        assert ds.bands == ("b1",) and ds.rows == ((1.0,), (2.0,))

    @pytest.mark.parametrize("text", ["b1,b1\n1,2\n", "b1,id, b1\n1,r0,2\n"])
    def test_two_band_columns_with_one_name(self, text):
        with pytest.raises(InputFormatError) as err:
            parse_dataset(text)
        assert str(err.value) == "dataset has two band columns named 'b1'"

    @pytest.mark.parametrize("text,have,missing", [
        ("id,lat,b1\nr0,1,2\nr1,x,3\n", "lat", "lon"),
        ("LON,b1\n1,2\n", "lon", "lat"),
    ])
    def test_lone_coordinate_column(self, text, have, missing):
        """A lat column without a lon column, or the reverse, is neither a band
        nor a coordinate, so the dataset is refused."""
        with pytest.raises(InputFormatError) as err:
            parse_dataset(text)
        assert str(err.value) == f"dataset has a {have} column but no {missing} column"

    @pytest.mark.parametrize("text,role,first,second", [
        ("id,ID,b1\nr0,s0,2\n", "id", "id", "ID"),
        ("id,id,b1\nr0,s0,2\n", "id", "id", "id"),
        ("id,lat,LAT,lon,b1\nr0,1,x,2,3\n", "lat", "lat", "LAT"),
        ("lat,lon,Lon,b1\n1,2,3,4\n", "lon", "lon", "Lon"),
    ])
    def test_second_column_of_a_role(self, text, role, first, second):
        """A second id, lat or lon column would be neither read nor a band,
        so the dataset is refused on its header alone."""
        with pytest.raises(InputFormatError) as err:
            parse_dataset(text)
        assert str(err.value) == f"dataset has two {role} columns: {first!r} and {second!r}"

    def test_negative_intensity_rejected(self):
        with pytest.raises(InputFormatError):
            parse_dataset("v\n-1\n")

    def test_top_label_reserved(self):
        with pytest.raises(InputFormatError):
            parse_dataset(f"id,v\n{TOP_LABEL},1\n")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InputFormatError):
            parse_dataset("id,v\np,1\np,2\n")

    def test_array_built_once_and_read_only(self):
        ds = parse_dataset("v,w\n1,2\n3,4\n")
        assert ds.array is ds.array
        assert ds.array.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        with pytest.raises(ValueError):
            ds.array[0, 0] = 5.0

    @pytest.mark.parametrize("rows,at", [
        (((1, -1), (math.nan, 2)), "row 'r0', band 'b1'"),
        (((1, 2), (math.inf, -3)), "row 'r1', band 'b0'"),
        (((0, -0.0), (2, math.nan)), "row 'r1', band 'b1'"),
    ])
    def test_first_bad_value_in_row_major_order(self, rows, at):
        with pytest.raises(InputFormatError) as err:
            ds_from(rows)
        assert str(err.value) == f"{at}: intensities must be finite and >= 0"

    def test_short_row_reported_before_values(self):
        with pytest.raises(InputFormatError, match="row 'r1' has 1 bands, expected 2"):
            Dataset(("r0", "r1"), ("b0", "b1"), ((-1.0, 0.0), (1.0,)))


class TestStep1:
    def test_dominated_within_eps(self):
        sys = step1_relation(ds_from([(1, 1), (1, 2)], ids=("r1", "r2")), eps=2)
        assert sys.has(sys.id("r1"), sys.id("r2"))
        assert not sys.has(sys.id("r2"), sys.id("r1"))
        assert all(sys.has(x, x) for x in range(sys.n))

    def test_identical_rows_mutual(self):
        sys = step1_relation(ds_from([(3, 3), (3, 3)]))
        assert sys.succ == (0b11, 0b11)

    def test_incomparable_rows(self):
        sys = step1_relation(ds_from([(1, 3), (2, 1)]), eps=100)
        assert sys.succ == (0b01, 0b10)

    def test_antisymmetric_on_distinct_rows(self):
        for seed in range(10):
            rows = [
                (mix(seed, i, 0) % 7, mix(seed, i, 1) % 7) for i in range(5)
            ]
            if len(set(rows)) < len(rows):
                continue
            sys = step1_relation(ds_from(rows), eps=50)
            assert classify(sys).antisymmetric

    def test_chebyshev_differs(self):
        ds = ds_from([(0, 0), (1, 1)])
        # l2 distance sqrt(2) exceeds 1, linf distance is exactly 1
        assert step1_relation(ds, "euclidean", 1).has(0, 1) is False
        assert step1_relation(ds, "chebyshev", 1).has(0, 1) is True

    def test_eps_positive(self):
        for eps in (0, -1, math.nan):
            with pytest.raises(LawError, match="eps must be positive"):
                step1_relation(ds_from([(1,)]), eps=eps)

    def test_matches_oracle(self):
        # Integer bands keep every distance exact. Duplicated rows and rows
        # shifted by a 3-4-5 offset put pairs exactly at eps 5 (euclidean)
        # and eps 4 (chebyshev).
        for seed in range(12):
            d = 2 + seed % 3
            base = [tuple(mix(seed, i, j) % 6 for j in range(d)) for i in range(5 + seed)]
            rows = base + [base[0], base[-1]]
            rows += [(r[0] + 3, r[1] + 4) + r[2:] for r in base[:: 2]]
            assert len(rows) <= 40
            ds = ds_from(rows)
            for rho in ("euclidean", "chebyshev"):
                for eps in (2.5, 4.0, 5.0):
                    got = step1_relation(ds, rho, eps)
                    assert set(got.pairs()) == oracles.step1(rows, rho, eps), (seed, rho, eps)

    def test_matches_oracle_across_blocks(self):
        # 70 to 130 rows span several step-1 blocks of source rows; d = 1
        # makes dominance a total preorder
        for seed, (m, d) in enumerate(((70, 1), (97, 3), (130, 2), (111, 1), (128, 4))):
            rows = [tuple(mix(seed, i, j) % 7 for j in range(d)) for i in range(m)]
            ds = ds_from(rows)
            for rho in ("euclidean", "chebyshev"):
                for eps in (1.0, 3.0):
                    got = step1_relation(ds, rho, eps)
                    assert set(got.pairs()) == oracles.step1(rows, rho, eps), (seed, rho, eps)

    def test_unknown_rho(self):
        with pytest.raises(LawError):
            step1_relation(ds_from([(1,)]), rho="manhattan")

    def test_euclidean_sum_of_squares_overflow(self):
        # 1e200 squared overflows; the distance is still 1e200, within eps
        ds = ds_from([(0,), (1e200,)])
        for rho in ("euclidean", "chebyshev"):
            assert step1_relation(ds, rho, 1e300).succ == (0b11, 0b10), rho
        assert step1_relation(ds, "euclidean", 1e199).succ == (0b01, 0b10)
        with pytest.raises(OverflowError):
            oracles.step1([(0.0,), (1e200,)], "euclidean", 1e300)

    def test_euclidean_overflow_keeps_other_distances(self):
        # two bands overflow together; a pair that does not overflow keeps
        # its plain distance, 5 exactly at a 3-4-5 offset
        ds = ds_from([(0, 0), (1e160, 1e160), (3, 4)])
        sys = step1_relation(ds, "euclidean", 5)
        assert sys.has(0, 2) and not sys.has(0, 1)
        assert step1_relation(ds, "euclidean", 1.5e160).has(0, 1)
        assert not step1_relation(ds, "euclidean", 1.4e160).has(0, 1)


def band0_rows(seed, m, d, band0):
    """m rows of d bands, tenths from 0 to 4.9; band 0 of row i is band0(i)."""
    return [
        (band0(i),) + tuple(mix(seed, i, j) % 50 / 10 for j in range(1, d)) for i in range(m)
    ]


class TestStep1Window:
    """Step 1 compares each block of rows in band-0 order only with a window
    of rows by band 0; every relation here is checked against the all-pairs
    oracle under both distances."""

    def _check(self, rows, eps):
        ds = ds_from(rows)
        for rho in ("euclidean", "chebyshev"):
            got = step1_relation(ds, rho, eps)
            assert set(got.pairs()) == oracles.step1(rows, rho, eps), (rho, eps)

    @pytest.mark.parametrize("m", [1, 31, 33, 65])
    def test_row_counts_around_blocks(self, m):
        for seed in range(3):
            rows = band0_rows(seed, m, 3, lambda i: mix(seed, i, 0) % 50 / 10)
            for eps in (0.3, 1.1, 2.5):
                self._check(rows, eps)

    def test_ties_across_a_block_boundary(self):
        # 70 rows, shuffled; in band-0 order rows 24..39 share one value, so
        # the tie spans the boundary between the first and second block,
        # and the second block's window must start before the block
        order = sorted(range(70), key=lambda i: mix(4, i))
        value = {i: (0.7 if 24 <= r < 40 else r / 10) for r, i in enumerate(order)}
        rows = band0_rows(4, 70, 3, lambda i: value[i])
        for eps in (0.2, 0.7, 1.3):
            self._check(rows, eps)

    def test_gaps_at_eps_and_at_the_margin(self):
        eps = 0.3
        gaps = [
            eps, math.nextafter(eps, math.inf), math.nextafter(eps, 0),
            2 * eps, math.nextafter(2 * eps, 0), math.nextafter(2 * eps, math.inf),
        ]
        for base in (0.0, 0.1, 2.7):
            # the other bands equal, so a pair's distance is its band-0 gap
            rows = [(base, 1.5, 0.4)] + [(base + gap, 1.5, 0.4) for gap in gaps]
            self._check(rows, eps)
            # with a second band, the euclidean distance exceeds the gap
            rows += [(base + gap, 1.5 + gap / 2, 0.4) for gap in gaps]
            self._check(rows, eps)

    def test_gap_that_rounds_to_eps(self):
        # 0.2 + 0.7 rounds below 0.9, yet 0.9 - 0.2 rounds to 0.7: the pair
        # is within eps, and past the first block's last value plus eps
        assert 0.2 + 0.7 < 0.9 and 0.9 - 0.2 == 0.7
        rows = [(0.2, 1.0)] * 32 + [(0.9, 1.0)]
        self._check(rows, 0.7)
        assert step1_relation(ds_from(rows), "chebyshev", 0.7).has(0, 32)

    def test_constant_band0(self):
        rows = band0_rows(5, 70, 3, lambda i: 1.3)
        for eps in (0.4, 1.5):
            self._check(rows, eps)

    def test_one_band(self):
        for seed in range(3):
            rows = band0_rows(seed, 80, 1, lambda i: mix(seed, i) % 70 / 10)
            for eps in (0.1, 0.5, 2.0):
                self._check(rows, eps)

    def test_infinite_eps(self):
        rows = band0_rows(6, 70, 2, lambda i: mix(6, i) % 50 / 10)
        self._check(rows, math.inf)

    def test_underflowing_squares_are_within_tiny_eps(self):
        # 1e-170 squared underflows to 0, so the euclidean distance is 0,
        # although the band-0 gap is far more than twice eps
        # the first block holds only band 0 = 0, so its window must reach them
        rows = [(0.0, 1.0)] * 32 + [(1e-170, 1.0), (2e-170, 1.0), (1.0, 1.0)]
        self._check(rows, 1e-300)
        assert step1_relation(ds_from(rows), "euclidean", 1e-300).has(0, 33)


class TestStep1Lowers:
    """Step 1 is reflexive, and stays so with the top row, so every lower of
    the clustering on it is its support."""

    def test_pi_lower_is_the_identity_on_reflexive_relations(self):
        """In a B(S) groupoid of a reflexive relation Raa forces aa = a, so
        every singleton is closed and l_pi(A) = A."""
        cases = 0
        for n in (1, 2, 3):
            for sys in every_relation(n):
                if not (sys.reflexive and sys.up_directed):
                    continue
                for name, strategy in _AUDIT_STRATEGIES:
                    g = build_updir_groupoid(sys, strategy)
                    assert all(is_closed(g, 1 << x) for x in range(n)), name
                    for A in range(1 << n):
                        assert approx_pi(g, A, "l_pi") == A, (name, A)
                    cases += 1 << n
        assert cases == 1630

    @pytest.mark.parametrize("seed", range(4))
    def test_seed_is_its_own_lower(self, seed):
        """A neighbourhood lies inside itself, so under basic every
        neighbourhood seed's lower is the seed; under cud every cluster's
        lower is its support."""
        sys = step1_relation(blobs(seed, 60 + 40 * seed, d=4), eps=4)
        top = augment_with_top(sys)
        assert sys.reflexive and top.reflexive
        seeds = _seed_candidates(sys, None, "basic", "neighborhood")
        assert len(seeds) > 10
        assert all(basic_bounds(sys, A)[0] == A for A in seeds)
        cs = propose_clusters(sys, None, "cud", on_not_updirected="basic")
        assert cs.flavor == "basic" and all(c.approx.lower == c.support for c in cs.clusters)
        cs = propose_clusters(top, None, "cud")
        assert cs.flavor == "cud" and all(c.approx.lower == c.support for c in cs.clusters)


class TestPropose:
    def test_chain_covers(self):
        sys = step1_relation(chain3(), eps=5)
        assert is_up_directed(sys)
        cs = propose_clusters(sys, None, "cud")
        rep = validate_clustering(sys, None, cs, cs.flavor)
        assert rep.covers

    def test_single_row(self):
        sys = step1_relation(ds_from([(1, 1)]))
        cs = propose_clusters(sys, None, "cud")
        assert len(cs.clusters) == 1
        t = cs.clusters[0].approx
        assert t.lower == t.upper == sys.full_mask and t.boundary == 0

    def test_two_blobs_need_fallback(self):
        sys = step1_relation(two_blobs(), eps=2)
        assert not is_up_directed(sys)
        with pytest.raises(NotUpDirectedError):
            propose_clusters(sys, None, "cud")

    def test_basic_fallback_splits_blobs(self):
        sys = step1_relation(two_blobs(), eps=2)
        cs = propose_clusters(sys, None, "cud", on_not_updirected="basic")
        assert cs.flavor == "basic"
        lowers = {sys.set_labels(c.approx.lower) for c in cs.clusters}
        assert lowers == {("r0", "r1"), ("r2", "r3")}
        assert validate_clustering(sys, None, cs, "basic").valid

    def test_top_is_not_a_fallback(self):
        """A caller adds the top row with augment_with_top before proposing."""
        sys = step1_relation(two_blobs(), eps=2)
        with pytest.raises(LawError, match="unknown fallback 'top'"):
            propose_clusters(sys, None, "cud", on_not_updirected="top")

    def test_top_fallback_refuses_pi(self):
        sys = augment_with_top(step1_relation(two_blobs(), eps=2))
        g = build_updir_groupoid(
            step1_relation(chain3(), eps=5), ChoiceStrategy.min_index()
        )
        with pytest.raises(LawError, match="needs a groupoid over the system it clusters"):
            propose_clusters(sys, g, "pi")

    def test_basic_fallback_reads_no_groupoid(self):
        sys = step1_relation(two_blobs(), eps=2)
        cs = propose_clusters(sys, None, "pi", on_not_updirected="basic")
        assert cs.flavor == "basic"
        assert cs == propose_clusters(sys, None, "cud", on_not_updirected="basic")

    def test_top_fallback_takes_pi_over_the_augmented_system(self):
        sys = augment_with_top(step1_relation(two_blobs(), eps=2))
        assert is_up_directed(sys) and sys.labels[-1] == TOP_LABEL
        g = build_updir_groupoid(sys, ChoiceStrategy.min_index(True))
        cs = propose_clusters(sys, g, "pi")
        assert cs.flavor == "pi" and cs.g is g and cs.sys.labels == g.labels
        assert validate_clustering(cs.sys, g, cs, "pi").valid

    def test_pi_flavor(self):
        sys = step1_relation(chain3(), eps=5)
        g = build_updir_groupoid(sys, ChoiceStrategy.min_index())
        cs = propose_clusters(sys, g, "pi", seeds="granule")
        assert cs.flavor == "pi"
        assert validate_clustering(sys, g, cs, "pi").covers

    def test_pi_needs_groupoid(self):
        sys = step1_relation(chain3(), eps=5)
        with pytest.raises(LawError):
            propose_clusters(sys, None, "pi")

    def test_bad_args(self):
        sys = step1_relation(chain3(), eps=5)
        with pytest.raises(LawError):
            propose_clusters(sys, None, "kmeans")
        with pytest.raises(LawError):
            propose_clusters(sys, None, "cud", seeds="other")
        with pytest.raises(LawError):
            propose_clusters(sys, None, "cud", on_not_updirected="maybe")

    def test_reflexive_fast_path(self, monkeypatch):
        monkeypatch.setenv("DIROUGH_CAP", "2")
        sys = step1_relation(chain3(), eps=5)
        t = rough_tuple_for(sys, None, 0b011, "cud")
        assert t == RoughTuple(0b011, 0b011)
        with pytest.raises(LawError):
            rough_tuple_for(sys, None, 1 << sys.n, "cud")

    def test_reflexive_shortcut_is_exact(self):
        # every singleton of a reflexive system is CUD
        for seed in range(12):
            base = rand_updirected(seed, 5)
            sys = RelationalSystem(
                base.labels, tuple(row | 1 << i for i, row in enumerate(base.succ))
            )
            uni, prs = list(sys.labels), label_pairs(sys)
            for A in sample_masks(seed, sys.n, 8):
                labs = frozenset(sys.set_labels(A))
                t = rough_tuple_for(sys, None, A, "cud")
                assert frozenset(sys.set_labels(t.lower)) == oracles.cud_lower(uni, prs, labs)
                assert frozenset(sys.set_labels(t.upper)) == oracles.cud_upper_pointwise(
                    uni, prs, labs
                )
            granules = _seed_candidates(sys, None, "cud", "granule")
            fam = [H for H in oracles.cud_family(uni, prs) if H]
            minimal = {H for H in fam if not any(K < H for K in fam)}
            assert {frozenset(sys.set_labels(m)) for m in granules} == minimal

    def test_reflexive_but_not_updirected_is_refused(self):
        seen = 0
        for seed in range(12):
            base = rand_system(seed, 5)
            sys = RelationalSystem(
                base.labels, tuple(row | 1 << i for i, row in enumerate(base.succ))
            )
            if is_up_directed(sys):
                continue
            seen += 1
            for A in sample_masks(seed, sys.n, 4):
                for bounds in (
                    lambda: rough_tuple_for(sys, None, A, "cud"),
                    lambda: cud_tuple(sys, A),
                    lambda: approx_cud(sys, A, "l"),
                    lambda: approx_cud(sys, A, "u", "collection"),
                ):
                    with pytest.raises(NotUpDirectedError):
                        bounds()
        assert seen


class TestProposeMatchesGreedyOracle:
    def _check(self, sys, seeds, g=None):
        """Propose against the greedy oracle, pi over g when given, else cud.
        Returns how many candidates reached the nesting test while meeting a
        chosen support, and how many chosen clusters the support tie-break
        decided: another candidate with the same lower comes first in
        candidate order, which ranks small supports first."""
        cs = propose_clusters(sys, g, "cud" if g is None else "pi", seeds, "basic")
        seen, ranked, first = set(), [], {}
        for A in _seed_candidates(cs.sys, g, cs.flavor, seeds):
            t = rough_tuple_for(cs.sys, g, A, cs.flavor)
            if t.lower and (t.lower, t.upper) not in seen:
                seen.add((t.lower, t.upper))
                ranked.append((ids(A), ids(t.lower)))
                first.setdefault(t.lower, A)
        ranked.sort(key=lambda c: (-len(c[1]), sorted(c[1]), sorted(c[0])))
        want, met = oracles.greedy_clusters(range(cs.sys.n), ranked)
        assert [(ids(c.support), ids(c.approx.lower)) for c in cs.clusters] == want
        return met, sum(c.support != first[c.approx.lower] for c in cs.clusters)

    def test_blob_sets(self):
        met = 0
        for seed, m in ((0, 40), (1, 90), (2, 150)):
            sys = step1_relation(blobs(seed, m, d=2), eps=4)
            met += self._check(sys, "neighborhood")[0]
        assert met

    def test_random_systems(self):
        met = 0
        for seed in range(30):
            sys = rand_system(seed, 6 + seed % 5)
            for seeds in ("neighborhood", "granule"):
                met += self._check(sys, seeds)[0]
        assert met

    def test_pi_support_tie_break(self):
        """Pi lowers of neighbourhoods often coincide; among equal lowers the
        support with the least id tuple wins, which is not always the
        smallest. Here that decides a chosen cluster several times, first at
        seed 10 with n = 7."""
        decided = 0
        for seed in range(60):
            for n in range(5, 12):
                sys = rand_updirected(seed, n)
                g = build_updir_groupoid(sys, ChoiceStrategy.min_index(pi_constrained=True))
                decided += self._check(sys, "neighborhood", g)[1]
        assert decided


class TestNeighborhoodApproxAtClusterScale:
    def test_every_candidate_matches_oracle(self):
        ds = blobs(3, 120)
        sys = step1_relation(ds, eps=4)
        assert sys.n == 120 and not is_up_directed(sys)
        uni, prs = list(sys.labels), label_pairs(sys)
        cands = _seed_candidates(sys, None, "basic", "neighborhood")
        assert len(cands) > 20
        for A in cands:
            labs = frozenset(sys.set_labels(A))
            lo, up = approx_basic(sys, A, "l"), approx_basic(sys, A, "u")
            assert frozenset(sys.set_labels(lo)) == oracles.nbd_lower(uni, prs, labs)
            assert frozenset(sys.set_labels(up)) == oracles.nbd_upper(uni, prs, labs)


class TestValidate:
    def test_duplicate_cluster_is_disclusion(self):
        sys = step1_relation(chain3(), eps=5)
        cs = propose_clusters(sys, None, "cud")
        doubled = ClusterSet(cs.clusters * 2, cs.flavor, cs.sys, cs.g)
        rep = validate_clustering(sys, None, doubled, "cud")
        assert rep.disclusion_pairs and not rep.valid

    def test_empty_set_does_not_cover(self):
        sys = step1_relation(chain3(), eps=5)
        rep = validate_clustering(sys, None, ClusterSet((), "cud", sys), "cud")
        assert not rep.covers and set(rep.uncovered) == set(sys.labels)

    def test_tampered_tuple_rejected(self):
        sys = step1_relation(chain3(), eps=5)
        cs = propose_clusters(sys, None, "cud")
        c = cs.clusters[0]
        lie = RoughCluster(c.support, RoughTuple(0, c.approx.upper))
        with pytest.raises(StructureError):
            validate_clustering(sys, None, ClusterSet((lie,), "cud", sys), "cud")

    def test_memoised_tuple_still_checked(self):
        # propose keeps each support's bounds on the system; a cluster that
        # lies about one is still caught by the recompute
        sys = step1_relation(blobs(3, 60, d=2), eps=4)
        cs = propose_clusters(sys, None, "cud", on_not_updirected="basic")
        assert cs.flavor == "basic"
        for c in cs.clusters[:3]:
            assert sys._bounds[c.support] == (c.approx.lower, c.approx.upper)
            for lie in (RoughTuple(0, c.approx.upper), RoughTuple(c.approx.lower, sys.full_mask)):
                assert lie != c.approx
                liar = ClusterSet((RoughCluster(c.support, lie),), "basic", sys)
                with pytest.raises(StructureError, match="does not reproduce"):
                    validate_clustering(sys, None, liar, "basic")
        assert validate_clustering(sys, None, cs, "basic").covers

    def test_disclusion_matches_oracle(self):
        _, sets = hand_cluster_sets()
        for seed, m in ((0, 40), (1, 90), (2, 150)):
            blob_sys = step1_relation(blobs(seed, m, d=2), eps=4)
            cs = propose_clusters(blob_sys, None, "cud", on_not_updirected="basic")
            sets.append(cs)
            # every proposal, nested or not, as one set
            cands = _seed_candidates(blob_sys, None, "basic", "neighborhood")
            sets.append(ClusterSet(tuple(
                RoughCluster(A, rough_tuple_for(blob_sys, None, A, "basic")) for A in cands
            ), "basic", blob_sys))
        seen_nested = seen_rough_equal = False
        for cs in sets:
            rep = validate_clustering(cs.sys, None, cs, cs.flavor)
            want = oracles.disclusion_pairs(oracle_view(cs))
            assert list(rep.disclusion_pairs) == want
            for i, j in want:
                a, b = cs.clusters[i], cs.clusters[j]
                seen_nested |= a.support != b.support and (
                    a.support & ~b.support == 0 or b.support & ~a.support == 0)
                seen_rough_equal |= a.support != b.support and a.approx == b.approx
        assert seen_nested and seen_rough_equal

    def test_disclusion_of_no_clusters(self):
        sys = step1_relation(blobs(1, 20, d=2), eps=4)
        assert assert_disclusion_matches_oracle(basic_set(sys, [])) == []

    def test_disclusion_with_empty_supports(self):
        """An empty support lies inside every support, another empty one too."""
        sys = step1_relation(blobs(2, 40, d=2), eps=4)
        supports = [0] + nested_supports(sys, 2, 4) + [0, sys.full_mask, 0]
        want = assert_disclusion_matches_oracle(basic_set(sys, supports))
        k = len(supports)
        assert {(0, j) for j in range(1, k)} <= set(want) and (k - 3, k - 1) in want

    def test_disclusion_with_duplicate_supports(self):
        sys = step1_relation(blobs(3, 40, d=2), eps=4)
        supports = nested_supports(sys, 3, 5)
        want = assert_disclusion_matches_oracle(basic_set(sys, supports + supports[::-1]))
        k = len(supports)
        assert all((i, 2 * k - 1 - i) in want for i in range(k))

    @pytest.mark.parametrize("n", [1, 7, 63, 65, 130])
    def test_disclusion_across_word_widths(self, n):
        """Universes that fill no whole byte or no whole 64-bit word."""
        sys = step1_relation(blobs(n, n, d=2), eps=4)
        supports = nested_supports(sys, n, 12) + list(sys.pred[:6]) + [0, sys.full_mask]
        assert sys.n == n
        assert_disclusion_matches_oracle(basic_set(sys, supports + supports[:3]))

    def test_disclusion_across_pair_blocks(self):
        """120 supports all hold element 0, so every ordered pair of them is
        a candidate: more pairs than one block holds."""
        sys = step1_relation(blobs(4, 150, d=2), eps=4)
        supports = nested_supports(sys, 4, 60, holding=1)
        assert len(supports) == 120 and 120 * 119 > _PAIR_BLOCK
        want = assert_disclusion_matches_oracle(basic_set(sys, supports))
        assert len(want) >= 60

    def test_validation_peak_memory(self):
        """Nested supports are tested a block of candidate pairs at a time,
        and each support's least member is read from its packed bytes. On
        the 485 proposals over these 2000 rows the traced peak of the
        validation was 0.96 MiB, against 1.9 MiB when every support was
        unpacked into a bool row; testing all k^2 support pairs in one block
        would hold k^2 rows of 32 words, 60 MB."""
        sys = step1_relation(blobs(7, 2000, d=4, spread=9), eps=4)
        cs = propose_clusters(sys, None, "cud", on_not_updirected="basic")
        assert len(cs.clusters) == 485
        tracemalloc.start()
        try:
            rep = validate_clustering(sys, None, cs, cs.flavor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.valid and peak < 1.5 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"

    def test_report_dict(self):
        sys = step1_relation(chain3(), eps=5)
        cs = propose_clusters(sys, None, "cud")
        d = validate_clustering(sys, None, cs, "cud").as_dict()
        assert set(d) == {"covers", "uncovered", "disclusion_pairs", "valid"}


class TestScores:
    def _basic_cs(self, ds, eps=2):
        sys = step1_relation(ds, eps=eps)
        flavor = "cud" if is_up_directed(sys) else "basic"
        return sys, propose_clusters(sys, None, "cud", on_not_updirected="basic")

    def test_identical_rows_score_zero(self):
        ds = ds_from([(2, 2), (2, 2)])
        sys, cs = self._basic_cs(ds)
        t = score_clusters(ds, cs, "nasd")
        assert t.value(0, "lower") == 0.0
        v = score_clusters(ds, cs, "band_variance").value(0, "lower")
        assert v == (0.0, 0.0)

    def test_nasd_convention(self):
        ds = ds_from([(0, 0), (2, 0)])
        sys, cs = self._basic_cs(ds, eps=3)
        # ordered pairs (0,0),(0,1),(1,0),(1,1): squared distances 0,4,4,0
        assert score_clusters(ds, cs, "nasd").value(0, "lower") == pytest.approx(1.0)

    def test_empty_component_scores_null(self):
        ds = ds_from([(0, 0), (2, 0)])
        sys, cs = self._basic_cs(ds, eps=3)
        assert score_clusters(ds, cs, "nasd").value(0, "boundary") is None

    def _check_against_oracles(self, ds, sys, cs):
        nasd_t = score_clusters(ds, cs, "nasd")
        var_t = score_clusters(ds, cs, "band_variance")
        for i, c in enumerate(cs.clusters):
            for comp in ("lower", "upper", "boundary"):
                mask = getattr(c.approx, comp)
                members = [ds.rows[k] for k, rid in enumerate(ds.ids) if mask >> sys.id(rid) & 1]
                if not members:
                    assert nasd_t.value(i, comp) is None and var_t.value(i, comp) is None
                    continue
                assert nasd_t.value(i, comp) == pytest.approx(oracles.nasd(members), rel=1e-9)
                assert var_t.value(i, comp) == pytest.approx(
                    oracles.band_variance(members), rel=1e-9
                )

    def test_matches_oracles(self):
        for seed in range(10):
            rows = [
                tuple(float(mix(seed, i, j) % 9) for j in range(3)) for i in range(4)
            ]
            ds = ds_from(rows)
            sys, cs = self._basic_cs(ds, eps=100)
            self._check_against_oracles(ds, sys, cs)
        # components of 50 to 200 rows, every band offset by 1e4
        for seed, m in ((0, 50), (1, 120), (2, 200)):
            rows = [tuple(1e4 + mix(seed, i, j) % 1000 / 10 for j in range(3)) for i in range(m)]
            ds = ds_from(rows)
            sys = step1_relation(ds, eps=1.0)
            lower = sum(1 << i for i in range(m) if mix(seed, i, 5) % 3)
            t = RoughTuple(lower, sys.full_mask)
            cs = ClusterSet((RoughCluster(lower, t),), "basic", sys)
            self._check_against_oracles(ds, sys, cs)

    def test_permutation_invariant(self):
        rows = [(0.0, 1.0), (5.0, 2.0), (3.0, 3.0)]
        a = ds_from(rows)
        b = ds_from(rows[::-1], ids=("r2", "r1", "r0"))
        sa, ca = self._basic_cs(a, eps=100)
        sb, cb = self._basic_cs(b, eps=100)
        va = score_clusters(a, ca, "nasd").value(0, "upper")
        vb = score_clusters(b, cb, "nasd").value(0, "upper")
        assert va == pytest.approx(vb)

    def test_value_of_unknown_key(self):
        ds = two_blobs()
        sys, cs = self._basic_cs(ds)
        t = score_clusters(ds, cs, "nasd")
        assert t.value(1, "boundary") is None
        for key in ((len(cs.clusters), "lower"), (0, "middle"), (-1, "lower")):
            with pytest.raises(LawError):
                t.value(*key)

    def test_top_row_left_out(self):
        ds = two_blobs()
        sys = augment_with_top(step1_relation(ds, eps=2))
        cs = propose_clusters(sys, None, "cud")
        assert cs.sys.labels[-1] == TOP_LABEL
        t = score_clusters(ds, cs, "band_variance")
        for i, c in enumerate(cs.clusters):
            members = [ds.rows[k] for k in range(len(ds.ids)) if c.approx.lower >> k & 1]
            assert t.value(i, "lower") == pytest.approx(oracles.band_variance(members))

    def test_label_not_a_row_rejected(self):
        ds = two_blobs()
        other = RelationalSystem(ds.ids[:3] + ("stray",), (0b1111,) * 4)
        mk = lambda m: RoughTuple(m, m)
        cs = ClusterSet((RoughCluster(0b0011, mk(0b0011)), RoughCluster(0b1100, mk(0b1100))),
                        "basic", other)
        with pytest.raises(LawError, match="stray"):
            score_clusters(ds, cs, "nasd")

    def test_unknown_metric(self):
        ds = ds_from([(1, 1)])
        sys, cs = self._basic_cs(ds)
        with pytest.raises(LawError):
            score_clusters(ds, cs, "silhouette")

    def test_score_that_is_not_finite(self):
        # each band's variance, 1.5e154 ** 2 / 4, is finite; twice their sum is not
        ds = ds_from([(0, 0), (1.5e154, 1.5e154)])
        sys, cs = self._basic_cs(ds, eps=1e300)
        var = score_clusters(ds, cs, "band_variance").value(0, "lower")
        assert var == pytest.approx((5.625e307,) * 2) and all(map(math.isfinite, var))
        with pytest.raises(LawError, match="^cluster 0 lower: nasd score is not finite$"):
            score_clusters(ds, cs, "nasd")
        ds = ds_from([(0,), (1e200,)])
        sys, cs = self._basic_cs(ds, eps=1e300)
        for metric in ("nasd", "band_variance"):
            with pytest.raises(LawError, match=f"^cluster 0 lower: {metric} score is not finite$"):
                score_clusters(ds, cs, metric)


def overflowing_chain():
    """Rows 0, 1e154 and 2e154 at eps 1e154: each neighborhood spans one
    step, whose scores are finite, and the union of all three rows, an
    upper, overflows under both metrics."""
    ds = ds_from([(0,), (1e154,), (2e154,)])
    sys = step1_relation(ds, eps=1e154)
    cs = ClusterSet((RoughCluster(0b011, RoughTuple(0b011, 0b111)),), "basic", sys)
    return ds, cs


class TestScoresOnRead:
    """score_clusters scores the lowers; an upper or a boundary is scored
    when something first reads it, with the value that rows gives."""

    @staticmethod
    def _counting(monkeypatch):
        import dirough.cluster as cluster_mod

        scored, real = [], cluster_mod._component_variances
        monkeypatch.setattr(cluster_mod, "_component_variances",
                            lambda X, row_of, masks, n: scored.append(len(masks))
                            or real(X, row_of, masks, n))
        return scored

    def test_pipeline_scores_only_lowers(self, monkeypatch):
        """The in-process pipeline that the cluster-bands benchmark runs."""
        scored = self._counting(monkeypatch)
        ds = decimal_blobs(3, 150, 4)
        sys = step1_relation(ds, eps=4)
        cs = propose_clusters(sys, None, "cud", "neighborhood", "basic")
        validate_clustering(sys, None, cs, cs.flavor)
        table = score_clusters(ds, cs, "nasd")
        chosen = select_clusters(table, None, 2)
        validate_clustering(sys, None, chosen, chosen.flavor)
        segmentation_csv(chosen)
        assert len(cs.clusters) > 2 and scored == [len(cs.clusters)]
        # reading the rows scores the uppers and the boundaries, once each
        table.as_dict()
        table.value(0, "upper")
        assert scored == [len(cs.clusters)] * 3

    @pytest.mark.parametrize("metric", ["nasd", "band_variance"])
    def test_value_before_rows_is_the_rows_value(self, metric):
        ds = decimal_blobs(7, 60, 3)
        cs = propose_clusters(step1_relation(ds, eps=4), None, "cud", on_not_updirected="basic")
        want = score_clusters(ds, cs, metric).rows
        for component in ("upper", "boundary"):
            table = score_clusters(ds, cs, metric)
            early = [table.value(i, component) for i in range(len(cs.clusters))]
            assert "rows" not in vars(table)
            assert repr(early) == repr([r.value for r in want if r.component == component])
            assert table.rows == want and repr(table.rows) == repr(want)

    def test_missing_score_scores_nothing(self, monkeypatch):
        ds = two_blobs()
        sys = step1_relation(ds, eps=2)
        cs = propose_clusters(sys, None, "cud", on_not_updirected="basic")
        table = score_clusters(ds, cs, "nasd")
        scored = self._counting(monkeypatch)
        for cluster, component in ((len(cs.clusters), "upper"), (-1, "lower"), (0, "support")):
            with pytest.raises(LawError, match="no score for cluster"):
                table.value(cluster, component)
        assert scored == []

    @pytest.mark.parametrize("metric", ["nasd", "band_variance"])
    def test_upper_that_overflows_raises_on_read(self, metric):
        ds, cs = overflowing_chain()
        table = score_clusters(ds, cs, metric)
        assert table.value(0, "lower") == (5e307 if metric == "nasd" else (2.5e307,))
        message = f"^cluster 0 upper: {metric} score is not finite$"
        for read in (lambda: table.rows, table.as_dict, lambda: table.value(0, "upper"),
                     lambda: repr(table), lambda: table == table):
            with pytest.raises(LawError, match=message):
                read()
        # the boundary, one row, scores 0 on its own
        assert table.value(0, "boundary") == (0.0 if metric == "nasd" else (0.0,))


def decimal_blobs(seed, m, d):
    """m rows around three far-apart centres, two decimals per band, so that
    sums round and the order of their terms shows in the bits."""
    return ds_from([
        tuple(10 + 20 * (i % 3) + mix(seed, i, j) % 600 / 100 for j in range(d)) for i in range(m)
    ])


class TestScoresBitExact:
    """Every ScoreRow equals the one that scoring its component alone with
    numpy gives, under both metrics; repr compares the sign of a zero too."""

    @staticmethod
    def _expected(ds, cs, metric):
        index = {rid: k for k, rid in enumerate(ds.ids)}
        return tuple(
            ScoreRow(i, name, oracles.numpy_component_score([
                ds.rows[index[lab]]
                for lab in cs.sys.set_labels(getattr(c.approx, name)) if lab != TOP_LABEL
            ], metric))
            for i, c in enumerate(cs.clusters)
            for name in ("lower", "upper", "boundary")
        )

    def _check(self, ds, cs):
        for metric in ("nasd", "band_variance"):
            got = score_clusters(ds, cs, metric).rows
            want = self._expected(ds, cs, metric)
            assert got == want
            assert repr(got) == repr(want)

    @staticmethod
    def _with_extras(cs):
        """cs plus an empty cluster, two singletons and one of every row."""
        full = cs.sys.full_mask
        extra = [RoughTuple(0, 0), RoughTuple(1, 1), RoughTuple(0, 1 << (cs.sys.n - 1)),
                 RoughTuple(full, full)]
        clusters = cs.clusters + tuple(RoughCluster(t.upper, t) for t in extra)
        return ClusterSet(clusters, cs.flavor, cs.sys, cs.g)

    @pytest.mark.parametrize("d", [1, 2, 4])
    @pytest.mark.parametrize("m", [12, 60, 150])
    def test_seeded_blobs(self, d, m):
        for seed, rho in ((m, "euclidean"), (m + d, "chebyshev")):
            ds = decimal_blobs(seed, m, d)
            sys = step1_relation(ds, rho, eps=4)
            cs = propose_clusters(sys, None, "cud", on_not_updirected="basic")
            assert len(cs.clusters) > 1
            self._check(ds, self._with_extras(cs))

    def test_hand_cluster_sets(self):
        ds, sets = hand_cluster_sets()
        for cs in sets:
            self._check(ds, cs)

    def test_negative_zero_bands(self):
        lines = ["id,b0,b1,b2"] + [
            f"r{i},-0,{'-0' if i % 2 else '0'},{mix(9, i) % 700 / 100}" for i in range(40)
        ]
        ds = parse_dataset("\n".join(lines) + "\n")
        assert math.copysign(1, ds.rows[0][0]) == -1
        sys = step1_relation(ds, eps=3)
        cs = propose_clusters(sys, None, "cud", on_not_updirected="basic")
        self._check(ds, self._with_extras(cs))

    @pytest.mark.parametrize("d", [1, 3])
    def test_top_fallback(self, d):
        ds = decimal_blobs(7, 90, d)
        sys = augment_with_top(step1_relation(ds, eps=2))
        cs = propose_clusters(sys, None, "cud")
        assert cs.sys.labels[-1] == TOP_LABEL
        assert any(c.approx.upper >> (cs.sys.n - 1) & 1 for c in cs.clusters)
        self._check(ds, self._with_extras(cs))


class TestSelect:
    def _scored(self):
        ds = two_blobs()
        sys = step1_relation(ds, eps=2)
        cs = propose_clusters(sys, None, "cud", on_not_updirected="basic")
        return ds, sys, cs, score_clusters(ds, cs, "nasd")

    def test_k_large_is_identity(self):
        ds, sys, cs, scored = self._scored()
        assert select_clusters(scored, k=10).clusters == cs.clusters

    def test_cover_preserved(self):
        ds, sys, cs, scored = self._scored()
        out = select_clusters(scored, k=1)
        # both lowers are needed for the cover, so k=1 cannot drop either
        def lowers(s):
            return reduce(or_, (c.approx.lower for c in s.clusters))

        assert lowers(out) == lowers(cs)
        assert len(out.clusters) == 2

    def test_k_validated(self):
        ds, sys, cs, scored = self._scored()
        with pytest.raises(LawError):
            select_clusters(scored, k=0)

    def test_weights_validated(self):
        ds = two_blobs()
        sys = step1_relation(ds, eps=2)
        cs = propose_clusters(sys, None, "cud", on_not_updirected="basic")
        scored = score_clusters(ds, cs, "band_variance")
        with pytest.raises(LawError):
            select_clusters(scored, priorities=[1.0], k=2)
        with pytest.raises(LawError):
            select_clusters(scored, priorities=[1.0, -1.0], k=2)
        for bad in (math.nan, math.inf):
            with pytest.raises(LawError):
                select_clusters(scored, priorities=[bad, 1.0], k=2)

    @pytest.mark.parametrize("bad", [[-1.0], [math.nan, 1.0]], ids=["negative", "nan"])
    def test_weights_validated_with_nothing_to_weigh(self, bad):
        ds = two_blobs()
        empty = ClusterSet((), "cud", step1_relation(ds, eps=2))
        scored = score_clusters(ds, empty, "band_variance")
        with pytest.raises(LawError, match="weights must be"):
            select_clusters(scored, priorities=bad, k=2)

    def test_matches_union_oracle(self):
        ds, sets = hand_cluster_sets()
        cases = [(ds, cs) for cs in sets]
        for seed, m in ((0, 40), (1, 90), (2, 150)):
            bds = blobs(seed, m, d=2)
            sys = step1_relation(bds, eps=4)
            cases.append((bds, propose_clusters(sys, None, "cud", on_not_updirected="basic")))
        for ds, cs in cases:
            scored = score_clusters(ds, cs, "nasd")
            values = [scored.value(i, "lower") for i in range(len(cs.clusters))]
            ranked = sorted(range(len(values)), key=lambda i: (
                math.inf if values[i] is None else values[i], i))
            lowers = [ids(c.approx.lower) for c in cs.clusters]
            for k in (1, 2, 5, len(cs.clusters)):
                kept = oracles.select_by_union(lowers, ranked, k)
                got = select_clusters(scored, k=k).clusters
                assert got == tuple(cs.clusters[i] for i in kept), k

    def test_lowest_score_ranks_first(self):
        tight = [(0.0, 0.0), (0.1, 0.1)]
        loose = [(10.0, 10.0), (14.0, 14.0)]
        ds = ds_from(tight + loose)
        sys = step1_relation(ds, eps=6)
        cs = propose_clusters(sys, None, "cud", on_not_updirected="basic")
        scored = score_clusters(ds, cs, "nasd")
        picked = select_clusters(scored, k=2)
        vals = [scored.value(cs.clusters.index(c), "lower") for c in picked.clusters]
        assert sorted(vals) == vals or set(picked.clusters) == set(cs.clusters)


class TestSegmentation:
    def test_blob_assignment(self):
        ds = two_blobs()
        sys = step1_relation(ds, eps=2)
        cs = propose_clusters(sys, None, "cud", on_not_updirected="basic")
        rows = dict(segmentation_rows(cs))
        assert rows["r0"] == rows["r1"] != rows["r2"] == rows["r3"]
        assert "boundary" not in rows.values()

    def test_boundary_rows(self):
        sys = step1_relation(chain3(), eps=5)
        mk = lambda m: RoughTuple(m, m)
        cs = ClusterSet(
            (RoughCluster(0b011, mk(0b011)), RoughCluster(0b110, mk(0b110))),
            "cud",
            sys,
        )
        rows = dict(segmentation_rows(cs))
        assert rows["r1"] == "boundary"  # in both lowers
        assert rows["r0"] == "0" and rows["r2"] == "1"

    def test_matches_brute_force(self):
        for seed in range(8):
            ds = blobs(seed, 40 + 5 * seed)
            sys = step1_relation(ds, eps=4)
            clusters = []
            for k in range(1 + seed % 6):
                m = sum(1 << i for i in range(sys.n) if mix(seed, k, i) % 4 == 0)
                clusters.append(RoughCluster(m, RoughTuple(m, m)))
            cs = ClusterSet(tuple(clusters), "basic", sys)
            want = []
            for i, lab in enumerate(sys.labels):
                hits = [k for k, c in enumerate(clusters) if c.approx.lower >> i & 1]
                want.append((lab, str(hits[0]) if len(hits) == 1 else "boundary"))
            assert segmentation_rows(cs) == want

    def test_top_row_omitted(self):
        sys = step1_relation(two_blobs(), eps=2)
        cs = propose_clusters(augment_with_top(sys), None, "cud")
        assert cs.sys.labels[-1] == TOP_LABEL
        assert [lab for lab, _ in segmentation_rows(cs)] == list(sys.labels)

    def test_csv_shape(self):
        sys = step1_relation(chain3(), eps=5)
        cs = propose_clusters(sys, None, "cud")
        text = segmentation_csv(cs)
        lines = text.strip().split("\n")
        assert lines[0] == "id,cluster" and len(lines) == sys.n + 1
