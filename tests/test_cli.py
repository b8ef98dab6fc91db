import ast
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import dirough
from conftest import mix, rand_updirected
from dirough.audit import random_updirected_system
from dirough.cli import _print_json, run
from dirough.grpd import ChoiceStrategy, build_updir_groupoid, dump_cayley, parse_cayley
from dirough.fixtures import section6_groupoid, section6_system
from dirough.relsys import dump_relation, exhaustive_cap

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest itself depends on tomli
    import tomli as tomllib

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# The body of the console-script wrapper that an install generates.
SCRIPT_WRAPPER = """\
import sys
from {module} import {attr}
sys.argv[0] = "dirough"
sys.exit({attr}())
"""

TWO_BLOBS_CSV = (
    "id,b1,b2\n"
    "r0,0,0\nr1,0.5,0.5\nr2,10,10\nr3,10.5,10.5\n"
)


def banded_csv(seed, m, d=4):
    """m rows around three far-apart centres, two decimals per band."""
    lines = ["id," + ",".join(f"b{j}" for j in range(d))]
    for i in range(m):
        vals = (10 + 20 * (i % 3) + mix(seed, i, j) % 600 / 100 for j in range(d))
        lines.append(f"r{i}," + ",".join(f"{v:.2f}" for v in vals))
    return "\n".join(lines) + "\n"


# sha256 of the stdout of `cluster run ... --json` and of its --segment
# file, recorded from an implementation that tested every pair of clusters
# and rebuilt the cover for each removal, and, for band_variance, from one
# that scored each component with its own numpy call; rewrites of the
# pipeline keep every byte
PINNED_RUNS = {
    "basic": (1, 150, ["--eps", "4", "--fallback", "basic"],
              "001090a772e699ca1013fd892db80304ba889948d30c1f06e95d686d26887c7b",
              "fe8b2a534cefd295c45f87e1fb0f3aea3958990b56a7998bf5f3353ab88be2b6"),
    "linf": (2, 150, ["--rho", "linf", "--eps", "2.5", "--fallback", "basic"],
             "5b2c88c2f46008e44057218deaf60e4ce3daf0a3ca30ae881939647163515c67",
             "209f2a95a588eaac5db475b6be5fb2fc52c5a70b46d2aa73caa40811a3e0b79c"),
    "top": (3, 120, ["--eps", "4", "--fallback", "top"],
            "fa59ba4f012e000f38e9e023b56a3ce42855fb2452ea48d3eae5483966b0e89c",
            "d5d34d775610aa8f6533742daff2666075f24e45cf31eb24c9bf1072114df9b6"),
    # k = 3 makes selection drop clusters by the weighted band variances
    "band_variance": (4, 150, ["--eps", "4", "--fallback", "basic", "--metric", "band_variance",
                               "--weights", "1,2,1,1", "--k", "3"],
                      "856954b53cd69c2dac06d42d201ddc2c5c8e28a3d04729398a904feb7c697c2a",
                      "fa1fecf03ff0340b63c2ee89386a965c9cce2f97143364761603f075f6fb0aee"),
    # these two were recorded while the proposal sorts walked every mask bit
    # by bit (lex_key) and selection and segmentation counted lower members
    # one by one; 550 rows is the top rung of the cluster-bands benchmark
    "rows550": (5, 550, ["--eps", "4", "--fallback", "basic"],
                "206b76452f491cbf4edf240e3cffd0bab00b792e013838d041719a7276a886fb",
                "dfacddc0b96a4b11e72100c27c8da410ad561ccfc90ec18b4b6c3dd32d85adef"),
    "pi-top": (6, 13, ["--eps", "4", "--kind", "pi", "--fallback", "top", "--seeds", "granule"],
               "711d6dbc1fcf848ea17e416be42314e656ba51f99d287e1750a6981a33dd78d8",
               "f3504f517649c0983c2759fafac97b59e691e1eb9b5493bbeb26b2b308334d10"),
}


def validate(schema_name, payload):
    text = (resources.files("dirough") / "schemas" / schema_name).read_text()
    jsonschema.validate(payload, json.loads(text))


def cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def one_error_line(argv, d, env=None):
    """Run dirough in a fresh process, argv's {d} standing for directory d,
    and check that it exits 1 with one "error:" line and no traceback."""
    out = subprocess.run(
        [sys.executable, "-m", "dirough", *(a.format(d=d) for a in argv)],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 1, out.stderr
    assert "Traceback" not in out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), out.stderr
    return out


def cli_json(capsys, *argv):
    code, out, err = cli(capsys, *argv, "--json")
    return code, json.loads(out), err


@pytest.fixture()
def empty_rel(tmp_path):
    p = tmp_path / "empty.rel"
    p.write_text("elements: x y\n")
    return str(p)


@pytest.fixture()
def fixture_files(tmp_path):
    """The bundled relation and groupoid, written out as --rel and --table files."""
    rel, table = tmp_path / "fixture.rel", tmp_path / "fixture.csv"
    rel.write_text(dump_relation(section6_system()))
    table.write_text(dump_cayley(section6_groupoid()))
    return str(rel), str(table)


@pytest.fixture()
def blob_csv(tmp_path):
    p = tmp_path / "blobs.csv"
    p.write_text(TWO_BLOBS_CSV)
    return str(p)


class TestRelation:
    def test_empty_relation_reports_not_updirected(self, capsys, empty_rel):
        code, data, _ = cli_json(capsys, "relation", "check", empty_rel)
        assert code == 0
        assert data["profile"]["up_directed"] is False
        validate("profile.json", data)

    def test_fixture_default(self, capsys):
        code, data, _ = cli_json(capsys, "relation", "check")
        assert code == 0 and data["profile"]["up_directed"] is True

    def test_text_mode(self, capsys, empty_rel):
        code, out, _ = cli(capsys, "relation", "check", empty_rel)
        assert code == 0 and "up_directed: false" in out


class TestApprox:
    def test_cud_fixture_values(self, capsys):
        code, data, _ = cli_json(capsys, "approx", "--set", "e,b,c", "--kind", "cud")
        assert code == 0
        assert data["mode"] == "pointwise"  # the default, although --mode is unset
        assert data["lower"] == ["b", "c"]
        assert data["upper"] == ["b", "c", "e", "f"]
        validate("approx.json", data)

    def test_nbd(self, capsys):
        code, data, _ = cli_json(capsys, "approx", "--set", "e,b,c", "--kind", "nbd")
        assert code == 0
        assert data["lower"] == [] and len(data["upper"]) == 5
        validate("approx.json", data)

    def test_pi(self, capsys):
        code, data, _ = cli_json(capsys, "approx", "--set", "e,b,c", "--kind", "pi")
        assert code == 0
        assert data["lower"] == ["c"] and data["anti_upper"] == ["a", "b", "c", "e", "f"]
        validate("approx.json", data)

    def test_collection_mode_differs_on_top(self, capsys):
        code, data, _ = cli_json(
            capsys, "approx", "--set", "a,b,c,e,f", "--kind", "cud",
            "--mode", "collection",
        )
        assert code == 0 and data["upper"] == ["c", "f"]

    def test_unknown_label_is_domain_error(self, capsys):
        code, out, err = cli(capsys, "approx", "--set", "z", "--kind", "cud")
        assert code == 1 and "z" in err and not out

    def test_rel_file_round_trip(self, capsys, tmp_path):
        p = tmp_path / "f.rel"
        p.write_text(dump_relation(section6_system()))
        code, data, _ = cli_json(
            capsys, "approx", "--rel", str(p), "--set", "e,b,c", "--kind", "cud"
        )
        assert code == 0 and data["lower"] == ["b", "c"]


class TestGranules:
    def test_cud_family(self, capsys):
        code, data, _ = cli_json(capsys, "granules", "cud")
        assert code == 0 and data["count"] == 21
        validate("granules.json", data)

    def test_subgroupoids(self, capsys):
        code, data, _ = cli_json(capsys, "granules", "subgroupoid")
        assert code == 0 and data["count"] == 10
        assert ["b", "f"] in data["members"]
        validate("granules.json", data)


def cud_n16_rel(tmp_path) -> str:
    """A relation on 16 elements whose CUD family has 9,207 members, which
    `granules cud --json` prints as 1.1 MB."""
    rel = tmp_path / "n16.rel"
    rel.write_text(dump_relation(random_updirected_system(1, 16)))
    return str(rel)


def printed_json(data, out=None) -> str:
    out = out or io.StringIO()
    with contextlib.redirect_stdout(out):
        _print_json(data)
    return out.getvalue()


def as_iterators(x):
    """x with every list and tuple turned into a generator of its items."""
    if isinstance(x, dict):
        return {k: as_iterators(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return (as_iterators(v) for v in x)
    return x


JSON_STRINGS = (
    "", "plain", 'a "quoted" word', "back\\slash", "ctrl \x00\x01\x1f\t\n\r\b\f\x7f",
    "non-ASCII é ü ∅ 中 \U0001d518", "lone surrogate \ud800",
)
JSON_LEAVES = JSON_STRINGS + (
    0, -1, 2**53 + 1, -(2**63) - 1, 10**30,
    -0.0, 0.0, 1e-7, 1e16, 1.5, -2.25e-300, float("nan"), float("inf"), float("-inf"),
    True, False, None,
)
JSON_KEYS = ("", "k", 'q"k', "\\", "é\n", 3, -(2**60), 2.5, float("inf"), True, False, None)


def json_corpus(seed: int, depth: int):
    """A nested value drawn from seed: dicts, lists, tuples and lists of
    strings of 0 to 3 items, so that empty containers occur at every depth."""
    kind = mix(seed, 0) % 5 if depth else 0
    if kind == 0:
        return JSON_LEAVES[mix(seed, 1) % len(JSON_LEAVES)]
    items = [json_corpus(mix(seed, 2, i), depth - 1) for i in range(mix(seed, 3) % 4)]
    if kind == 1:
        return items
    if kind == 2:
        return tuple(items)
    if kind == 3:
        return [JSON_STRINGS[mix(seed, 4, i) % len(JSON_STRINGS)] for i in range(len(items))]
    return {JSON_KEYS[mix(seed, 5, i) % len(JSON_KEYS)]: v for i, v in enumerate(items)}


class TestJsonWriter:
    """--json output is json.dumps(data, indent=2) and a newline, byte for
    byte, written in batches and with lists that may be iterators."""

    FIXED = [
        {}, [], (), "", 0,
        [[], {}, [[{}]], {"a": {"b": []}, "c": [()]}],
        {"leaves": list(JSON_LEAVES), "keys": {k: k for k in JSON_KEYS}},
        list(JSON_STRINGS),
    ]

    @pytest.mark.parametrize("seed", range(60))
    def test_equals_json_dumps(self, seed):
        for data in [json_corpus(seed, depth) for depth in range(6)] + self.FIXED:
            want = json.dumps(data, indent=2) + "\n"
            assert printed_json(data) == want
            assert printed_json(as_iterators(data)) == want

    @pytest.mark.parametrize("bad", [{1, 2}, {"a": [object()]}, {(1, 2): 3}, {b"k": 1}])
    def test_refuses_what_json_dumps_refuses(self, bad):
        with pytest.raises(TypeError) as want:
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError) as got:
            printed_json(bad)
        assert str(got.value) == str(want.value)

    def test_writes_in_batches(self):
        class Recorder(io.StringIO):
            def write(self, text):
                sizes.append(len(text))
                return super().write(text)

        sizes = []
        data = {"members": ([f"v{i}", f"w{i}"] for i in range(20000))}
        text = printed_json(data, Recorder())
        assert text == json.dumps({"members": [[f"v{i}", f"w{i}"] for i in range(20000)]},
                                  indent=2) + "\n"
        assert len(sizes) - (len(text) >> 16) in (0, 1)
        assert all(1 << 16 <= n < (1 << 16) + 64 for n in sizes[:-1])

    def test_granules_peak_memory(self, tmp_path):
        """The member list is streamed, never held: the family itself takes
        about 1 MB of traced memory, and json.dumps(indent=2) held about 10 MB
        more while it built the 1.1 MB of output."""
        rel = cud_n16_rel(tmp_path)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = run(["granules", "cud", "--rel", rel, "--json"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0 and peak < 3 << 20, f"traced peak {peak / 2**20:.1f} MiB"


class TestGroupoid:
    def test_build_csv_parses_back(self, capsys):
        code, out, _ = cli(capsys, "groupoid", "build", "--strategy", "min")
        assert code == 0
        g = parse_cayley(out)
        assert g.labels == ("a", "b", "c", "e", "f")

    def test_build_prints_the_groupoid_the_others_read(self, capsys, tmp_path):
        """With no flag, build prints the bundled groupoid, so laws over its
        output are the laws that a plain `groupoid laws` checks."""
        code, out, _ = cli(capsys, "groupoid", "build")
        assert code == 0 and out == dump_cayley(section6_groupoid())
        table = tmp_path / "t.csv"
        table.write_text(out)
        given = cli(capsys, "groupoid", "laws", "--table", str(table))
        assert given == cli(capsys, "groupoid", "laws")

    def test_build_json(self, capsys):
        code, data, _ = cli_json(capsys, "groupoid", "build", "--strategy", "seed:3")
        assert code == 0
        validate("groupoid.json", data)

    def test_bad_strategy(self, capsys):
        code, _, err = cli(capsys, "groupoid", "build", "--strategy", "fancy")
        assert code == 1 and "strategy" in err

    def test_laws_filter_and_witness(self, capsys):
        code, data, _ = cli_json(
            capsys, "groupoid", "laws", "--laws", "idempotence,commutativity"
        )
        assert code == 0
        assert set(data["laws"]) == {"idempotence", "commutativity"}
        assert data["laws"]["commutativity"]["holds"] is False
        assert "witness" in data["laws"]["commutativity"]
        validate("laws.json", data)

    def test_laws_text_json_verdict_parity(self, capsys):
        code, data, _ = cli_json(capsys, "groupoid", "laws")
        code2, out, _ = cli(capsys, "groupoid", "laws")
        assert code == code2 == 0
        for law, entry in data["laws"].items():
            want = f"{law}: holds" if entry["holds"] else f"{law}: fails"
            assert want in out


class TestInputFlags:
    """--strategy and --pi pick over --rel or, without it, the bundled relation;
    --table gives a member and is checked against the relation read."""

    @pytest.mark.parametrize("argv", [
        ["groupoid", "laws", "--strategy", "max"],
        ["acp", "audit", "--strategy", "max", "--pi"],
        ["approx", "--kind", "pi", "--set", "e,b,c", "--strategy", "seed:2", "--pi"],
        ["granules", "subgroupoid", "--strategy", "max"],
        ["regions", "--set", "a,c", "--set", "b,e", "--strategy", "max"],
    ], ids=["groupoid-laws", "acp-audit", "approx-pi", "granules-subgroupoid", "regions"])
    def test_strategy_picks_over_bundled_relation(self, capsys, fixture_files, argv):
        rel, _ = fixture_files
        want = cli(capsys, *argv, "--rel", rel)
        assert want[0] == 0 and cli(capsys, *argv) == want

    def test_build_checks_table(self, capsys, fixture_files):
        rel, table = fixture_files
        for extra in ((), ("--rel", rel)):
            code, out, err = cli(capsys, "groupoid", "build", "--table", table, *extra)
            assert code == 0 and out == dump_cayley(section6_groupoid()), err
        # the bundled groupoid is in B(S) but not a pi-groupoid
        code, out, err = cli(capsys, "groupoid", "build", "--table", table, "--pi")
        assert code == 1 and out == ""
        assert err == f"error: {table}: choice does not factor through the upper-bound set\n"

    def test_cluster_table_is_the_picked_member(self, capsys, blob_csv, tmp_path):
        from dirough.cluster import load_dataset, step1_relation

        # at eps 20 r3 sits above every row, so the relation is up-directed
        sys_ = step1_relation(load_dataset(blob_csv), "euclidean", 20)
        table = tmp_path / "pi.csv"
        table.write_text(dump_cayley(build_updir_groupoid(sys_, ChoiceStrategy.max_index(True))))
        argv = ("cluster", "run", "--data", blob_csv, "--eps", "20", "--kind", "pi", "--json")
        want = cli(capsys, *argv, "--strategy", "max")
        assert want[0] == 0 and cli(capsys, *argv, "--table", str(table)) == want
        clusters = tmp_path / "clusters.json"
        clusters.write_text(want[1])
        argv = ("cluster", "validate", str(clusters), "--data", blob_csv, "--eps", "20")
        assert cli(capsys, *argv, "--table", str(table)) == cli(capsys, *argv, "--strategy", "max")


class TestAcp:
    def test_audit_formal(self, capsys):
        code, data, _ = cli_json(capsys, "acp", "audit")
        assert code == 0 and data["mode"] == "formal"
        byname = {row["law"]: row for row in data["laws"]}
        assert byname["A1"]["holds"] and not byname["A6"]["holds"]
        assert byname["A6"]["witness"]
        validate("acp_audit.json", data)

    def test_audit_realized(self, capsys):
        code, data, _ = cli_json(capsys, "acp", "audit", "--mode", "realized")
        assert code == 0 and data["mode"] == "realized"
        validate("acp_audit.json", data)


class TestRegions:
    def test_table(self, capsys):
        code, data, _ = cli_json(capsys, "regions", "--set", "a", "--set", "b")
        assert code == 0
        assert data["regions"]["o"] == ["f"]
        validate("regions.json", data)

    def test_single_kind(self, capsys):
        code, data, _ = cli_json(
            capsys, "regions", "--set", "c", "--set", "a,b", "--kind", "n"
        )
        assert code == 0 and data["regions"] == {"n": ["a", "b"]}

    def test_set_count_enforced(self, capsys):
        code, _, err = cli(capsys, "regions", "--set", "a")
        assert code == 1 and "two" in err

    def test_rel_with_table(self, capsys, fixture_files):
        """regions reads its sets from --rel and its groupoid from --table."""
        rel, table = fixture_files
        code, data, _ = cli_json(
            capsys, "regions", "--rel", rel, "--table", table, "--set", "a", "--set", "b"
        )
        assert code == 0 and data["regions"]["o"] == ["f"]


class TestCluster:
    def test_run_two_blobs(self, capsys, blob_csv):
        code, data, _ = cli_json(
            capsys, "cluster", "run", "--data", blob_csv, "--eps", "2",
            "--fallback", "basic",
        )
        assert code == 0
        assert data["validity"]["valid"] is True
        lowers = {tuple(c["lower"]) for c in data["selected"]["clusters"]}
        assert lowers == {("r0", "r1"), ("r2", "r3")}
        validate("cluster_run.json", data)

    def test_top_fallback_completes(self, capsys, blob_csv, tmp_path):
        seg = tmp_path / "seg.csv"
        code, data, _ = cli_json(
            capsys, "cluster", "run", "--data", blob_csv, "--eps", "2",
            "--fallback", "top", "--segment", str(seg),
        )
        assert code == 0
        validate("cluster_run.json", data)
        assert data["validity"]["valid"] is True
        lines = seg.read_text().strip().split("\n")
        assert lines[0] == "id,cluster"
        assert [line.split(",")[0] for line in lines[1:]] == ["r0", "r1", "r2", "r3"]
        code, out, err = cli(
            capsys, "cluster", "run", "--data", blob_csv, "--eps", "2", "--fallback", "top",
        )
        assert code == 0 and "selected valid: true" in out and not err

    @pytest.mark.parametrize("kind", ["cud", "pi"])
    def test_top_fallback_reads_back(self, capsys, blob_csv, tmp_path, kind):
        code, data, _ = cli_json(
            capsys, "cluster", "run", "--data", blob_csv, "--eps", "2", "--fallback", "top",
            "--kind", kind,
        )
        assert code == 0
        assert any("__top__" in c["support"] for c in data["selected"]["clusters"])
        clusters = tmp_path / "top.json"
        clusters.write_text(json.dumps(data))
        args = ("--data", blob_csv, "--eps", "2")
        code, report, err = cli_json(capsys, "cluster", "validate", str(clusters), *args)
        assert code == 0 and report == data["selected_validity"], err
        code, scored, err = cli_json(capsys, "cluster", "score", str(clusters), *args)
        assert code == 0, err
        assert len(scored["rows"]) == 3 * len(data["selected"]["clusters"])

    # the cud ids keep the names they had before pi files joined them
    @pytest.mark.parametrize("sub,kind", [
        ("validate", "cud"), ("score", "cud"), ("validate", "pi"), ("score", "pi"),
    ], ids=["validate", "score", "pi-validate", "pi-score"])
    def test_cud_file_needs_updirected_relation(self, capsys, tmp_path, sub, kind):
        data = tmp_path / "d.csv"
        data.write_text("id,b\nr1,1\nr2,2\nr3,3\n")
        code, out, _ = cli(
            capsys, "cluster", "run", "--data", str(data), "--eps", "5", "--kind", kind, "--json"
        )
        assert code == 0 and json.loads(out)["selected"]["flavor"] == kind
        clusters = tmp_path / "f.json"
        clusters.write_text(out)
        args = ("cluster", sub, str(clusters), "--data", str(data))
        assert cli(capsys, *args, "--eps", "5")[0] == 0
        # at eps 0.5 only the reflexive pairs remain
        code, out, err = cli(capsys, *args, "--eps", "0.5")
        assert code == 1 and out == ""
        assert err == f"error: {clusters}: induced relation is not up-directed\n"

    def test_run_requires_fallback_here(self, capsys, blob_csv):
        code, _, err = cli(capsys, "cluster", "run", "--data", blob_csv, "--eps", "2")
        assert code == 1 and "up-directed" in err

    def test_pi_run_requires_fallback_here(self, blob_csv, tmp_path):
        argv = ["cluster", "run", "--data", blob_csv, "--eps", "2", "--kind", "pi"]
        assert "up-directed" in one_error_line(argv, tmp_path).stderr

    def test_pi_basic_fallback_is_cud_basic(self, capsys, blob_csv):
        # the basic fallback reads no groupoid, so the flavor asked for is moot
        argv = ("cluster", "run", "--data", blob_csv, "--eps", "2", "--fallback", "basic")
        for extra in ((), ("--json",)):
            cud = cli(capsys, *argv, "--kind", "cud", *extra)
            assert cud[0] == 0 and cud[1]
            assert cli(capsys, *argv, "--kind", "pi", *extra) == cud

    def test_pi_file_validates_without_kind(self, capsys, blob_csv, tmp_path):
        # at eps 20 r3 sits above every row, so the relation is up-directed
        clusters = tmp_path / "clusters.json"
        clusters.write_text('{"flavor": "pi", "clusters": [{"support": ["r0"]}]}')
        args = ("--data", blob_csv, "--eps", "20")
        code, report, err = cli_json(capsys, "cluster", "validate", str(clusters), *args)
        assert code == 0 and not err
        code, data, _ = cli_json(capsys, "cluster", "run", *args, "--kind", "pi")
        assert code == 0 and data["selected"]["flavor"] == "pi"
        clusters.write_text(json.dumps(data))
        code, report, err = cli_json(capsys, "cluster", "validate", str(clusters), *args)
        assert code == 0 and report == data["selected_validity"], err

    def test_segment_output(self, capsys, blob_csv, tmp_path):
        seg = tmp_path / "seg.csv"
        code, _, _ = cli(
            capsys, "cluster", "run", "--data", blob_csv, "--eps", "2",
            "--fallback", "basic", "--segment", str(seg),
        )
        assert code == 0
        lines = seg.read_text().strip().split("\n")
        assert lines[0] == "id,cluster" and len(lines) == 5
        assignments = dict(line.split(",") for line in lines[1:])
        assert assignments["r0"] == assignments["r1"]
        assert assignments["r2"] == assignments["r3"]
        assert assignments["r0"] != assignments["r2"]

    @pytest.mark.parametrize("rho", ["l2", "linf"])
    def test_score_that_overflows_is_an_error(self, tmp_path, rho):
        """Rows 0 and 1e200 relate under both distances at eps 1e300, and
        the squares of their cluster's scores overflow: no Infinity reaches
        stdout, and no numpy warning reaches stderr."""
        (tmp_path / "big.csv").write_text("id,b\nr0,0\nr1,1e200\n")
        clusters = '{"flavor": "cud", "clusters": [{"support": ["r0", "r1"]}]}'
        (tmp_path / "c.json").write_text(clusters)
        data = ("--data", "{d}/big.csv", "--rho", rho, "--eps", "1e300")
        for metric in ("nasd", "band_variance"):
            for argv in (
                ("cluster", "run", *data, "--fallback", "basic", "--json"),
                ("cluster", "score", "{d}/c.json", *data, "--json"),
            ):
                out = one_error_line((*argv, "--metric", metric), tmp_path)
                assert out.stdout == ""
                assert out.stderr == f"error: cluster 0 lower: {metric} score is not finite\n"

    def test_validate_consumes_run_output(self, capsys, blob_csv, tmp_path):
        code, data, _ = cli_json(
            capsys, "cluster", "run", "--data", blob_csv, "--eps", "2",
            "--fallback", "basic",
        )
        clusters = tmp_path / "clusters.json"
        clusters.write_text(json.dumps(data))
        code, report, _ = cli_json(
            capsys, "cluster", "validate", str(clusters),
            "--data", blob_csv, "--eps", "2",
        )
        assert code == 0 and report["valid"] is True

    def test_score_command(self, capsys, blob_csv, tmp_path):
        code, data, _ = cli_json(
            capsys, "cluster", "run", "--data", blob_csv, "--eps", "2",
            "--fallback", "basic",
        )
        clusters = tmp_path / "clusters.json"
        clusters.write_text(json.dumps(data["selected"]))
        code, scored, _ = cli_json(
            capsys, "cluster", "score", str(clusters),
            "--data", blob_csv, "--eps", "2", "--metric", "band_variance",
        )
        assert code == 0 and scored["metric"] == "band_variance"
        assert any(r["component"] == "lower" for r in scored["rows"])


    @pytest.mark.parametrize("sub", ["validate", "score"])
    @pytest.mark.parametrize("edit", ["bounds", "boundary"])
    def test_tuple_that_does_not_reproduce_is_refused(self, capsys, blob_csv, tmp_path,
                                                      sub, edit):
        """The lower, upper and boundary a clusters file lists are judged, not
        derived again and trusted."""
        args = ("--data", blob_csv, "--eps", "2")
        code, data, _ = cli_json(capsys, "cluster", "run", *args, "--fallback", "basic")
        assert code == 0
        c = data["selected"]["clusters"][0]
        universe = ["r0", "r1", "r2", "r3"]
        if edit == "bounds":
            c["lower"], c["upper"] = [], universe
        else:
            c["boundary"] = [x for x in universe if x not in c["boundary"]]
        clusters = tmp_path / "clusters.json"
        clusters.write_text(json.dumps(data))
        code, out, err = cli(capsys, "cluster", sub, str(clusters), *args)
        assert code == 1 and out == ""
        assert err == (f"error: {clusters}: cluster over {tuple(c['support'])} "
                       "does not reproduce its tuple\n")

    @pytest.mark.parametrize("sub", ["validate", "score"])
    def test_tuple_needs_all_three_parts(self, capsys, blob_csv, tmp_path, sub):
        clusters = tmp_path / "clusters.json"
        for entry in ({"support": ["r0"], "lower": ["r0"]},
                      {"support": ["r0"], "lower": ["r0"], "upper": ["r0"], "boundary": 0}):
            clusters.write_text(json.dumps({"flavor": "basic", "clusters": [entry]}))
            code, out, err = cli(capsys, "cluster", sub, str(clusters),
                                 "--data", blob_csv, "--eps", "2")
            assert code == 1 and out == ""
            assert err == (f"error: {clusters}: a cluster's lower, upper and boundary "
                           "must all be label lists\n")


class TestClusterBytes:
    @pytest.mark.parametrize("case", sorted(PINNED_RUNS))
    def test_run_output_reads_back(self, capsys, tmp_path, case):
        """validate and score accept the tuples of every pinned run as listed."""
        seed, m, args, _, _ = PINNED_RUNS[case]
        data = tmp_path / "bands.csv"
        data.write_text(banded_csv(seed, m))
        code, out, err = cli(capsys, "cluster", "run", "--data", str(data), *args, "--json")
        assert code == 0, err
        clusters = tmp_path / "clusters.json"
        clusters.write_text(out)
        relation = [a for flag, value in zip(args[::2], args[1::2])
                    if flag in ("--eps", "--rho") for a in (flag, value)]
        argv = (str(clusters), "--data", str(data), *relation)
        code, report, err = cli_json(capsys, "cluster", "validate", *argv)
        assert code == 0 and report == json.loads(out)["selected_validity"], err
        code, _, err = cli_json(capsys, "cluster", "score", *argv)
        assert code == 0, err

    @pytest.mark.parametrize("case", sorted(PINNED_RUNS))
    def test_run_output_pinned(self, capsys, tmp_path, case):
        seed, m, args, run_sha, segment_sha = PINNED_RUNS[case]
        data, seg = tmp_path / "bands.csv", tmp_path / "seg.csv"
        data.write_text(banded_csv(seed, m))
        code, out, err = cli(
            capsys, "cluster", "run", "--data", str(data), *args, "--json", "--segment", str(seg)
        )
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == run_sha
        assert hashlib.sha256(seg.read_bytes()).hexdigest() == segment_sha


class TestClusterPastTheCap:
    @pytest.mark.parametrize("seeds", ["neighborhood", "granule"])
    def test_pi_top_on_40_rows(self, capsys, tmp_path, monkeypatch, seeds):
        """pi clustering reads Sg alone, so 41 elements with the top row
        need no raised cap: each lower is its support, each upper its Sg,
        and validate and score read the output back."""
        from dirough import cluster as cluster_mod
        from dirough.grpd import generate

        monkeypatch.delenv("DIROUGH_CAP", raising=False)
        data = tmp_path / "bands.csv"
        data.write_text(banded_csv(7, 40))
        args = ("--data", str(data), "--eps", "4")
        code, out, err = cli(capsys, "cluster", "run", *args, "--kind", "pi",
                             "--fallback", "top", "--seeds", seeds, "--json")
        assert code == 0, err
        ds = cluster_mod.load_dataset(str(data))
        sys_ = cluster_mod.augment_with_top(cluster_mod.step1_relation(ds, "euclidean", 4.0))
        assert sys_.n == 41 and sys_.up_directed
        g = build_updir_groupoid(sys_, ChoiceStrategy.min_index(pi_constrained=True))
        doc = json.loads(out)
        for part in ("proposed", "selected"):
            assert doc[part]["flavor"] == "pi" and doc[part]["clusters"]
            for c in doc[part]["clusters"]:
                assert c["lower"] == c["support"]
                assert c["upper"] == list(g.set_labels(generate(g, g.mask(c["support"]))))
        clusters = tmp_path / "clusters.json"
        clusters.write_text(out)
        code, report, err = cli_json(capsys, "cluster", "validate", str(clusters), *args)
        assert code == 0 and report == doc["selected_validity"], err
        code, _, err = cli_json(capsys, "cluster", "score", str(clusters), *args)
        assert code == 0, err


def test_text_cluster_run_lists_only_what_it_prints(capsys, tmp_path, monkeypatch):
    """Text output builds no JSON document: labels are listed for the
    selected clusters' lower and upper, and for the two uncovered sets the
    validations report, nothing else."""
    from dirough import cluster as cluster_mod
    from dirough.relsys import Universe

    data = tmp_path / "bands.csv"
    data.write_text(banded_csv(1, 150))
    args = ("--data", str(data), "--eps", "4", "--fallback", "basic")
    code, out, err = cli(capsys, "cluster", "run", *args, "--json")
    assert code == 0, err
    doc = json.loads(out)
    listed, real = [], Universe.set_labels
    monkeypatch.setattr(Universe, "set_labels",
                        lambda u, mask: listed.append(real(u, mask)) or real(u, mask))
    code, text, err = cli(capsys, "cluster", "run", *args)
    assert code == 0, err
    want = [tuple(doc[v]["uncovered"]) for v in ("validity", "selected_validity")]
    want += [tuple(c[p]) for c in doc["selected"]["clusters"] for p in ("lower", "upper")]
    assert sorted(listed) == sorted(want)
    assert len(doc["proposed"]["clusters"]) > len(doc["selected"]["clusters"])
    # cluster score builds its JSON document only under --json too
    clusters = tmp_path / "clusters.json"
    clusters.write_text(out)
    built, as_dict = [], cluster_mod.ScoreTable.as_dict
    monkeypatch.setattr(cluster_mod.ScoreTable, "as_dict",
                        lambda table: built.append(1) or as_dict(table))
    for flags, count in (((), 0), (("--json",), 1)):
        code, _, err = cli(capsys, "cluster", "score", str(clusters), *args[:4], *flags)
        assert code == 0 and len(built) == count, err


class TestFixtureCommand:
    def test_exit_zero_and_schema(self, capsys):
        code, data, _ = cli_json(capsys, "fixture", "section6")
        assert code == 0
        assert data["exact_after_errata"] is True
        validate("fixture.json", data)

    def test_text_lists_deviations(self, capsys):
        code, out, _ = cli(capsys, "fixture", "section6")
        assert code == 0
        assert "exact after errata: true" in out
        assert "UNDOCUMENTED" not in out
        for tag in ("table1-bc", "table1-ce", "table3-a", "su-efb",
                    "value-B-upi", "value-B-ua"):
            assert tag in out


# sha256 of the stdout of two audits over random_updirected_system(2030, 6),
# recorded while the audits evaluated every operator once per assignment;
# reading the granule tables instead keeps every byte
PINNED_N6_REPORTS = {
    "audit-claims": (("audit", "claims", "--random", "0"),
                     "dc99d2ea831c757938e5c8c22bc4ac5cd55d4c4b8f7c7efc6e6a25f366cfdab9"),
    "acp-audit-pi": (("acp", "audit", "--pi"),
                     "081b112040a42c1da13b2485c257cbc5bb72599ca6cbbbc9bd3a1e3a3b4c2df7"),
}


@pytest.mark.parametrize("name", sorted(PINNED_N6_REPORTS))
def test_n6_audit_reports_pinned(capsys, tmp_path, name):
    argv, digest = PINNED_N6_REPORTS[name]
    rel = tmp_path / "s2030.rel"
    rel.write_text(dump_relation(random_updirected_system(2030, 6)))
    code, out, _ = cli(capsys, *argv, "--rel", str(rel), "--json")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the text stdout of the fixture report and two claim audits,
# recorded while their handlers printed line by line
PINNED_TEXT_REPORTS = {
    "fixture": (("fixture", "section6"),
                "dfd730136de72b6dce61e8ca0ce3a559f0e4e0b283fe2098d5b8cd2423291e67"),
    "audit-claims": (("audit", "claims"),
                     "392fa72c45e61a6935d971d95643b4bd76a7ff513d9b1b4a80a70cb21b76b5da"),
    "audit-claims-n6": (("audit", "claims", "--rel", "{rel}", "--random", "0"),
                        "6393b072cc32729e7fe6dab8df9f385145cc9072e5879bff042aecb3056f02ad"),
}


@pytest.mark.parametrize("name", sorted(PINNED_TEXT_REPORTS))
def test_text_reports_pinned(capsys, tmp_path, name):
    argv, digest = PINNED_TEXT_REPORTS[name]
    rel = tmp_path / "s2030.rel"
    rel.write_text(dump_relation(random_updirected_system(2030, 6)))
    code, out, _ = cli(capsys, *(a.format(rel=rel) for a in argv))
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


class TestAuditCommand:
    def test_claims_fixture(self, capsys):
        code, data, _ = cli_json(capsys, "audit", "claims", "--random", "0")
        assert code == 0
        validate("audit_claims.json", data)
        rows = {r["claim"]: r for r in data["results"]}
        assert rows["cdbas.cdtop-collection"]["status"] == "fail"
        assert rows["cdbas.cdtop-collection"]["witness"] == {"upper": ["c", "f"]}
        tier1 = [r for r in data["results"] if r["tier"] == 1]
        assert tier1 and all(r["status"] == "pass" for r in tier1)

    def test_tier_filter(self, capsys):
        code, data, _ = cli_json(
            capsys, "audit", "claims", "--tier", "1", "--random", "0"
        )
        assert code == 0 and all(r["tier"] == 1 for r in data["results"])

    def test_rel_with_table(self, capsys, fixture_files):
        """The fixture given as --rel and --table audits as the default does."""
        rel, table = fixture_files
        argv = ("audit", "claims", "--tier", "1", "--random", "0")
        code, given, _ = cli_json(capsys, *argv, "--rel", rel, "--table", table)
        assert code == 0 and given == cli_json(capsys, *argv)[1]


    def test_claims_text_matches_json(self, capsys):
        """The text report has one line per JSON result, in order, with the
        failing ones followed by their witness, then the totals."""
        argv = ("audit", "claims", "--random", "1")
        code, out, _ = cli(capsys, *argv)
        assert code == 0
        _, data, _ = cli_json(capsys, *argv)
        *lines, last = out.splitlines()
        assert len(lines) == len(data["results"])
        for line, r in zip(lines, data["results"]):
            head = f"{r['claim']} (tier {r['tier']}) on {r['instance']}: {r['status']}"
            assert line.startswith(head), line
            rest = line[len(head):]
            if r["status"] == "fail":
                assert rest.startswith(" witness {") and rest.endswith("}"), line
            else:
                assert rest == "", line
        assert last == "tier-1 failures: 0; deviations: 15"


class TestCapEnvironment:
    """DIROUGH_CAP is the one source of the exhaustive cap, and every command
    checks it before it runs, whether it enumerates anything or not."""

    @pytest.mark.parametrize("value,fragment", [
        ("-1", "must be non-negative, got -1"),
        ("many", "DIROUGH_CAP must be an integer, got 'many'"),
    ], ids=["negative", "not-integer"])
    @pytest.mark.parametrize("argv", [
        ["approx", "--kind", "nbd", "--set", "a"],
        ["granules", "cud"],
        ["cluster", "run", "--data", "{d}/blobs.csv", "--eps", "2", "--fallback", "basic"],
        ["fixture", "section6"],
        ["relation", "check"],
    ], ids=["approx-nbd", "granules-cud", "cluster-run", "fixture-section6", "relation-check"])
    def test_malformed_cap_is_one_error_line(self, tmp_path, argv, value, fragment):
        (tmp_path / "blobs.csv").write_text(TWO_BLOBS_CSV)
        out = one_error_line(argv, tmp_path, env={**os.environ, "DIROUGH_CAP": value})
        assert out.stdout == "" and fragment in out.stderr

    def test_cap_bounds_the_family(self, capsys, monkeypatch):
        monkeypatch.setenv("DIROUGH_CAP", "3")
        assert exhaustive_cap() == 3
        code, out, err = cli(capsys, "granules", "cud")
        assert code == 1 and out == ""
        assert "exceeds the exhaustive cap 3" in err
        assert err.rstrip().endswith("raise it via DIROUGH_CAP")
        monkeypatch.delenv("DIROUGH_CAP")
        assert exhaustive_cap() == 16
        code, out, err = cli(capsys, "granules", "cud")
        assert code == 0 and out.startswith("count:") and not err

    def test_no_cap_option(self, capsys):
        with pytest.raises(SystemExit) as e:
            run(["granules", "cud", "--cap", "3"])
        assert e.value.code == 2


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as e:
            run(["frobnicate"])
        assert e.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            run(["approx", "--set", "a", "--wat"])
        assert e.value.code == 2

    def test_missing_required(self, capsys):
        with pytest.raises(SystemExit) as e:
            run(["approx"])
        assert e.value.code == 2

    @pytest.mark.parametrize("sub", ["validate", "score"])
    def test_cluster_file_commands_take_no_kind(self, capsys, sub):
        # the clusters file records its flavor
        with pytest.raises(SystemExit) as e:
            run(["cluster", sub, "c.json", "--data", "d.csv", "--eps", "2", "--kind", "pi"])
        assert e.value.code == 2


# A Cayley table whose second row lacks a cell.
NARROW_CAYLEY = b",a,b\na,a,b\nb,b\n"
# A whole one, a relation over its labels, and one over other labels.
AB_CAYLEY = b",a,b\na,a,b\nb,b,b\n"
AB_REL = b"elements: a b\na a\na b\nb b\n"
XY_REL = b"elements: x y\nx y\ny y\n"
# Tables over other labels than AB_REL's, over its labels in another order,
# and over its labels in its order but with b.a = a, outside its B(S) family.
XY_CAYLEY = b",x,y\nx,x,y\ny,y,y\n"
BA_CAYLEY = b",b,a\nb,b,b\na,b,a\n"
AB_NOT_BS_CAYLEY = b",a,b\na,a,b\nb,a,b\n"
LABELS_RULE = "table labels must be the relation's, in its order"

# Each case: files to write into a fresh directory, the argv ({d} is that
# directory) and a fragment the single "error:" line must name.
MALFORMED_INPUTS = {
    "missing-file": (
        {}, ["approx", "--rel", "{d}/missing.rel", "--set", "a"], "missing.rel"
    ),
    "non-utf8-relation": (
        {"bad.rel": b"elements: a \xff\n"},
        ["approx", "--rel", "{d}/bad.rel", "--set", "a"],
        "bad.rel",
    ),
    "header-only-dataset": (
        {"head.csv": b"id,b1,b2\n"},
        ["cluster", "run", "--data", "{d}/head.csv", "--eps", "1"],
        "no rows",
    ),
    # a lat column without a lon column is neither a band nor a coordinate
    "dataset-lat-without-lon": (
        {"lat.csv": b"id,lat,b1\nr0,1,2\nr1,x,3\n"},
        ["cluster", "run", "--data", "{d}/lat.csv", "--eps", "2", "--fallback", "basic"],
        "dataset has a lat column but no lon column",
    ),
    # a second column of the id, lat or lon role would be neither read nor a band
    "dataset-two-id-columns": (
        {"ids.csv": b"id,ID,b1\nr0,s0,2\nr1,s1,3\n"},
        ["cluster", "run", "--data", "{d}/ids.csv", "--eps", "2", "--fallback", "basic"],
        "dataset has two id columns: 'id' and 'ID'",
    ),
    "dataset-two-lat-columns": (
        {"lats.csv": b"id,lat,LAT,lon,b1\nr0,1,x,2,3\n"},
        ["cluster", "run", "--data", "{d}/lats.csv", "--eps", "2", "--fallback", "basic"],
        "dataset has two lat columns: 'lat' and 'LAT'",
    ),
    # a score row or a --weights entry could not be told apart by band name
    "dataset-two-band-columns": (
        {"bands.csv": b"id,b1,b1\nr0,1,2\nr1,3,4\n"},
        ["cluster", "run", "--data", "{d}/bands.csv", "--eps", "2", "--fallback", "basic"],
        "dataset has two band columns named 'b1'",
    ),
    "eps-nan": (
        {"blobs.csv": TWO_BLOBS_CSV.encode()},
        ["cluster", "run", "--data", "{d}/blobs.csv", "--eps", "nan", "--fallback", "basic"],
        "eps",
    ),
    "cud-not-updirected": (
        {"ab.rel": b"elements: a b\na b\n"},
        ["approx", "--rel", "{d}/ab.rel", "--kind", "cud", "--set", "a"],
        "up-directed",
    ),
    "clusters-not-json": (
        {"blobs.csv": TWO_BLOBS_CSV.encode(), "clusters.json": b"{not json"},
        ["cluster", "validate", "{d}/clusters.json", "--data", "{d}/blobs.csv",
         "--eps", "2"],
        "clusters.json",
    ),
    "weights-not-numbers": (
        {"blobs.csv": TWO_BLOBS_CSV.encode()},
        ["cluster", "run", "--data", "{d}/blobs.csv", "--eps", "2", "--fallback", "basic",
         "--weights", "a,b"],
        "--weights",
    ),
    "weights-nan": (
        {"blobs.csv": TWO_BLOBS_CSV.encode()},
        ["cluster", "run", "--data", "{d}/blobs.csv", "--eps", "2", "--fallback", "basic",
         "--metric", "band_variance", "--weights", "nan,1"],
        "finite",
    ),
    "weights-under-nasd": (
        {"blobs.csv": TWO_BLOBS_CSV.encode()},
        ["cluster", "run", "--data", "{d}/blobs.csv", "--eps", "2", "--fallback", "basic",
         "--weights", "1,2"],
        "band_variance",
    ),
    "relation-unknown-label-line": (
        {"unk.rel": b"elements: a b\nz a\n"},
        ["approx", "--rel", "{d}/unk.rel", "--set", "a"],
        "line 2",
    ),
    "relation-unknown-label": (
        {"unk.rel": b"elements: a b\na z\n"}, ["relation", "check", "{d}/unk.rel"], "'z'"
    ),
    "groupoid-build-unknown-label": (
        {"unk.rel": b"elements: a b\na z\n"},
        ["groupoid", "build", "--rel", "{d}/unk.rel"],
        "'z'",
    ),
    "groupoid-laws-wrong-width": (
        {"narrow.csv": NARROW_CAYLEY}, ["groupoid", "laws", "--table", "{d}/narrow.csv"], "width"
    ),
    # a --laws value that names no law id checks nothing, so it is refused
    "groupoid-laws-no-id": ({}, ["groupoid", "laws", "--laws", ","], "names no law id"),
    "groupoid-laws-empty": ({}, ["groupoid", "laws", "--laws", ""], "names no law id"),
    "acp-audit-wrong-width": (
        {"narrow.csv": NARROW_CAYLEY}, ["acp", "audit", "--table", "{d}/narrow.csv"], "width"
    ),
    "granules-subgroupoid-wrong-width": (
        {"narrow.csv": NARROW_CAYLEY},
        ["granules", "subgroupoid", "--table", "{d}/narrow.csv"],
        "width",
    ),
    "regions-unknown-label": ({}, ["regions", "--set", "a", "--set", "z"], "'z'"),
    "audit-claims-missing-file": (
        {}, ["audit", "claims", "--rel", "{d}/missing.rel"], "missing.rel"
    ),
    "cluster-score-missing-file": (
        {"blobs.csv": TWO_BLOBS_CSV.encode()},
        ["cluster", "score", "{d}/missing.json", "--data", "{d}/blobs.csv", "--eps", "2"],
        "missing.json",
    ),
    # a clusters file's flavor decides what is built, so it is checked on reading
    "cluster-flavor-unknown": (
        {"blobs.csv": TWO_BLOBS_CSV.encode(),
         "clusters.json": b'{"flavor": "kmeans", "clusters": [{"support": ["r0"]}]}'},
        ["cluster", "validate", "{d}/clusters.json", "--data", "{d}/blobs.csv",
         "--eps", "2"],
        "clusters.json: unknown clustering flavor 'kmeans'",
    ),
    "cluster-flavor-unknown-no-clusters": (
        {"blobs.csv": TWO_BLOBS_CSV.encode(),
         "clusters.json": b'{"flavor": "kmeans", "clusters": []}'},
        ["cluster", "validate", "{d}/clusters.json", "--data", "{d}/blobs.csv",
         "--eps", "2"],
        "clusters.json: unknown clustering flavor 'kmeans'",
    ),
    "cluster-without-support": (
        {"blobs.csv": TWO_BLOBS_CSV.encode(), "clusters.json": b'{"clusters": [1]}'},
        ["cluster", "validate", "{d}/clusters.json", "--data", "{d}/blobs.csv",
         "--eps", "2"],
        "support",
    ),
    # a parse error names the file it came from, not only the line or row
    "regions-names-bad-table": (
        {"ab.rel": b"elements: a b\na a\na b\nb b\n", "narrow.csv": NARROW_CAYLEY},
        ["regions", "--rel", "{d}/ab.rel", "--table", "{d}/narrow.csv", "--set", "a",
         "--set", "b"],
        "narrow.csv",
    ),
    "relation-unknown-label-file": (
        {"unk.rel": b"elements: a b\nz a\n"},
        ["approx", "--rel", "{d}/unk.rel", "--set", "a"],
        "unk.rel",
    ),
    "relation-check-two-files": (
        {"one.rel": b"elements: a\na a\n", "two.rel": b"elements: b\nb b\n"},
        ["relation", "check", "{d}/one.rel", "--rel", "{d}/two.rel"],
        "two.rel",
    ),
    "audit-claims-negative-random": (
        {}, ["audit", "claims", "--random", "-3"], "non-negative"
    ),
    # --table gives the groupoid, checked against the relation read beside
    # it: --strategy, --pi beside no relation, or a command that uses no
    # groupoid, clashes with it
    "approx-pi-table-and-rel": (
        {"ab.rel": AB_REL, "bad.csv": AB_NOT_BS_CAYLEY},
        ["approx", "--kind", "pi", "--rel", "{d}/ab.rel", "--table", "{d}/bad.csv",
         "--set", "a"],
        "bad.csv: explicit table violates the B(S) condition",
    ),
    "acp-audit-table-and-pi": (
        {"ab.csv": AB_CAYLEY}, ["acp", "audit", "--table", "{d}/ab.csv", "--pi"], "--pi"
    ),
    "regions-table-and-strategy": (
        {"ab.csv": AB_CAYLEY, "ab.rel": AB_REL},
        ["regions", "--rel", "{d}/ab.rel", "--table", "{d}/ab.csv", "--strategy", "max",
         "--set", "a", "--set", "b"],
        "--strategy",
    ),
    "groupoid-laws-table-and-rel": (
        {"ab.rel": AB_REL, "bad.csv": AB_NOT_BS_CAYLEY},
        ["groupoid", "laws", "--table", "{d}/bad.csv", "--rel", "{d}/ab.rel"],
        "bad.csv: explicit table violates the B(S) condition",
    ),
    "granules-subgroupoid-table-and-strategy": (
        {"ab.csv": AB_CAYLEY},
        ["granules", "subgroupoid", "--table", "{d}/ab.csv", "--strategy", "max"],
        "--strategy",
    ),
    "approx-nbd-table": (
        {"ab.csv": AB_CAYLEY},
        ["approx", "--kind", "nbd", "--table", "{d}/ab.csv", "--set", "a"],
        "--kind nbd",
    ),
    "approx-cud-table": (
        {"ab.csv": AB_CAYLEY},
        ["approx", "--kind", "cud", "--table", "{d}/ab.csv", "--set", "a"],
        "--kind cud",
    ),
    "granules-cud-table": (
        {"ab.csv": AB_CAYLEY}, ["granules", "cud", "--table", "{d}/ab.csv"], "--table"
    ),
    # approx --kind nbd|cud and granules cud use no groupoid, so the flags
    # that build one clash with them
    "approx-cud-strategy": (
        {}, ["approx", "--kind", "cud", "--strategy", "bogus", "--set", "a"], "--strategy"
    ),
    "approx-nbd-pi": ({}, ["approx", "--kind", "nbd", "--pi", "--set", "a"], "--pi"),
    "granules-cud-strategy-pi": (
        {}, ["granules", "cud", "--strategy", "max", "--pi"], "--strategy, --pi"
    ),
    # a flag the command would not read: --mode outside --kind cud, and
    # cluster --strategy or --table outside pi clustering
    "approx-nbd-mode": (
        {}, ["approx", "--kind", "nbd", "--mode", "collection", "--set", "a"], "--mode"
    ),
    "approx-pi-mode": (
        {}, ["approx", "--kind", "pi", "--mode", "pointwise", "--set", "a"], "--mode"
    ),
    "cluster-run-cud-strategy": (
        {"blobs.csv": TWO_BLOBS_CSV.encode()},
        ["cluster", "run", "--data", "{d}/blobs.csv", "--eps", "2", "--fallback", "basic",
         "--kind", "cud", "--strategy", "max"],
        "--strategy",
    ),
    "cluster-validate-cud-strategy": (
        {"blobs.csv": TWO_BLOBS_CSV.encode(),
         "clusters.json": b'{"clusters": [{"support": ["r0", "r1"]}]}'},
        ["cluster", "validate", "{d}/clusters.json", "--data", "{d}/blobs.csv",
         "--eps", "2", "--strategy", "max"],
        "--strategy",
    ),
    "cluster-run-cud-table": (
        {"blobs.csv": TWO_BLOBS_CSV.encode(), "ab.csv": AB_CAYLEY},
        ["cluster", "run", "--data", "{d}/blobs.csv", "--eps", "2", "--fallback", "basic",
         "--table", "{d}/ab.csv"],
        "cud clustering uses no groupoid; it clashes with --table",
    ),
    # --strategy only picks, in every command: a table is given with --table
    "strategy-table-unknown": (
        {"ab.rel": AB_REL, "ab.csv": AB_CAYLEY},
        ["groupoid", "build", "--rel", "{d}/ab.rel", "--strategy", "table:{d}/ab.csv"],
        "unknown strategy 'table:",
    ),
    "acp-audit-strategy-unknown": (
        {}, ["acp", "audit", "--strategy", "bogus"], "unknown strategy 'bogus'"
    ),
    # a --table read beside a relation carries the relation's labels in the
    # relation's order: --rel, the fixture for regions and groupoid build, the
    # clustered system for cluster, and for audit claims without --rel the fixture
    "build-table-other-labels": (
        {"ab.rel": AB_REL, "xy.csv": XY_CAYLEY},
        ["groupoid", "build", "--rel", "{d}/ab.rel", "--table", "{d}/xy.csv"],
        f"xy.csv: {LABELS_RULE}",
    ),
    "build-table-reordered": (
        {"ab.rel": AB_REL, "ba.csv": BA_CAYLEY},
        ["groupoid", "build", "--rel", "{d}/ab.rel", "--table", "{d}/ba.csv"],
        f"ba.csv: {LABELS_RULE}",
    ),
    "cluster-run-table-other-labels": (
        {"blobs.csv": TWO_BLOBS_CSV.encode(), "ab.csv": AB_CAYLEY},
        ["cluster", "run", "--data", "{d}/blobs.csv", "--eps", "20", "--kind", "pi",
         "--table", "{d}/ab.csv"],
        f"ab.csv: {LABELS_RULE}",
    ),
    "regions-table-other-labels": (
        {"ab.rel": AB_REL, "xy.csv": XY_CAYLEY},
        ["regions", "--rel", "{d}/ab.rel", "--table", "{d}/xy.csv", "--set", "a",
         "--set", "b"],
        f"xy.csv: {LABELS_RULE}",
    ),
    "regions-table-reordered": (
        {"ab.rel": AB_REL, "ba.csv": BA_CAYLEY},
        ["regions", "--rel", "{d}/ab.rel", "--table", "{d}/ba.csv", "--set", "a",
         "--set", "b"],
        f"ba.csv: {LABELS_RULE}",
    ),
    "audit-claims-table-other-labels": (
        {"ab.rel": AB_REL, "xy.csv": XY_CAYLEY},
        ["audit", "claims", "--rel", "{d}/ab.rel", "--table", "{d}/xy.csv", "--random", "0"],
        f"xy.csv: {LABELS_RULE}",
    ),
    "audit-claims-table-reordered": (
        {"ab.rel": AB_REL, "ba.csv": BA_CAYLEY},
        ["audit", "claims", "--rel", "{d}/ab.rel", "--table", "{d}/ba.csv", "--random", "0"],
        f"ba.csv: {LABELS_RULE}",
    ),
    "audit-claims-table-not-fixture": (
        {"ab.csv": AB_CAYLEY},
        ["audit", "claims", "--table", "{d}/ab.csv", "--random", "0"],
        f"ab.csv: {LABELS_RULE}",
    ),
    "regions-table-outside-bs": (
        {"ab.rel": AB_REL, "bad.csv": AB_NOT_BS_CAYLEY},
        ["regions", "--rel", "{d}/ab.rel", "--table", "{d}/bad.csv", "--set", "a",
         "--set", "b"],
        "bad.csv: explicit table violates the B(S) condition",
    ),
    # B(S) is a family of an up-directed system: a two-cycle has none, though
    # this table obeys the cell rule in every cell
    "regions-table-not-updirected": (
        {"cyc.rel": b"elements: a b\na b\nb a\n", "cyc.csv": b",a,b\na,b,b\nb,a,a\n"},
        ["regions", "--rel", "{d}/cyc.rel", "--table", "{d}/cyc.csv", "--set", "a",
         "--set", "b"],
        "cyc.csv: system is not up-directed",
    ),
    "segment-is-directory": (
        {"blobs.csv": TWO_BLOBS_CSV.encode()},
        ["cluster", "run", "--data", "{d}/blobs.csv", "--eps", "1", "--fallback", "basic",
         "--segment", "{d}"],
        "cannot write",
    ),
    "segment-parent-missing": (
        {"blobs.csv": TWO_BLOBS_CSV.encode()},
        ["cluster", "run", "--data", "{d}/blobs.csv", "--eps", "1", "--fallback", "basic",
         "--segment", "{d}/missing/seg.csv"],
        "cannot write",
    ),
    "cluster-support-unknown-row": (
        {"blobs.csv": TWO_BLOBS_CSV.encode(),
         "clusters.json": b'{"clusters": [{"support": ["r0", "q9"]}]}'},
        ["cluster", "validate", "{d}/clusters.json", "--data", "{d}/blobs.csv",
         "--eps", "2"],
        "clusters.json",
    ),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
    def test_one_error_line_no_traceback(self, tmp_path, case):
        files, argv, fragment = MALFORMED_INPUTS[case]
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        assert fragment in one_error_line(argv, tmp_path).stderr

    @pytest.mark.parametrize("case", ["segment-is-directory", "segment-parent-missing"])
    def test_unwritable_segment_names_the_path_and_prints_nothing(self, tmp_path, case):
        files, argv, _ = MALFORMED_INPUTS[case]
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        out = one_error_line(argv, tmp_path)
        assert f"cannot write {argv[-1].format(d=tmp_path)}: " in out.stderr
        assert out.stdout == "" and sorted(os.listdir(tmp_path)) == ["blobs.csv"]


class TestExplicitPiTable:
    """A B(S) table that breaks a pi condition is refused beside --pi."""

    @pytest.mark.parametrize("command", [
        ["groupoid", "build"], ["regions", "--set", "v0", "--set", "v1"],
    ], ids=["groupoid-build", "regions"])
    @pytest.mark.parametrize("strat,fragment", [
        (ChoiceStrategy.max_index(), "product v2.v2 is not a pseudo join"),
        (ChoiceStrategy.seeded(1), "choice does not factor through the upper-bound set"),
    ], ids=["pseudo-join", "factoring"])
    def test_one_error_line(self, tmp_path, command, strat, fragment):
        sys_ = rand_updirected(0, 5)
        rel, table = tmp_path / "r.rel", tmp_path / "t.csv"
        rel.write_text(dump_relation(sys_))
        table.write_text(dump_cayley(build_updir_groupoid(sys_, strat)))
        argv = [*command, "--rel", str(rel), "--table", str(table)]
        out = subprocess.run(
            [sys.executable, "-m", "dirough", *argv, "--pi"], capture_output=True, text=True
        )
        assert out.returncode == 1 and out.stdout == ""
        assert out.stderr.splitlines() == [f"error: {table}: {fragment}"]
        out = subprocess.run(
            [sys.executable, "-m", "dirough", *argv], capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr


class TestEntryPoints:
    def test_module_invocation(self):
        out = subprocess.run(
            [sys.executable, "-m", "dirough", "fixture", "section6"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0 and "exact after errata: true" in out.stdout

    def test_script_help(self):
        """The `dirough` script declared in pyproject.toml, run the way its
        installed wrapper runs it, against the source tree under test."""
        spec = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]["dirough"]
        match = re.fullmatch(r"(\w+(?:\.\w+)*):(\w+)", spec)
        assert match, f"entry point {spec!r} is not of the form module:attr"
        module, attr = match.groups()
        src_root = str(Path(dirough.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        code = SCRIPT_WRAPPER.format(module=module, attr=attr)
        out = subprocess.run(
            [sys.executable, "-c", code, "--help"],
            capture_output=True, text=True, env=env,
        )
        assert out.returncode == 0, out.stderr
        assert "usage: dirough" in out.stdout
        assert re.search(r"\bapprox\b", out.stdout), "no approx subcommand"

    @pytest.mark.skipif(shutil.which("dirough") is None,
                        reason="no installed dirough script on PATH")
    def test_installed_script_help(self):
        out = subprocess.run(["dirough", "--help"], capture_output=True, text=True)
        assert out.returncode == 0 and "approx" in out.stdout

    @pytest.mark.parametrize("argv", [
        ["fixture", "section6", "--json"],
        ["cluster", "run", "--data", "{d}/blobs.csv", "--eps", "2", "--fallback", "basic"],
    ])
    def test_closed_stdout_no_traceback(self, tmp_path, argv):
        (tmp_path / "blobs.csv").write_text(TWO_BLOBS_CSV)
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            out = subprocess.run(
                [sys.executable, "-m", "dirough", *(a.format(d=tmp_path) for a in argv)],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write_end)
        assert out.returncode == 1
        assert "Traceback" not in out.stderr and "BrokenPipeError" not in out.stderr

    def test_reader_closing_mid_stream(self, tmp_path):
        """A reader that closes stdout after the first 4 KiB of a long JSON
        stream gets exit code 1 and no traceback."""
        argv = ["granules", "cud", "--rel", cud_n16_rel(tmp_path), "--json"]
        p = subprocess.Popen([sys.executable, "-m", "dirough", *argv],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert len(p.stdout.read(4096)) == 4096
            p.stdout.close()
            err = p.stderr.read().decode()
            code = p.wait(timeout=60)
        finally:
            p.kill()
            p.wait()
            p.stderr.close()
        assert code == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err

    def test_byte_identical_reruns(self):
        cmd = [
            sys.executable, "-m", "dirough", "audit", "claims",
            "--json", "--random", "1", "--seed", "7",
        ]
        a = subprocess.run(cmd, capture_output=True).stdout
        b = subprocess.run(cmd, capture_output=True).stdout
        assert a and a == b


def imported_modules(argv) -> set[str]:
    """The modules a fresh `python -m dirough <argv>` imports, read from
    -X importtime."""
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "dirough", *argv],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in out.stderr.splitlines()
        if line.startswith("import time:")
    }


class TestColdStart:
    """A cold command imports what it runs: numpy and the cluster pipeline
    only for `cluster *`, the auditor only for `audit claims`, and no
    command loads dataclasses (or the inspect module it pulls in)."""

    LIGHT = {
        "relation-check": ["relation", "check", "--json"],
        "approx-nbd": ["approx", "--set", "e,b,c", "--kind", "nbd", "--json"],
        "approx-cud": ["approx", "--set", "e,b,c", "--kind", "cud", "--json"],
        "approx-pi": ["approx", "--set", "e,b,c", "--kind", "pi", "--pi", "--json"],
        "granules-cud": ["granules", "cud", "--json"],
        "granules-subgroupoid": ["granules", "subgroupoid", "--json"],
        "groupoid-build": ["groupoid", "build", "--json"],
        "groupoid-laws": ["groupoid", "laws", "--json"],
        "regions": ["regions", "--set", "a", "--set", "b", "--json"],
        "acp-audit": ["acp", "audit", "--json"],
        "fixture-section6": ["fixture", "section6", "--json"],
        "help": ["--help"],
    }

    @pytest.mark.parametrize("case", sorted(LIGHT))
    def test_light_commands_skip_heavy_modules(self, case):
        heavy = {
            m for m in imported_modules(self.LIGHT[case])
            if m.split(".")[0] == "numpy"
            or m in ("dirough.audit", "dirough.cluster", "dataclasses", "inspect")
        }
        assert not heavy, sorted(heavy)

    # the cli-cold benchmark mix, each command but the fixture report given
    # a relation: the dirough modules it loads besides the package, cli,
    # relsys, _bits and errors
    MIX = {
        "relation-check": (["relation", "check", "--rel", "{rel}"], set()),
        "approx-cud": (["approx", "--rel", "{rel}", "--kind", "cud", "--set", "a"], {"cud"}),
        "approx-pi": (["approx", "--rel", "{rel}", "--kind", "pi", "--pi", "--set", "a"],
                      {"grpd", "piappr"}),
        "granules-cud": (["granules", "cud", "--rel", "{rel}"], {"cud"}),
        "granules-subgroupoid": (["granules", "subgroupoid", "--rel", "{rel}", "--pi"], {"grpd"}),
        "groupoid-build": (["groupoid", "build", "--rel", "{rel}", "--pi"], {"grpd"}),
        "groupoid-laws": (["groupoid", "laws", "--rel", "{rel}", "--pi"], {"grpd"}),
        "regions": (["regions", "--rel", "{rel}", "--pi", "--set", "a", "--set", "b"],
                    {"grpd", "regions"}),
        "fixture": (["fixture", "section6"], {"fixtures", "cud", "grpd", "piappr"}),
        "acp-audit": (["acp", "audit", "--rel", "{rel}", "--pi"], {"grpd", "acp"}),
        "audit-claims": (["audit", "claims", "--rel", "{rel}", "--random", "0"],
                         {"audit", "acp", "cud", "grpd", "piappr"}),
    }

    # without --rel a command reads the bundled example: fixtures loads, and
    # nothing else beyond what the command loads given a relation
    NO_REL = {
        "relation-check": (["relation", "check"], {"fixtures"}),
        "approx-nbd": (["approx", "--kind", "nbd", "--set", "a"], {"fixtures"}),
        "approx-cud": (["approx", "--kind", "cud", "--set", "a"], {"fixtures", "cud"}),
        "approx-pi": (["approx", "--kind", "pi", "--set", "a"], {"fixtures", "grpd", "piappr"}),
        "granules-cud": (["granules", "cud"], {"fixtures", "cud"}),
        "granules-subgroupoid": (["granules", "subgroupoid"], {"fixtures", "grpd"}),
        "groupoid-laws": (["groupoid", "laws"], {"fixtures", "grpd"}),
        "regions": (["regions", "--set", "a", "--set", "b"], {"fixtures", "grpd", "regions"}),
        "acp-audit": (["acp", "audit"], {"fixtures", "grpd", "acp"}),
    }

    @staticmethod
    def _assert_loads(argv, own, tmp_path):
        rel = tmp_path / "r.rel"
        rel.write_text("elements: a b c\na c\nb c\nc c\n")
        loaded = {
            m for m in imported_modules([a.format(rel=rel) for a in argv] + ["--json"])
            if m.split(".")[0] == "dirough"
        }
        base = {"dirough", "dirough.cli", "dirough.relsys", "dirough._bits", "dirough.errors"}
        assert loaded == base | {f"dirough.{m}" for m in own}

    @pytest.mark.parametrize("case", sorted(MIX))
    def test_mix_command_loads_only_its_modules(self, case, tmp_path):
        self._assert_loads(*self.MIX[case], tmp_path)

    @pytest.mark.parametrize("case", sorted(NO_REL))
    def test_bundled_example_adds_only_fixtures(self, case, tmp_path):
        self._assert_loads(*self.NO_REL[case], tmp_path)

    def test_no_module_imports_dataclasses(self):
        src = Path(dirough.__file__).parent
        importing = [
            f"{path.stem}:{node.lineno}"
            for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Import) and any(
                a.name.split(".")[0] == "dataclasses" for a in node.names)
            or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses"
        ]
        assert importing == []

    def test_region_kinds_spelled_out_in_parser(self):
        """The parser's --kind choices are regions.REGION_KINDS, written out
        so that building the parser loads no domain module."""
        from dirough.cli import build_parser
        from dirough.regions import REGION_KINDS

        sub = next(a for a in build_parser()._actions if a.dest == "cmd")
        kind = next(a for a in sub.choices["regions"]._actions if a.dest == "kind")
        assert tuple(kind.choices) == REGION_KINDS

    def test_cluster_vocabulary_spelled_out_in_parser(self):
        """cluster run's --fallback choices are the library's fallbacks and
        the CLI's own top; each --kind and --metric choice runs through
        propose_clusters and score_clusters."""
        from dirough import cluster
        from dirough.cli import build_parser

        sub = next(a for a in build_parser()._actions if a.dest == "cmd")
        csub = next(a for a in sub.choices["cluster"]._actions if a.dest == "sub")
        choices = {a.dest: tuple(a.choices) for a in csub.choices["run"]._actions if a.choices}
        assert choices["fallback"] == cluster.FALLBACKS + ("top",)
        ds = cluster.parse_dataset(TWO_BLOBS_CSV)
        sys = cluster.step1_relation(ds, eps=2)
        for kind in choices["kind"]:
            cs = cluster.propose_clusters(sys, None, kind, on_not_updirected="basic")
            for metric in choices["metric"]:
                assert len(cluster.score_clusters(ds, cs, metric).rows) == 3 * len(cs.clusters)

    def test_cluster_run_loads_cluster(self, blob_csv):
        mods = imported_modules(
            ["cluster", "run", "--data", blob_csv, "--eps", "2", "--fallback", "basic", "--json"]
        )
        assert {"numpy", "dirough.cluster"} <= mods
