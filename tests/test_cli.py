import json
import os
import re
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import dirough
from dirough.cli import run
from dirough.grpd import parse_cayley
from dirough.fixtures import section6_system
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


def validate(schema_name, payload):
    text = (resources.files("dirough") / "schemas" / schema_name).read_text()
    jsonschema.validate(payload, json.loads(text))


def cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def cli_json(capsys, *argv):
    code, out, err = cli(capsys, *argv, "--json")
    return code, json.loads(out), err


@pytest.fixture()
def empty_rel(tmp_path):
    p = tmp_path / "empty.rel"
    p.write_text("elements: x y\n")
    return str(p)


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


class TestGroupoid:
    def test_build_csv_parses_back(self, capsys):
        code, out, _ = cli(capsys, "groupoid", "build", "--strategy", "min")
        assert code == 0
        g = parse_cayley(out)
        assert g.labels == ("a", "b", "c", "e", "f")

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

    def test_top_fallback_reads_back(self, capsys, blob_csv, tmp_path):
        code, data, _ = cli_json(
            capsys, "cluster", "run", "--data", blob_csv, "--eps", "2", "--fallback", "top",
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

    def test_run_requires_fallback_here(self, capsys, blob_csv):
        code, _, err = cli(capsys, "cluster", "run", "--data", blob_csv, "--eps", "2")
        assert code == 1 and "up-directed" in err

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


class TestCapOption:
    def test_cap_holds_for_one_command(self, capsys, monkeypatch):
        monkeypatch.delenv("DIROUGH_CAP", raising=False)
        code, _, err = cli(capsys, "granules", "cud", "--cap", "3")
        assert code == 1 and "exceeds the exhaustive cap 3" in err
        code, out, err = cli(capsys, "granules", "cud")
        assert code == 0 and out.startswith("count:") and not err
        assert exhaustive_cap() == 16

    def test_environment_still_honoured(self, capsys, monkeypatch):
        monkeypatch.setenv("DIROUGH_CAP", "3")
        code, _, err = cli(capsys, "granules", "subgroupoid")
        assert code == 1 and "exceeds the exhaustive cap 3" in err
        # --cap takes precedence over the environment for its command
        code, _, err = cli(capsys, "granules", "subgroupoid", "--cap", "5")
        assert code == 0 and not err
        assert exhaustive_cap() == 3


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


# A Cayley table whose second row lacks a cell.
NARROW_CAYLEY = b",a,b\na,a,b\nb,b\n"

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
    "negative-cap": ({}, ["granules", "cud", "--cap", "-1"], "non-negative"),
    "negative-cap-unread": (
        {}, ["approx", "--kind", "nbd", "--set", "a", "--cap", "-1"], "non-negative"
    ),
    "negative-cap-cluster": (
        {"blobs.csv": TWO_BLOBS_CSV.encode()},
        ["cluster", "run", "--data", "{d}/blobs.csv", "--eps", "2", "--fallback", "basic",
         "--cap", "-1"],
        "non-negative",
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
    "acp-audit-wrong-width": (
        {"narrow.csv": NARROW_CAYLEY}, ["acp", "audit", "--table", "{d}/narrow.csv"], "width"
    ),
    "granules-subgroupoid-wrong-width": (
        {"narrow.csv": NARROW_CAYLEY},
        ["granules", "subgroupoid", "--table", "{d}/narrow.csv"],
        "width",
    ),
    "regions-unknown-label": ({}, ["regions", "--set", "a", "--set", "z"], "'z'"),
    "fixture-negative-cap": ({}, ["fixture", "section6", "--cap", "-1"], "non-negative"),
    "audit-claims-missing-file": (
        {}, ["audit", "claims", "--rel", "{d}/missing.rel"], "missing.rel"
    ),
    "cluster-score-missing-file": (
        {"blobs.csv": TWO_BLOBS_CSV.encode()},
        ["cluster", "score", "{d}/missing.json", "--data", "{d}/blobs.csv", "--eps", "2"],
        "missing.json",
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
        out = subprocess.run(
            [sys.executable, "-m", "dirough", *(a.format(d=tmp_path) for a in argv)],
            capture_output=True, text=True,
        )
        assert out.returncode == 1, out.stderr
        assert "Traceback" not in out.stderr
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), out.stderr
        assert fragment in lines[0]


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

    def test_byte_identical_reruns(self):
        cmd = [
            sys.executable, "-m", "dirough", "audit", "claims",
            "--json", "--random", "1", "--seed", "7",
        ]
        a = subprocess.run(cmd, capture_output=True).stdout
        b = subprocess.run(cmd, capture_output=True).stdout
        assert a and a == b
