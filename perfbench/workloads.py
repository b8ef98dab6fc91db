"""The workloads: their inputs, their op and the check of its output.

Every workload is a closed loop with one client: the next op starts when
the previous one has returned. An op takes one generated input; the check
runs after the measured phase, never inside it. BENCHMARK.json runs
cluster-bands and cli-cold; audit-bulk and lattice-queries run by hand.

Ops import the package's functions when they run, not when this module
loads, so that in a traced run they call the wrapped functions.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

from . import gen

# Scratch space for generated files, relative to the checkout root.
WORKDIR = ".perfbench_work"


def _labels_of(mask: int, n: int) -> frozenset[str]:
    lab = gen.labels(n)
    return frozenset(lab[i] for i in range(n) if mask >> i & 1)


def _label_pairs(succ) -> list[tuple[str, str]]:
    lab = gen.labels(len(succ))
    return [(lab[a], lab[b]) for a, row in enumerate(succ) for b in range(len(succ)) if row >> b & 1]


def _memo(fn, key):
    cache = {}

    def run(*args):
        k = key(*args)
        if k not in cache:
            cache[k] = fn(*args)
        return cache[k]

    return run


def load_oracles(root: Path):
    """The repository's brute-force reference module, tests/oracles.py.

    Its query functions rebuild a whole family on every call; the two
    family builders are memoized here, which leaves every answer the same.
    """
    spec = importlib.util.spec_from_file_location("perfbench_oracles", root / "tests" / "oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    mod.cud_family = _memo(mod.cud_family, lambda u, p: (tuple(u), frozenset(p)))
    mod.closed_sets = _memo(mod.closed_sets, lambda l, t: (tuple(l), frozenset(t.items())))
    return mod


def _sandwiches(lower: int, A: int, upper: int) -> bool:
    return lower & ~A == 0 and A & ~upper == 0


def _table_dict(table) -> dict[tuple[str, str], str]:
    lab = gen.labels(len(table))
    return {(lab[a], lab[b]): lab[c] for a, row in enumerate(table) for b, c in enumerate(row)}


class Workload:
    name = ""
    # ops in a traced run; fixed, so calls and counts compare across commits
    trace_ops = 0

    def __init__(self, root: Path, seed: int):
        self.root, self.seed = root, seed
        self._oracles = None

    @property
    def oracles(self):
        if self._oracles is None:
            self._oracles = load_oracles(self.root)
        return self._oracles

    def inputs(self) -> list:
        """The measured sequence, as plain data (it is fingerprinted)."""
        raise NotImplementedError

    def warmup_input(self):
        raise NotImplementedError

    def prepare(self, inputs: list) -> None:
        """Anything an op needs on disk."""

    def op(self, x):
        raise NotImplementedError

    def check(self, index: int, x, out) -> list[str]:
        """Reasons the output is wrong; empty when it is right."""
        raise NotImplementedError

    def repeat_key(self, x):
        return json.dumps(x, sort_keys=True)

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process that runs the ops."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux

    def close(self) -> None:
        """Stop any process the workload started."""


# ---------------------------------------------------------------------------
# audit-bulk


class AuditBulk(Workload):
    """Distinct random up-directed systems, n = 3..8, through the claim
    registry and the ACP audit, as in acceptance criterion 4."""

    name = "audit-bulk"
    trace_ops = 60
    POOL = 3000
    SIZES = tuple(range(3, 9))
    ASSIGNMENT_LIMIT = 128
    PAIR_LIMIT = 64

    def __init__(self, root, seed):
        super().__init__(root, seed)
        from dirough.audit import CLAIMS

        self.claims = [c for c in CLAIMS if not c.id.startswith("acp.")]

    def _system(self, stream: int, k: int) -> dict:
        n = self.SIZES[k % len(self.SIZES)]
        return {
            "n": n,
            "succ": list(gen.updirected_succ(gen.mix(self.seed, stream, k), n)),
            "gseed": gen.mix(self.seed, stream + 1, k) >> 1,
        }

    def inputs(self):
        return [self._system(11, k) for k in range(self.POOL)]

    def warmup_input(self):
        return self._system(13, 3)  # n = 6, so the groupoid and ACP paths warm up too

    def repeat_key(self, x):
        return tuple(x["succ"])

    def op(self, x):
        from dirough.acp import audit_acp_laws
        from dirough.audit import AuditInstance, check_claim
        from dirough.grpd import ChoiceStrategy, build_updir_groupoid
        from dirough.relsys import RelationalSystem

        s = RelationalSystem(gen.labels(x["n"]), tuple(x["succ"]))
        g = build_updir_groupoid(s, ChoiceStrategy.seeded(x["gseed"])) if x["n"] <= 6 else None
        inst = AuditInstance("bulk", s, g)
        results = [check_claim(c, inst, limit=self.ASSIGNMENT_LIMIT) for c in self.claims]
        acp = audit_acp_laws(g, "formal", pair_limit=self.PAIR_LIMIT) if g is not None else None
        return inst, results, acp

    def check(self, index, x, out):
        from dirough.audit import replay_witness

        inst, results, acp = out
        bad = []
        for r in results:
            if r.status != "fail":
                continue
            if r.tier == 1:
                bad.append(f"tier-1 claim {r.claim} fails")
            elif not replay_witness(r.claim, inst, r.witness):
                bad.append(f"tier-2 witness of {r.claim} does not replay")
        for v in acp.verdicts if acp is not None else ():
            if v.tier == 1 and not v.holds:
                bad.append(f"tier-1 ACP law {v.law} fails")
        return bad


# ---------------------------------------------------------------------------
# lattice-queries


class LatticeQueries(Workload):
    """Systems near the exhaustive cap, n = 12..16: build both granule
    families once, then answer a batch of subset queries over them."""

    name = "lattice-queries"
    trace_ops = 10
    POOL = 300
    SIZES = tuple(range(12, 17))
    QUERIES = 32
    ORACLE_OPS = 2  # the first ops at the smallest size are checked against the oracles
    ORACLE_QUERIES = 4

    def _system(self, stream: int, k: int) -> dict:
        n = self.SIZES[k % len(self.SIZES)]
        key = gen.mix(self.seed, stream, k)
        return {
            "n": n,
            "succ": list(gen.updirected_succ(key, n)),
            "gseed": gen.mix(self.seed, stream + 1, k) >> 1,
            "sets": [gen.subset(key, n, 100 + j) for j in range(2 * self.QUERIES)],
        }

    def inputs(self):
        return [self._system(21, k) for k in range(self.POOL)]

    def warmup_input(self):
        return self._system(23, 0)

    def op(self, x):
        from dirough.cud import approx_cud, cud_family, cud_tuple, eth_closure
        from dirough.grpd import ChoiceStrategy, build_updir_groupoid, check_laws, subgroupoids
        from dirough.piappr import approx_pi, pg_tuple
        from dirough.regions import region_table
        from dirough.relsys import RelationalSystem

        s = RelationalSystem(gen.labels(x["n"]), tuple(x["succ"]))
        fam = cud_family(s)
        g = build_updir_groupoid(s, ChoiceStrategy.seeded(x["gseed"], pi_constrained=True))
        sg = subgroupoids(g)
        laws = check_laws(g)
        sets = x["sets"]
        answers = []
        for j in range(self.QUERIES):
            A, B = sets[2 * j], sets[2 * j + 1]
            ct = cud_tuple(s, A)
            pg = pg_tuple(g, A)
            answers.append(
                {
                    "l_cd": ct.lower,
                    "u_cd": ct.upper,
                    "u_cd_collection": approx_cud(s, A, "u", "collection"),
                    "eth": eth_closure(s, A),
                    "l_pi": pg.lower,
                    "sg_l_pi": pg.generated_lower,
                    "u_pi": pg.upper,
                    "u_a": approx_pi(g, A, "u_a"),
                    "regions": region_table(g, s, A, B),
                }
            )
        return fam.members, g.table, sg.members, laws, answers

    def check(self, index, x, out):
        fam, table, sg, laws, answers = out
        n = x["n"]
        full = (1 << n) - 1
        fam_set = set(fam)
        bad = []
        if 0 not in sg or full not in sg:
            bad.append("subgroupoid family lacks the empty set or the universe")
        for j, a in enumerate(answers):
            A = x["sets"][2 * j]
            if not _sandwiches(a["l_cd"], A, a["u_cd"]) or not _sandwiches(a["l_pi"], A, a["u_pi"]):
                bad.append(f"query {j}: a lower/upper pair does not sandwich the set")
            if A & ~a["eth"] or a["eth"] not in fam_set:
                bad.append(f"query {j}: eth closure is not a CUD superset")
            if a["sg_l_pi"] & ~a["u_pi"] or A & ~a["u_a"]:
                bad.append(f"query {j}: pi uppers do not contain their sets")
            if any(v & ~full for v in a["regions"].values()):
                bad.append(f"query {j}: a region leaves the universe")
        if index % len(self.SIZES) == 0 and index < len(self.SIZES) * self.ORACLE_OPS:
            bad += self._oracle_check(x, out)
        return bad

    def _oracle_check(self, x, out):
        O = self.oracles
        fam, table, sg, laws, answers = out
        n = x["n"]
        U = list(gen.labels(n))
        P = _label_pairs(x["succ"])
        T = _table_dict(table)
        lab = lambda m: _labels_of(m, n)  # noqa: E731
        bad = []
        if {lab(m) for m in fam} != set(O.cud_family(U, P)):
            bad.append("cud_family differs from the oracle")
        if {lab(m) for m in sg} != set(O.closed_sets(U, T)):
            bad.append("subgroupoids differ from the oracle")
        for q in range(self.ORACLE_QUERIES):
            j = gen.mix(self.seed, 31, x["gseed"], q) % len(answers)
            a = answers[j]
            A, B = lab(x["sets"][2 * j]), lab(x["sets"][2 * j + 1])
            want = {
                "l_cd": O.cud_lower(U, P, A),
                "u_cd": O.cud_upper_pointwise(U, P, A),
                "u_cd_collection": O.cud_upper_collection(U, P, A),
                "eth": O.eth(U, P, A),
                "l_pi": O.pi_lower(U, T, A),
                "u_pi": O.generate(U, T, A),
                "u_a": O.anti_upper(U, T, A),
            }
            want["sg_l_pi"] = O.generate(U, T, want["l_pi"])
            for key, value in want.items():
                if lab(a[key]) != value:
                    bad.append(f"query {j}: {key} differs from the oracle")
            for kind, got in a["regions"].items():
                if lab(got) != O.regions(U, T, U, P, A, B, kind):
                    bad.append(f"query {j}: region {kind} differs from the oracle")
        return bad


# ---------------------------------------------------------------------------
# cluster-bands


class ClusterBands(Workload):
    """The in-process `cluster run` pipeline on seeded Gaussian-blob band
    data with d = 4 and a ladder of row counts."""

    name = "cluster-bands"
    trace_ops = 18
    POOL = 120
    ROWS = tuple(range(150, 551, 50))
    EPS = 4.0
    K = 8
    NASD_SAMPLE = 2
    NASD_RTOL = 1e-9

    def _dataset(self, stream: int, k: int) -> dict:
        rows = self.ROWS[k % len(self.ROWS)]
        return {"rows": rows, "csv": gen.blob_csv(gen.mix(self.seed, stream, k), rows)}

    def inputs(self):
        return [self._dataset(41, k) for k in range(self.POOL)]

    def warmup_input(self):
        return self._dataset(43, 0)

    def op(self, x):
        from dirough import cluster as C

        ds = C.parse_dataset(x["csv"])
        s = C.step1_relation(ds, "euclidean", self.EPS)
        cs = C.propose_clusters(s, None, "cud", "neighborhood", "basic")
        C.validate_clustering(s, None, cs, cs.flavor)
        scored = C.score_clusters(ds, cs, "nasd")
        chosen = C.select_clusters(scored, None, self.K)
        C.validate_clustering(s, None, chosen, chosen.flavor)
        return ds, scored, chosen, C.segmentation_csv(chosen)

    def check(self, index, x, out):
        from dirough.cluster import rough_tuple_for

        O = self.oracles
        ds, scored, chosen, seg = out
        bad = []
        lines = seg.splitlines()
        if lines[0] != "id,cluster" or [ln.split(",")[0] for ln in lines[1:]] != list(ds.ids):
            bad.append("segmentation does not have one row per id")
        for c in chosen.clusters:
            if rough_tuple_for(chosen.sys, None, c.support, chosen.flavor) != c.approx:
                bad.append("a selected cluster does not reproduce its rough tuple")
                break
        clusters = scored.cluster_set.clusters
        for q in range(self.NASD_SAMPLE):
            i = gen.mix(self.seed, 51, index, q) % len(clusters)
            rows = [list(ds.rows[p]) for p in range(len(ds.ids)) if clusters[i].approx.lower >> p & 1]
            want, got = O.nasd(rows), scored.value(i, "lower")
            if (want is None) != (got is None) or (
                want is not None and abs(got - want) > self.NASD_RTOL * max(abs(want), 1e-12)
            ):
                bad.append(f"cluster {i}: lower NASD {got} differs from the oracle {want}")
        return bad


# ---------------------------------------------------------------------------
# cli-cold


CLI_MIX = (
    "relation-check",
    "approx-cud",
    "approx-pi",
    "granules-cud",
    "granules-subgroupoid",
    "groupoid-build",
    "groupoid-laws",
    "regions",
    "fixture",
    "acp-audit",
    "audit-claims",
)

SCHEMAS = {
    "relation-check": "profile.json",
    "approx-cud": "approx.json",
    "approx-pi": "approx.json",
    "granules-cud": "granules.json",
    "granules-subgroupoid": "granules.json",
    "groupoid-build": "groupoid.json",
    "groupoid-laws": "laws.json",
    "regions": "regions.json",
    "fixture": "fixture.json",
    "acp-audit": "acp_audit.json",
    "audit-claims": "audit_claims.json",
}

# The ACP audit and the claim registry take seconds per call from n = 5 on
# and up to 1.6 s at n = 4, so they run on small relations of their own,
# where they cost about what the other commands cost at n = 16.
SMALL = ("acp-audit", "audit-claims")
SMALL_N = 3


class CliCold(Workload):
    """One fresh `python -m dirough ... --json` process per op, cycling a
    fixed command mix over relation files with n = 10..16, and with n = 3
    for the ACP audit and the claim registry."""

    name = "cli-cold"
    trace_ops = 77  # seven passes, one per size
    POOL = 231  # three rounds of seven passes
    SIZES = tuple(range(10, 17))
    ORACLE_MAX_N = 12
    CHILD_TIMEOUT = 60
    in_process = False  # traced runs call cli.run in this process instead
    _spawner = None  # perfbench/spawner.py, which starts the cold children
    _children_kb = None

    def _op_input(self, stream: int, k: int) -> dict:
        # one relation per pass over the command mix, so the oracles build
        # each family once; successive passes step through the sizes
        r = k // len(CLI_MIX)
        cmd = CLI_MIX[k % len(CLI_MIX)]
        n = SMALL_N if cmd in SMALL else self.SIZES[r % len(self.SIZES)]
        key = gen.mix(self.seed, stream, r, n)
        succ = gen.updirected_succ(key, n)
        path = f"{WORKDIR}/cli-{self.seed}/s{stream}-{r}-n{n}.rel"
        A = ",".join(sorted(_labels_of(gen.subset(key, n, 2 * k), n)))
        B = ",".join(sorted(_labels_of(gen.subset(key, n, 2 * k + 1), n)))
        argv = {
            "relation-check": ["relation", "check", path],
            "approx-cud": ["approx", "--rel", path, "--kind", "cud", "--set", A],
            "approx-pi": ["approx", "--rel", path, "--kind", "pi", "--pi", "--set", A],
            "granules-cud": ["granules", "cud", "--rel", path],
            "granules-subgroupoid": ["granules", "subgroupoid", "--rel", path, "--pi"],
            "groupoid-build": ["groupoid", "build", "--rel", path, "--pi"],
            "groupoid-laws": ["groupoid", "laws", "--rel", path, "--pi"],
            "regions": ["regions", "--rel", path, "--pi", "--set", A, "--set", B],
            "fixture": ["fixture", "section6"],
            "acp-audit": ["acp", "audit", "--rel", path, "--pi"],
            "audit-claims": ["audit", "claims", "--rel", path, "--random", "0"],
        }[cmd] + ["--json"]
        return {"cmd": cmd, "n": n, "path": path, "relation": gen.relation_text(succ), "argv": argv}

    def inputs(self):
        return [self._op_input(61, k) for k in range(self.POOL)]

    def warmup_input(self):
        return self._op_input(63, 1)

    def prepare(self, inputs):
        for x in inputs:
            path = self.root / x["path"]
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(x["relation"], encoding="utf-8")

    def repeat_key(self, x):
        return (x["cmd"], x["relation"]) if x["cmd"] != "fixture" else "fixture"

    def op(self, x):
        if self.in_process:
            return self._in_process(x["argv"])
        if self._spawner is None:
            self._spawner = subprocess.Popen(
                [sys.executable, str(Path(__file__).with_name("spawner.py"))],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                cwd=self.root,
            )
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        env.pop("DIROUGH_CAP", None)
        request = {
            "argv": [sys.executable, "-m", "dirough", *x["argv"]],
            "cwd": str(self.root),
            "env": env,
            "timeout": self.CHILD_TIMEOUT,
        }
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        reply = json.loads(self._spawner.stdout.readline())
        self._children_kb = reply["children_maxrss_kb"]
        return reply["rc"], reply["stdout"].encode("utf-8"), reply["stderr"].encode("utf-8")

    def peak_rss_mb(self) -> float:
        """The largest child's peak, once children have run."""
        if self._children_kb is None:
            return super().peak_rss_mb()
        return self._children_kb / 1024.0

    def close(self) -> None:
        if self._spawner is None:
            return
        self._spawner.stdin.close()
        try:
            self._spawner.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._spawner.kill()
            self._spawner.wait()
        self._spawner = None

    def _in_process(self, argv):
        from dirough import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(list(argv))
        return rc, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")

    def check(self, index, x, out):
        import jsonschema

        rc, stdout, stderr = out
        if rc != 0 or stderr:
            return [f"{x['cmd']}: exit {rc}, stderr {stderr[-200:]!r}"]
        data = json.loads(stdout)
        schema = (self.root / "src" / "dirough" / "schemas" / SCHEMAS[x["cmd"]]).read_text()
        try:
            jsonschema.validate(data, json.loads(schema))
        except jsonschema.ValidationError as exc:
            return [f"{x['cmd']}: output fails {SCHEMAS[x['cmd']]}: {exc.message}"]
        if x["cmd"] == "fixture":
            return [] if data["exact_after_errata"] else ["fixture: not exact after errata"]
        if x["cmd"] == "acp-audit":
            failing = [v["law"] for v in data["laws"] if v["tier"] == 1 and not v["holds"]]
            return [f"acp-audit: tier-1 laws fail: {failing}"] if failing else []
        if x["cmd"] == "audit-claims":
            return self._claims_check(x, data)
        if x["n"] <= self.ORACLE_MAX_N and x["cmd"] != "groupoid-laws":
            return self._oracle_check(x, data)
        # beyond the oracles' reach, and for the laws, which have no oracle:
        # the cold output must equal an in-process run byte for byte
        if self._in_process(x["argv"])[1] != stdout:
            return [f"{x['cmd']}: output differs from an in-process run"]
        return []

    def _claims_check(self, x, data):
        """No tier-1 claim fails and every tier-2 witness replays."""
        from dirough.audit import AuditInstance, replay_witness
        from dirough.grpd import ChoiceStrategy, build_updir_groupoid
        from dirough.relsys import parse_relation

        s = parse_relation(x["relation"])
        # the groupoid `audit claims --rel` builds for an up-directed system
        inst = AuditInstance("given", s, build_updir_groupoid(s, ChoiceStrategy.min_index()))
        bad = []
        for r in data["results"]:
            if r["status"] != "fail":
                continue
            if r["tier"] == 1:
                bad.append(f"audit-claims: tier-1 claim {r['claim']} fails")
            elif not replay_witness(r["claim"], inst, r["witness"]):
                bad.append(f"audit-claims: witness of {r['claim']} does not replay")
        return bad

    def _oracle_check(self, x, data):
        from dirough.grpd import ChoiceStrategy, build_updir_groupoid
        from dirough.relsys import parse_relation

        O = self.oracles
        cmd, n = x["cmd"], x["n"]
        s = parse_relation(x["relation"])
        U = list(s.labels)
        P = [(s.labels[a], s.labels[b]) for a, b in s.pairs()]
        fs = lambda names: frozenset(names)  # noqa: E731
        if cmd == "relation-check":
            ok = data["profile"]["up_directed"] == O.is_up_directed(U, P)
        elif cmd == "approx-cud":
            A = fs(data["set"])
            ok = (fs(data["lower"]), fs(data["upper"])) == (
                O.cud_lower(U, P, A),
                O.cud_upper_pointwise(U, P, A),
            )
        elif cmd == "granules-cud":
            ok = {fs(m) for m in data["members"]} == set(O.cud_family(U, P))
        elif cmd == "groupoid-build":
            ok = all(
                data["table"][a][b] == U[b]
                if s.has(a, b)
                else data["table"][a][b] in O.minimal_pseudo_joins(U, P, U[a], U[b])
                for a in range(n)
                for b in range(n)
            )
        else:
            g = build_updir_groupoid(s, ChoiceStrategy.min_index(pi_constrained=True))
            T = _table_dict(g.table)
            if cmd == "granules-subgroupoid":
                ok = {fs(m) for m in data["members"]} == set(O.closed_sets(U, T))
            elif cmd == "approx-pi":
                A = fs(data["set"])
                ok = (fs(data["lower"]), fs(data["upper"]), fs(data["anti_upper"])) == (
                    O.pi_lower(U, T, A),
                    O.generate(U, T, A),
                    O.anti_upper(U, T, A),
                )
            else:  # regions
                A, B = fs(data["A"]), fs(data["B"])
                ok = all(
                    fs(v) == O.regions(U, T, U, P, A, B, kind)
                    for kind, v in data["regions"].items()
                )
        return [] if ok else [f"{cmd}: output differs from the oracle (n={n})"]


WORKLOADS = {w.name: w for w in (AuditBulk, LatticeQueries, ClusterBands, CliCold)}
