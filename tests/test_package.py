"""The package's public surface: names resolved on first access are the
home modules' objects, and the list of names stays fixed."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import dirough

PUBLIC = [
    "ALL_LAWS", "AcpElement", "AuditInstance", "CLAIMS", "CapExceededError",
    "ChoiceStrategy", "Claim", "ClaimResult", "ClusterSet", "Dataset",
    "DeviationReport", "DiroughError", "ERRATA", "E_CONSEQUENCES", "GranuleFamily",
    "Groupoid", "InputFormatError", "LabelError",
    "LawAuditReport", "LawError", "LawVerdict", "NotUpDirectedError", "PgTuple",
    "REGION_KINDS", "RelationalSystem", "RoughCluster",
    "RoughTuple", "ScoreTable", "SpaceProfile", "StructureError", "ValidityReport",
    "acp", "acp_carrier", "acp_coprod", "acp_leq", "acp_neg", "acp_op",
    "approx_basic", "approx_cud", "approx_pi", "audit", "audit_acp_laws",
    "audit_claims", "bottom", "build_order_groupoid", "build_relation",
    "build_section6_report", "build_updir_groupoid", "check_claim", "check_laws",
    "check_morphism", "claim_ids", "classify", "cluster",
    "cud", "cud_family", "cud_tuple", "cudas_op", "dc_neighborhood",
    "dump_cayley", "dump_relation", "errors",
    "eth_closure", "exhaustive_cap", "fixtures", "from_id_pairs", "generate",
    "grpd", "is_closed", "is_cud", "is_up_directed",
    "law_violation", "load_cayley", "load_dataset", "load_relation",
    "neighborhood", "parse_cayley", "parse_dataset", "parse_relation", "pg_tuple",
    "piappr", "propose_clusters", "pseudo_joins", "random_system",
    "random_updirected_system", "region_table", "regions",
    "relation_of", "relsys", "replay_witness", "rough_tuple_for",
    "score_clusters", "section3_system", "section6_groupoid", "section6_system",
    "segmentation_csv", "segmentation_rows", "select_clusters", "step1_relation",
    "subgroupoids", "top", "upper_bounds", "validate_clustering",
    "validate_element", "verify_b_of_s",
]


def test_public_names_fixed():
    assert len(PUBLIC) == 105
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


# --- one error class per fault ----------------------------------------------


def _out_of_universe_cases():
    """case id -> (call, error class): each public function that takes a set or an
    element id, fed a set just outside the universe or the ids -1 and n, and
    the label faults of both universe holders."""
    from dirough import cluster, cud, fixtures, grpd, piappr, regions, relsys
    from dirough.errors import LabelError, LawError

    s, g = fixtures.section6_system(), fixtures.section6_groupoid()
    refl = relsys.from_id_pairs(("x", "y"), [(0, 0), (1, 1), (0, 1)])
    A, R = 1 << s.n, 1 << refl.n  # g has the labels of s
    sets = {
        "approx_basic": lambda: relsys.approx_basic(s, A, "l"),
        "basic_bounds": lambda: relsys.basic_bounds(s, A),
        "dc_neighborhood": lambda: relsys.dc_neighborhood(s, A, 0),
        "is_cud": lambda: relsys.is_cud(s, A),
        "eth_closure": lambda: cud.eth_closure(s, A),
        "approx_cud": lambda: cud.approx_cud(s, A, "u"),
        "cud_tuple": lambda: cud.cud_tuple(s, A),
        "cudas_op": lambda: cud.cudas_op(s, A, 0, "oplus"),
        "generate": lambda: grpd.generate(g, A),
        "is_closed": lambda: grpd.is_closed(g, A),
        "approx_pi": lambda: piappr.approx_pi(g, A, "l_pi"),
        "pg_tuple": lambda: piappr.pg_tuple(g, A),
        "region_table": lambda: regions.region_table(g, s, 0, A),
        "rough_tuple_for-basic": lambda: cluster.rough_tuple_for(s, None, A, "basic"),
        "rough_tuple_for-cud": lambda: cluster.rough_tuple_for(s, None, A, "cud"),
        "rough_tuple_for-cud-reflexive": lambda: cluster.rough_tuple_for(refl, None, R, "cud"),
        "rough_tuple_for-pi": lambda: cluster.rough_tuple_for(s, g, A, "pi"),
    }
    ids = {
        "neighborhood": lambda x: relsys.neighborhood(s, x),
        "dc_neighborhood": lambda x: relsys.dc_neighborhood(s, 0, x),
        "upper_bounds-left": lambda x: relsys.upper_bounds(s, x, 0),
        "upper_bounds-right": lambda x: relsys.upper_bounds(s, 0, x),
        "pseudo_joins-left": lambda x: grpd.pseudo_joins(s, x, 0),
        "pseudo_joins-right": lambda x: grpd.pseudo_joins(s, 0, x),
        "check_morphism": lambda x: relsys.check_morphism([x] * s.n, s, s),
    }
    labels = {
        "system-unknown": lambda: s.id("zz"),
        "system-mask-unknown": lambda: s.mask(["a", "zz"]),
        "system-duplicate": lambda: relsys.RelationalSystem(("a", "a"), (0, 0)),
        "build_relation-duplicate": lambda: relsys.build_relation(["a", "a"], []),
        "groupoid-unknown": lambda: g.id("zz"),
        "groupoid-mask-unknown": lambda: g.mask(["a", "zz"]),
        "groupoid-duplicate": lambda: grpd.Groupoid(("a", "a"), ((0, 0), (0, 0))),
        "from_id_pairs-negative-source": lambda: relsys.from_id_pairs(("a", "b"), [(-1, 0)]),
        "from_id_pairs-negative-target": lambda: relsys.from_id_pairs(("a", "b"), [(0, -1)]),
        "from_id_pairs-past-end": lambda: relsys.from_id_pairs(("a", "b"), [(5, 0)]),
    }
    cases = {f"set-{k}": (f, LawError) for k, f in sets.items()}
    cases |= {
        f"id{x}-{k}": (lambda f=f, x=x: f(x), LabelError)
        for k, f in ids.items() for x in (-1, s.n)
    }
    cases |= {f"label-{k}": (f, LabelError) for k, f in labels.items()}
    return cases


_CASES = _out_of_universe_cases()


@pytest.mark.parametrize("case", sorted(_CASES))
def test_each_fault_raises_one_class(case):
    call, error = _CASES[case]
    with pytest.raises(error):
        call()


# --- immutable records -------------------------------------------------------


def _records():
    """One instance of each record class, by class name."""
    from dirough import acp, audit, cluster, cud, fixtures, grpd, piappr, relsys

    s = relsys.RelationalSystem(("a",), (1,))
    t = cud.RoughTuple(0, 1)
    cs = cluster.ClusterSet((cluster.RoughCluster(1, t),), "cud", s)
    recs = [
        relsys.Universe(("a",)), s, relsys.SpaceProfile(True, True, True, True, True),
        relsys.GranuleFamily((0, 1), 1), t, piappr.PgTuple(0, 0, 1),
        grpd.Groupoid(("a",), ((0,),)), grpd.ChoiceStrategy("min_index"), fixtures.ERRATA[0],
        acp.AcpElement(0, 1), acp.LawVerdict("A1", 1, True), acp.LawAuditReport("formal", ()),
        audit.AuditInstance("given", s), audit.CLAIMS[0], audit.OPERATORS["l"],
        audit.ClaimResult("c", 1, "given", "pass"), audit.DeviationReport(()),
        cluster.Dataset(("r0",), ("b",), ((1.0,),)), cs.clusters[0], cs,
        cluster.ValidityReport(True, (), ()), cluster.ScoreRow(0, "lower", None),
        cluster.ScoreTable("nasd", (), cs),
    ]
    return {type(r).__name__: r for r in recs}


_RECORDS = _records()


def test_every_record_class_is_covered():
    """Each Record subclass and NamedTuple defined in the package has an
    instance above."""
    from dirough.relsys import Record

    defined = {
        name
        for mod in dirough._EXPORTS
        for name, obj in vars(getattr(dirough, mod)).items()
        if isinstance(obj, type) and obj.__module__ == f"dirough.{mod}"
        and (issubclass(obj, Record) and obj is not Record or issubclass(obj, tuple))
    }
    assert defined == set(_RECORDS) and len(defined) == 23


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_record_is_immutable_and_hashable(name):
    rec = _RECORDS[name]
    field = rec._fields[0]
    with pytest.raises(AttributeError):
        setattr(rec, field, getattr(rec, field))
    with pytest.raises(AttributeError):
        rec.no_such_field = 1
    with pytest.raises(AttributeError):
        delattr(rec, field)
    again = type(rec)(*(getattr(rec, f) for f in rec._fields))
    assert again == rec and hash(again) == hash(rec)
    assert repr(rec) == f"{name}(" + ", ".join(
        f"{f}={getattr(rec, f)!r}" for f in rec._fields) + ")"


# --- imports ----------------------------------------------------------------

# names a module imports only for others to find there: perfbench's tracer
# wraps cud.is_cud, whose home is relsys
REEXPORTS = {("cud", "is_cud")}


def _module_imports(tree: ast.Module):
    """Names bound by the module-level imports, those under a top-level if
    included; __future__ features bind nothing."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If):
            stack += node.body + node.orelse
        elif isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def test_every_module_import_is_used():
    src = Path(dirough.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.stem}.{name}"
            for name in _module_imports(tree)
            if name not in used and (path.stem, name) not in REEXPORTS
        ]
    assert unused == []


def _referenced_names(node: ast.AST):
    """Every name the node reads, as a bare name, an attribute or an import."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _module_definitions(tree: ast.Module):
    """(name, node) for each module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node


def test_every_definition_is_exported_or_used():
    src = Path(dirough.__file__).parent
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    counts: dict[str, int] = {}
    for tree in trees.values():
        for name in _referenced_names(tree):
            counts[name] = counts.get(name, 0) + 1
    dead = []
    for stem, tree in trees.items():
        for name, node in _module_definitions(tree):
            if name.startswith("__") or name in dirough._EXPORTS.get(stem, ()):
                continue  # a module hook, or public through the package
            own = sum(1 for n in _referenced_names(node) if n == name)
            if counts.get(name, 0) == own:
                dead.append(f"{stem}.{name}")
    assert dead == []


# --- one source for the exhaustive cap --------------------------------------


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(stem: str, node: ast.AST):
    for sub in ast.walk(node):
        name = sub.attr if isinstance(sub, ast.Attribute) else getattr(sub, "id", None)
        if name in ENVIRONMENT_NAMES:
            yield stem, sub.lineno, sub.col_offset


def test_environment_read_only_for_the_cap():
    """DIROUGH_CAP is the one setting read from the environment, and
    relsys.exhaustive_cap is the one place that reads it."""
    src = Path(dirough.__file__).parent
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    reads = {r for stem, tree in trees.items() for r in _environment_reads(stem, tree)}
    cap = next(f for f in trees["relsys"].body if getattr(f, "name", None) == "exhaustive_cap")
    assert reads and reads == set(_environment_reads("relsys", cap))


def _private_crossings(path: Path, stems: set[str]) -> list[str]:
    """The private names path takes from another dirough module: imported by
    name, or read as an attribute of a name an import binds to a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    crossing, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "dirough"
        ):
            for alias in node.names:
                if alias.name.startswith("_"):
                    crossing.append(f"{path.stem}: {node.module or '.'}.{alias.name}")
                elif node.module in (None, "dirough") and alias.name in stems:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.startswith("dirough."))
    crossing += [
        f"{path.stem}: {node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and node.attr.startswith("_") and not node.attr.endswith("__")
    ]
    return crossing


def test_no_private_name_crosses_modules():
    src = Path(dirough.__file__).parent
    stems = {path.stem for path in src.glob("*.py")}
    assert [c for path in sorted(src.glob("*.py")) for c in _private_crossings(path, stems)] == []


def test_private_attribute_read_is_a_crossing(tmp_path):
    """A private name read through a module binding crosses as surely as one
    imported by name."""
    path = tmp_path / "caller.py"
    path.write_text(
        "from . import cluster as cluster_mod\n"
        "import dirough.audit as audit_mod\n"
        "from .grpd import _allowed\n"
        "cluster_mod._bounds_for, audit_mod._BY_ID, cluster_mod.__name__, cluster_mod.TOP_LABEL\n"
    )
    assert _private_crossings(path, {"cluster", "audit", "grpd"}) == [
        "caller: grpd._allowed", "caller: cluster_mod._bounds_for", "caller: audit_mod._BY_ID",
    ]


# --- one way for a Cayley table into the CLI --------------------------------


@pytest.mark.parametrize("callee,caller", [
    ("load_cayley", "_read_table"), ("b_of_s_fault", "_groupoid"),
])
def test_table_meets_the_cli_in_one_function(callee, caller):
    """cli reads a Cayley table in one function and checks it against the
    B(S) rule in one, so a second table path cannot come back."""
    tree = ast.parse((Path(dirough.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    callers = {
        f.name
        for f in tree.body
        if isinstance(f, ast.FunctionDef)
        for node in ast.walk(f)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == callee
    }
    assert callers == {caller}
