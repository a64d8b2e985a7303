import ast
import collections
import functools
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import afcore
from afcore import catalog, graphs, ktheory, linalg, ops, picard
from afcore.cli import main
from afcore.graphs import Edge, Graph
from afcore.report import CheckItem, CheckReport

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(afcore.__file__).resolve().parent


@functools.lru_cache(maxsize=None)
def _module_trees(package: Path = PACKAGE) -> dict:
    """Module name -> syntax tree of every module in ``package``, parsed once."""
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(package.glob("*.py"))}


def test_every_exported_name_resolves():
    missing = [name for name in afcore.__all__ if not hasattr(afcore, name)]
    assert missing == []
    assert len(set(afcore.__all__)) == len(afcore.__all__)


def test_readme_library_block_gives_the_results_its_comments_state():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    values = {}  # line number -> value of each bare expression statement
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values[node.lineno] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    lines = block.splitlines()
    walk_line = next(i for i, line in enumerate(lines, start=1) if "orbit(" in line)
    assert "# (144, 89)" in lines[walk_line - 1]
    assert values[walk_line] == (144, 89)
    assert "rank 2" in next(line for line in lines if line.startswith("grp ="))
    assert namespace["grp"].rank == 2
    assert "rep.ok" in next(line for line in lines if line.startswith("rep ="))
    assert namespace["rep"].ok


# the imported names a module keeps unused, each with its reason
UNUSED_IMPORTS_ALLOWED = {
    # perfbench/spans.py REIMPORTS wraps ops.line_graph under this name too
    ("leavitt", "line_graph"),
}


def test_no_module_imports_a_name_it_never_uses():
    unused = set()
    for module, tree in _module_trees().items():
        if module == "__init__":
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            names = (alias.asname or alias.name.split(".")[0] for alias in node.names)
            unused.update((module, name) for name in names if name not in used)
    assert unused == UNUSED_IMPORTS_ALLOWED


def unreferenced_functions(trees: dict, roots: set) -> set:
    """``module.qualname`` of each top-level function and method that nothing
    else in the package references from a place that counts.

    A function counts as referenced by its bare name in its own module, by a
    name imported with ``from .module import name``, or by ``module.name`` on
    an imported module; a method by any ``.name`` attribute read.  Re-exports
    in ``__init__.py`` and a function's references to itself do not count,
    and dunders are exempt.  A reference counts from module-level code, from
    a function in ``roots`` (reached from outside the package), from a
    dunder, or from a function that is itself referenced so, so two
    functions that only call each other are both reported.

    One limit: methods are matched by name only, so ``TensorElem.zero``
    passed while ``LeavittElem.zero`` was read.
    """
    defined = []  # "module.function" or "module.Class.method"
    referrers = collections.defaultdict(set)  # referenced name -> referring functions
    for module, tree in trees.items():
        if module == "__init__":
            continue
        local = {}  # bare name -> the function it denotes
        aliases = {}  # bare name -> the package module it denotes
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    name = alias.asname or alias.name
                    if node.module is None:
                        aliases[name] = alias.name
                    else:
                        local[name] = f"{node.module}.{alias.name}"
        units = []  # (the function a node is in, or None; the node)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                local[node.name] = f"{module}.{node.name}"
                units.append((local[node.name], node))
            elif isinstance(node, ast.ClassDef):
                units += [
                    (f"{module}.{node.name}.{item.name}" if isinstance(item, ast.FunctionDef)
                     else None, item)
                    for item in node.body
                ]
            else:
                units.append((None, node))
        for key, unit in units:
            if key is not None and not key.endswith("__"):
                defined.append(key)
            for node in ast.walk(unit):
                if isinstance(node, ast.Name) and node.id in local:
                    referrers[local[node.id]].add(key)
                elif isinstance(node, ast.Attribute):
                    referrers[f".{node.attr}"].add(key)
                    if isinstance(node.value, ast.Name) and node.value.id in aliases:
                        referrers[f"{aliases[node.value.id]}.{node.attr}"].add(key)

    def name_of(key: str) -> str:  # what a reference to ``key`` names
        return key if key.count(".") == 1 else "." + key.rpartition(".")[2]

    live: set = set()  # the functions referenced from a place that counts

    def counts(referrer) -> bool:
        return referrer is None or referrer in roots or referrer in live or referrer.endswith("__")

    while True:  # live only grows, up to a fixed point
        found = {key for key in defined if any(map(counts, referrers[name_of(key)] - {key}))}
        if found == live:
            return set(defined) - live
        live = found


# the functions kept with no caller in the package -> why each is kept
UNREFERENCED_ALLOWED = {
    "leavitt.induced_hom": "the *-homomorphism an admissible embedding induces "
    "(PAPER.md part one), the algebra-side oracle of ROADMAP items 1 and 8",
}


def _traced(spans: dict) -> set:
    """The functions the benchmark traces by name, reached from outside."""
    return {f"{layer}.{attr}" for layer, attrs in spans["TRACED"].items() for attr in attrs}


def _gate(trees: dict, spans: dict) -> set:
    """What the reference gate reports: the traced and allowed functions are
    reached from outside, so their references count."""
    traced = _traced(spans)
    return unreferenced_functions(trees, traced | set(UNREFERENCED_ALLOWED)) - traced


def test_every_function_is_referenced_traced_or_allowed(spans):
    assert _gate(_module_trees(), spans) == set(UNREFERENCED_ALLOWED)


def test_the_reference_gate_names_an_orphan_and_a_self_caller(spans, tmp_path):
    package = tmp_path / "afcore"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / "ops.py", "a", encoding="utf-8") as f:
        f.write("\n\ndef _orphan():\n    return 0\n")
        f.write("\n\ndef countdown(n):\n    return countdown(n - 1) if n else 0\n")
        f.write("\n\ndef _ping(n):\n    return _pong(n - 1) if n else 0\n")
        f.write("\n\ndef _pong(n):\n    return _ping(n - 1) if n else 1\n")
    assert _gate(_module_trees(package), spans) == set(UNREFERENCED_ALLOWED) | {
        "ops._orphan", "ops.countdown", "ops._ping", "ops._pong"}


def test_importing_the_cli_loads_no_dataclasses(capsys):
    # every command is a fresh process, and dataclasses pulls in inspect, ast,
    # dis and tokenize at import; the records are NamedTuples or slotted classes.
    # Only ``catalog suite`` and ``picard`` load the suites and the Picard code.
    src = Path(afcore.__file__).resolve().parents[1]
    script = (
        "import sys, afcore.cli, afcore.catalog, afcore; print(sorted("
        "{'dataclasses', 'inspect', 'afcore.suites', 'afcore.picard'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
    # in-process, the two commands still find what they load on first use
    assert main(["catalog", "suite", "cpq", "n=2"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["picard", "--dims", "1,2"]) == 0
    assert "picard group order: 2\n" in capsys.readouterr().out


def _cli_modules(trees: dict) -> set:
    """The modules ``import afcore.cli`` loads: the package, the CLI and what
    their module-level relative imports reach.  The imports inside a
    function (``suites``, ``picard``) load only when that command runs."""
    loaded, todo = set(), ["__init__", "cli"]
    while todo:
        module = todo.pop()
        if module in loaded:
            continue
        loaded.add(module)
        for node in trees[module].body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                todo += [node.module] if node.module else [a.name for a in node.names]
    return loaded


# the CheckReport builders kept on the command path -> why each is kept
REPORT_BUILDERS_ALLOWED = {
    "ktheory.Tower.kk_report": "`afcore ktheory` prints whether its checks pass",
    "ktheory.kk_report": "the module wrapper of Tower.kk_report that perfbench traces",
    "leavitt.ck_verify": "the relation checker `induced_hom` runs on every call",
    "catalog.verify_entry": "it reads the catalog's private entry table",
}


def test_no_report_builder_is_compiled_by_every_command():
    # a check that only a suite runs belongs in suites.py, which only
    # `catalog suite` loads, not in a module every command byte-compiles
    trees = _module_trees()
    modules = _cli_modules(trees)
    assert not {"suites", "picard"} & modules
    builders = set()
    for module in modules:
        for node in trees[module].body:
            items = [("", node)]
            if isinstance(node, ast.ClassDef):
                items = [(f"{node.name}.", item) for item in node.body]
            builders.update(
                f"{module}.{prefix}{item.name}" for prefix, item in items
                if isinstance(item, ast.FunctionDef) and item.returns is not None
                and ast.unparse(item.returns).strip("'\"") == "CheckReport"
            )
    assert builders == set(REPORT_BUILDERS_ALLOWED)


_LOOP = Graph("loop", ["v"], [Edge("e", "v", "v")])


def _report() -> CheckReport:
    rep = CheckReport("t")
    rep.add("x", True)
    return rep


# each record built twice from the same fields, its repr, a field that cannot
# be assigned (None: the record is mutable), and whether it is hashable
RECORDS = [
    pytest.param(
        lambda: catalog.CatalogEntry("loop", "one loop", (), len, abs, dict),
        "CatalogEntry(name='loop', summary='one loop', params=(), "
        "build=<built-in function len>, n_edges=<built-in function abs>, "
        "facts=<class 'dict'>, aliases=())",
        "name", True, id="CatalogEntry",
    ),
    pytest.param(
        lambda: graphs.classify(_LOOP),
        "GraphReport(name='loop', n_vertices=1, n_edges=1, sinks=(), sources=(), "
        "regular=('v',), is_functional=True, is_transposed_functional=True, "
        "is_connected=True, directed_cycle_count=1, is_cycle_graph=True)",
        "name", True, id="GraphReport",
    ),
    pytest.param(
        lambda: ktheory.bratteli(_LOOP, 2),
        "BratteliDiagram(graph=Graph('loop', |V|=1, |E|=1), depth=2, "
        "levels=((('v', 1),), (('v', 1),)), gamma=Matrix[1])",
        "depth", True, id="BratteliDiagram",
    ),
    pytest.param(
        lambda: ktheory.K0Class((1, 2), 1), "K0Class(vector=(1, 2), level=1)",
        "level", True, id="K0Class",
    ),
    pytest.param(
        lambda: ktheory.k0(_LOOP),
        "ColimitK0(graph=Graph('loop', |V|=1, |E|=1), supports=((0,),), "
        "stable_level=0, rank=1)",
        "rank", True, id="ColimitK0",
    ),
    pytest.param(
        lambda: ktheory.ATIdentity(3, ((1, 2), (2, -1)), True),
        "ATIdentity(k=3, coeffs=((1, 2), (2, -1)), verified=True)",
        "k", True, id="ATIdentity",
    ),
    pytest.param(
        lambda: linalg.QuotElem((1, -1, 1), (2, 3)), "(2 + 3*x) mod (1 - x + x^2)",
        "residue", True, id="QuotElem",
    ),
    pytest.param(
        lambda: ops.AdmissibilityVerdict(True, False, True, (), ("e",)),
        "AdmissibilityVerdict(injective=True, range_closed=False, emission_covered=True, "
        "injectivity_witnesses=(), range_witnesses=('e',), emission_witnesses=())",
        "injective", True, id="AdmissibilityVerdict",
    ),
    pytest.param(
        lambda: ops.hereditary_saturated(_LOOP, ["v"]),
        "HereditarySaturated(hereditary=True, saturated=True)",
        "saturated", True, id="HereditarySaturated",
    ),
    pytest.param(
        lambda: CheckItem("x", True), "CheckItem(label='x', ok=True, detail='')",
        "ok", True, id="CheckItem",
    ),
    pytest.param(
        lambda: ops.Morphism(_LOOP, _LOOP, {"v": "v"}, {"e": "e"}),
        "Morphism(loop->loop, |vmap|=1, |emap|=1)",
        "vmap", False, id="Morphism",
    ),
    pytest.param(
        lambda: picard.FinDimCStar((1, 2)), "FinDimCStar(dims=(1, 2))",
        "dims", True, id="FinDimCStar",
    ),
    pytest.param(
        lambda: picard.PermBimodule((1, 2), (1, 0)), "PermBimodule(dims=(1, 2), tau=(1, 0))",
        "tau", True, id="PermBimodule",
    ),
    pytest.param(
        _report, "CheckReport(title='t', items=[CheckItem(label='x', ok=True, detail='')])",
        None, False, id="CheckReport",
    ),
]


@pytest.mark.parametrize("make, text, field, hashable", RECORDS)
def test_records_keep_their_value_semantics(make, text, field, hashable):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert repr(a) == text
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    if field is not None:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
    else:  # a report is filled in after it is made, each into a list of its own
        a.items.append(CheckItem("y", False))
        assert a != b and len(b.items) == 1


# the classes that write their own equality or hashing -> why each is not a NamedTuple
OWN_VALUE_SEMANTICS_ALLOWED = {
    "graphs.Graph": "it builds its lookup indices on first read, so it cannot be a tuple",
    "linalg.Matrix": "it keeps each row's nonzero entries after its first product",
    "report.CheckReport": "items are added after it is made",
    "leavitt.LeavittElem": "a carrier whose == compares term dicts",
    "leavitt.LaurentMat2": "a carrier whose == compares term dicts",
}


def test_records_take_their_value_semantics_from_namedtuple():
    # a NamedTuple compares, hashes and prints by its fields; a class that
    # writes its own __eq__ or __hash__ states that again, unless it cannot be one
    own = {
        f"{module}.{node.name}"
        for module, tree in _module_trees().items()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and any(
            isinstance(item, ast.FunctionDef) and item.name in ("__eq__", "__hash__")
            for item in node.body)
    }
    assert own == set(OWN_VALUE_SEMANTICS_ALLOWED)
