import ast
from pathlib import Path

import afcore

README = Path(__file__).resolve().parents[1] / "README.md"


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
    walk_line = next(i for i, line in enumerate(lines, start=1) if "walk_counts" in line)
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
    for path in sorted(Path(afcore.__file__).resolve().parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            names = (alias.asname or alias.name.split(".")[0] for alias in node.names)
            unused.update((path.stem, name) for name in names if name not in used)
    assert unused == UNUSED_IMPORTS_ALLOWED
