"""Every function, method and class defined in ``src/hiercl`` is reached from
outside the tests: from a library module other than the package's
``__init__.py`` exports, from the benchmark under ``bench/`` (including the
names ``bench/tracing.py`` patches, given as strings), or as a click command.
A name that only tests reference is code no run executes: delete it, or move
it into the tests.

References are counted by name, as ``ast.Name`` ids and ``ast.Attribute``
attrs, so a method shares its count with every attribute of the same name.
The check can miss a dead method whose name is in use elsewhere, but it
does not flag one that a run reaches by name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hiercl"
BENCH = ROOT / "bench"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def referenced_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def traced_names(tree: ast.AST) -> set[str]:
    """The attribute names in ``tracer.add(owner, "name", ...)`` calls."""
    return {
        node.args[1].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add"
        and len(node.args) > 1
        and isinstance(node.args[1], ast.Constant)
        and isinstance(node.args[1].value, str)
    }


def is_click_command(node: ast.AST) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr in ("command", "group")
        for d in getattr(node, "decorator_list", ())
    )


def definitions(tree: ast.AST) -> list[str]:
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not is_click_command(node)
    ]


def unreached_names(src: Path, bench: Path) -> list[str]:
    reached = traced_names(parse(bench / "tracing.py"))
    for path in bench.rglob("*.py"):
        reached |= referenced_names(parse(path))
    defined = []
    for path in sorted(src.glob("*.py")):
        tree = parse(path)
        defined += [f"{path.name}:{name}" for name in definitions(tree)]
        if path.name != "__init__.py":
            reached |= referenced_names(tree)
    return [d for d in defined if d.split(":")[1] not in reached]


def test_every_library_name_is_reached_outside_the_tests():
    assert unreached_names(SRC, BENCH) == []


def test_a_name_only_tests_reach_is_found(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "__init__.py").write_text("from .mod import helper, used, traced\n")
    (src / "mod.py").write_text(
        "def used(): pass\n"
        "def helper(): return used()\n"
        "def traced(): pass\n"
        "@main.command()\n"
        "def cmd(): pass\n"
    )
    (bench / "tracing.py").write_text('tracer.add(mod, "traced", "mod.traced")\n')
    assert unreached_names(src, bench) == ["mod.py:helper"]
