"""Rules of the package source, checked on its syntax trees."""

from __future__ import annotations

import ast
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "ciot"
WORD_CLASSES = {"PrimType", "ComponentKind", "EventDirection", "ActionKind"}


def _trees() -> list[tuple[str, ast.AST]]:
    return [(p.name, ast.parse(p.read_text(encoding="utf-8"), str(p))) for p in sorted(PACKAGE.glob("*.py"))]


def test_every_error_code_is_in_the_readme_table():
    codes = {
        node.value
        for _, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(r"E_[A-Z_]+", node.value)
    }
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Error codes\n", 1)[1].split("\n## ", 1)[0]
    table = re.findall(r"^\| `(E_[A-Z_]+)` \|", section, re.MULTILINE)
    assert len(table) == len(set(table))
    assert codes == set(table)


def test_no_model_word_is_compared_by_identity():
    """A model built through the API may hold any equal string, so a fixed
    word is compared by value."""

    def is_word(node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in WORD_CLASSES

    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        for op, left, right in zip(node.ops, [node.left, *node.comparators], node.comparators)
        if isinstance(op, (ast.Is, ast.IsNot)) and (is_word(left) or is_word(right))
    ]
    assert found == []


def test_every_record_has_a_docstring_and_the_parser_defines_none():
    """Each record class says what it holds. The parser's syntax tree nodes
    are written once and read once, so they are NamedTuples."""
    records = [
        (name, node)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(b) in ("Record", "FrozenRecord") for b in node.bases)
    ]
    # The metamodel's alone are 17: a rule that finds none checks nothing.
    assert len(records) > 20
    assert [f"{name}:{node.name}" for name, node in records if ast.get_docstring(node) is None] == []
    assert [f"{name}:{node.name}" for name, node in records if name == "parser.py"] == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """The records are plain classes, so a fresh interpreter, with no
    ``site`` to load modules of its own, imports the command without
    ``dataclasses`` and ``inspect``."""
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import ciot.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


_REIMPORT = """
import gc, sys, tracemalloc, weakref

def fresh():
    for name in [m for m in sys.modules if m.partition(".")[0] == "ciot"]:
        del sys.modules[name]
    import ciot, ciot.cli
    return ciot

tracemalloc.start()
first = weakref.ref(fresh().guards.compile_expr)
gc.collect()
held = tracemalloc.get_traced_memory()[0]
fresh()
fresh()
gc.collect()
print(first() is None, (tracemalloc.get_traced_memory()[0] - held) // 2)
"""


def test_a_fresh_import_frees_the_copy_it_replaces():
    """Importing ciot afresh, as a benchmark set-up does, leaves the old
    modules to the collector: no process-wide cache (``typing``'s, for one)
    holds an old class, whose methods would keep its module alive. Each copy
    held about 120 KB while one did."""
    code = f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r})\n" + _REIMPORT
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    freed, growth = out.split()
    assert freed == "True"
    assert int(growth) < 20_000
