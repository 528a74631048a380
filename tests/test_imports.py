"""Every import in the package sources and the test references is used or re-exported."""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).parent
SOURCES = sorted((TESTS.parent / "src" / "querylab").glob("*.py")) + [TESTS / "reference.py"]


def unused_imports(source: str) -> list:
    """Names bound by import statements that the module never reads.

    A name listed in ``__all__`` counts as used, and ``__future__`` imports
    bind nothing. A dotted ``import a.b`` binds ``a``.
    """
    tree = ast.parse(source)
    bound = {}
    exported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in read and name not in exported)


def test_checker_flags_an_unused_import():
    source = "import os\nimport sys\nfrom json import dumps, loads\n__all__ = ['loads']\nsys.exit\n"
    assert unused_imports(source) == [(1, "os"), (3, "dumps")]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
