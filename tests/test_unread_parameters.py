"""Every parameter of every function in the package sources is read by its body."""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).parent
SOURCES = sorted((TESTS.parent / "src" / "querylab").glob("*.py"))

# Parameters that no body reads, each with the reason it stays.
ALLOWED = {}


def _is_abstract(func) -> bool:
    return any((isinstance(d, ast.Name) and d.id == "abstractmethod")
               or (isinstance(d, ast.Attribute) and d.attr == "abstractmethod")
               for d in func.decorator_list)


def unread_parameters(source: str, module: str) -> list:
    """Qualified ``module.function.parameter`` names that the function never reads.

    Covers module-level functions, methods and nested functions (qualified
    through their enclosing classes and functions) and lambdas. ``self``,
    ``cls`` and the parameters of ``@abstractmethod`` hooks are exempt. A read
    anywhere inside the body counts, nested functions included, so the check
    can only err towards "read".
    """
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, prefix)
                continue
            name = f"{prefix}.{getattr(child, 'name', '<lambda>')}"
            body = child.body if isinstance(child.body, list) else [child.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
            args = child.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            if isinstance(child, ast.Lambda) or not _is_abstract(child):
                found.extend(f"{name}.{p.arg}" for p in params
                             if p.arg not in ("self", "cls") and p.arg not in read)
            visit(child, name)

    visit(ast.parse(source), module)
    return found


def test_checker_flags_an_unread_parameter():
    source = (
        "from abc import ABC, abstractmethod\n"
        "def f(a, b, *args, c=1, **kw):\n"
        "    return a + kw['x']\n"
        "class K(ABC):\n"
        "    @abstractmethod\n"
        "    def hook(self, state): ...\n"
        "    def method(self, state, n):\n"
        "        def inner(m, unused):\n"
        "            return m + n\n"
        "        return inner\n"
        "    @classmethod\n"
        "    def make(cls, x):\n"
        "        return cls\n"
        "g = lambda u, v: u\n"
    )
    assert unread_parameters(source, "m") == [
        "m.f.b", "m.f.c", "m.f.args",
        "m.K.method.state", "m.K.method.inner.unused",
        "m.K.make.x",
        "m.<lambda>.v",
    ]


def test_allow_list_entries_are_still_unread():
    # an entry whose parameter is gone or now read is stale
    found = {name for path in SOURCES
             for name in unread_parameters(path.read_text(encoding="utf-8"), path.stem)}
    assert set(ALLOWED) <= found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unread_parameters(path):
    found = unread_parameters(path.read_text(encoding="utf-8"), path.stem)
    assert [name for name in found if name not in ALLOWED] == []
