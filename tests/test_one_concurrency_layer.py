"""The one concurrency layer is the pin in ``experiments._map_cells``.

Every unit of work runs, in order, through ``_map_cells``, which holds the
one-OpenBLAS-thread pin around its cells. A pin anywhere else in the package
would be a unit that runs outside it, and a thread or process pool anywhere
at all would be a second layer.

``blas.one_thread_at_load`` is not a second layer: it runs no work and pins
nothing. It only sets the thread count OpenBLAS starts with, before numpy
loads, so it belongs at the process entry point, ``__main__``, and nowhere
else; where it runs later it does nothing.
"""

import ast
import pathlib

TESTS = pathlib.Path(__file__).parent
SOURCES = sorted((TESTS.parent / "src" / "querylab").glob("*.py"))

NAMES = ("one_blas_thread", "one_thread_at_load",
         "ThreadPoolExecutor", "ProcessPoolExecutor", "Thread")

# The only references the package may hold: the import that brings the pin
# into ``experiments``, its use in ``_map_cells``, and the load-time call in
# ``__main__``. The definitions in ``blas`` are defs, not references. No
# pool or thread is expected anywhere.
EXPECTED = {
    "experiments imports one_blas_thread",
    "experiments._map_cells uses one_blas_thread",
    "__main__ uses one_thread_at_load",
}


def concurrency_references(source: str, module: str) -> list:
    """Each reference to a name in ``NAMES``, as ``"<scope> imports|uses <name>"``.

    The scope is the module, or the qualified function or class the reference
    sits in (its decorators included). Names, attributes (``blas.one_blas_thread``)
    and import aliases count; string constants do not.
    """
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.alias) and child.name.split(".")[-1] in NAMES:
                found.append(f"{scope} imports {child.name.split('.')[-1]}")
            elif isinstance(child, ast.Name) and child.id in NAMES:
                found.append(f"{scope} uses {child.id}")
            elif isinstance(child, ast.Attribute) and child.attr in NAMES:
                found.append(f"{scope} uses {child.attr}")
            visit(child, scope)

    visit(ast.parse(source), module)
    return found


def test_checker_finds_every_reference():
    source = (
        "import concurrent.futures.ThreadPoolExecutor\n"
        "from .blas import one_blas_thread as pin\n"
        "from . import blas\n"
        "__all__ = ['one_blas_thread']\n"
        "def one_blas_thread():\n"
        "    return None\n"
        "@one_blas_thread()\n"
        "def sweep(cells):\n"
        "    return cells\n"
        "class Runner:\n"
        "    def run(self):\n"
        "        with blas.one_blas_thread():\n"
        "            return ThreadPoolExecutor(2)\n"
        "    def spawn(self):\n"
        "        threading.Thread(target=sweep).start()\n"
        "        return cf.ProcessPoolExecutor(2)\n"
    )
    assert concurrency_references(source, "m") == [
        "m imports ThreadPoolExecutor",
        "m imports one_blas_thread",
        "m.sweep uses one_blas_thread",
        "m.Runner.run uses one_blas_thread",
        "m.Runner.run uses ThreadPoolExecutor",
        "m.Runner.spawn uses Thread",
        "m.Runner.spawn uses ProcessPoolExecutor",
    ]


def test_pin_and_pool_live_only_in_map_cells():
    found = {ref for path in SOURCES
             for ref in concurrency_references(path.read_text(encoding="utf-8"), path.stem)}
    assert found == EXPECTED
