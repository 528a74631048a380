"""Every public name in the package sources is reached from a production path.

A static, AST-based check. The roots are ``cli.main``, every module-level
statement that binds no name (``if __name__ == "__main__": ...``, the call in
``__main__.py``), and every package name that ``tests/test_acceptance.py``
imports or reads off an imported package module. A module-level def, class
or assignment that is reached reaches every module-level name it reads:
names of its own module, names bound by ``from .x import y``, and ``x.attr``
reads of a package module ``x``. A local name that shadows a module-level one
counts as a read of it, so the check can only err towards "reached".

A public name (one listed in ``__all__``) that nothing reaches is API only
tests call; it belongs in ``tests/reference.py``, not in the package.
"""

import ast
import pathlib

PACKAGE = "querylab"
TESTS = pathlib.Path(__file__).parent
SOURCE_DIR = TESTS.parent / "src" / PACKAGE

# Public names that no production path reads, each with the reason it stays.
ALLOWED = {
    "query_sim.circuit_to_text": "writes the circuit-run input format the README documents",
    "amplitude.ESTIMATE_BUDGET_CONSTANT": "a documented bound (README, Calibrated constants)",
}


def _import_bindings(node, modules) -> dict:
    """Local name -> (module, name) for a package import; name None binds a module."""
    if not isinstance(node, ast.ImportFrom):
        return {}
    if node.level == 1:
        source = node.module
    elif node.level == 0 and (node.module or "").split(".")[0] == PACKAGE:
        source = node.module[len(PACKAGE) + 1:] or None
    else:
        return {}
    out = {}
    for alias in node.names:
        if source is not None:
            target = (source, alias.name)
        elif alias.name in modules:
            target = (alias.name, None)
        else:
            target = ("__init__", alias.name)
        out[alias.asname or alias.name] = target
    return out


def parse_package(sources: dict) -> dict:
    """Module name -> its bindings, package imports, ``__all__`` and name-less statements.

    ``sources`` maps a module name (``__init__`` for the package itself) to its text.
    """
    package = {}
    for name, text in sources.items():
        bindings, imports, public, loose = {}, {}, [], []
        for node in ast.parse(text).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imports.update(_import_bindings(node, sources))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bindings.setdefault(node.name, []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            bindings.setdefault(leaf.id, []).append(node)
                            if leaf.id == "__all__":
                                public = list(ast.literal_eval(node.value))
            else:
                loose.append(node)
        package[name] = {"bindings": bindings, "imports": imports, "public": public,
                         "loose": loose}
    return package


def _resolve(package, module, name):
    """The (module, name) that defines ``name`` as seen from ``module``, or None."""
    while module in package:
        entry = package[module]
        if name in entry["bindings"]:
            return module, name
        if name not in entry["imports"]:
            return None
        module, name = entry["imports"][name]
        if name is None:
            return None  # a module object, not a name in it
    return None


def _reads(package, module, node) -> list:
    """(module, name) of every package name that ``node`` reads."""
    imports = package[module]["imports"]
    found = []
    for leaf in ast.walk(node):
        if isinstance(leaf, ast.Name) and not isinstance(leaf.ctx, ast.Store):
            found.append(_resolve(package, module, leaf.id))
        elif isinstance(leaf, ast.Attribute) and isinstance(leaf.value, ast.Name):
            source, name = imports.get(leaf.value.id, (None, ""))
            if name is None:  # an attribute of a package module
                found.append(_resolve(package, source, leaf.attr))
    return [f for f in found if f is not None]


def reached(package, roots) -> set:
    """Every (module, name) reachable from the roots and the name-less statements."""
    todo = [r for r in (_resolve(package, *root) for root in roots) if r is not None]
    for module, entry in package.items():
        for node in entry["loose"]:
            todo += _reads(package, module, node)
    seen = set()
    while todo:
        item = todo.pop()
        if item in seen:
            continue
        seen.add(item)
        module, name = item
        for node in package[module]["bindings"][name]:
            todo += _reads(package, module, node)
    return seen


def unreached_public(package, roots) -> list:
    """``module.name`` of each public name that no root reaches, sorted."""
    seen = reached(package, roots)
    return sorted(f"{module}.{name}" for module, entry in package.items()
                  for name in entry["public"] if (module, name) not in seen)


def acceptance_roots(text: str, package) -> list:
    """Package names a test file imports, or reads off an imported package module."""
    tree = ast.parse(text)
    roots, module_names = [], {}
    for node in ast.walk(tree):
        for local, (module, name) in _import_bindings(node, package).items():
            if name is None:
                module_names[local] = module
            else:
                roots.append((module, name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in module_names):
            roots.append((module_names[node.value.id], node.attr))
    return roots


def package_sources() -> dict:
    return {path.stem: path.read_text(encoding="utf-8") for path in SOURCE_DIR.glob("*.py")}


PLANTED = {
    "__init__": '"""A package."""\n__version__ = "1"\n',
    "__main__": "from .cli import main\n\nmain()\n",
    "cli": ("from . import __version__\nfrom .core import used as run\n__all__ = ['main']\n"
            "def main():\n    return run(__version__)\n"),
    "core": ("from . import util\n__all__ = ['used', 'dead', 'LIMIT', 'unread']\n"
             "LIMIT = 3\nunread = 4\n"
             "def used(v):\n    return util.helper() + LIMIT\n"
             "def dead():\n    return used('x')\n"),
    "util": "__all__ = ['helper', 'spare']\ndef helper():\n    return 1\ndef spare():\n    pass\n",
}


def test_checker_flags_a_planted_dead_function():
    # dead() calls a live function, which does not make dead() live itself
    package = parse_package(PLANTED)
    assert unreached_public(package, []) == ["core.dead", "core.unread", "util.spare"]
    assert unreached_public(package, [("util", "spare")]) == ["core.dead", "core.unread"]


def test_acceptance_roots_read_imports_and_module_attributes():
    text = ("from querylab import core\nfrom querylab.util import helper\n"
            "import numpy as np\n\ndef test_x():\n    core.dead(np.e)\n")
    assert sorted(acceptance_roots(text, parse_package(PLANTED))) == [("core", "dead"),
                                                                     ("util", "helper")]


def test_every_public_name_is_reached():
    package = parse_package(package_sources())
    roots = [("cli", "main")]
    roots += acceptance_roots((TESTS / "test_acceptance.py").read_text(encoding="utf-8"),
                              package)
    unreached = unreached_public(package, roots)
    assert [n for n in unreached if n not in ALLOWED] == []
    # an allowed name that a production path reads no longer needs its entry
    assert sorted(ALLOWED) == [n for n in unreached if n in ALLOWED]
