"""Every public name and class member in the package is reached from a production path.

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

The check extends to the members of every reached class: methods,
properties and annotated dataclass fields. A member is reached when reached
code, or ``tests/test_acceptance.py``, reads its name as an attribute
(``x.name``) or as a string constant (``getattr(x, "name")``); its body then
counts as reached code, to a fixpoint. A class's own statements (bases,
decorators, unannotated assignments) and its dunder methods are reached with
the class. Names are matched, not types, so here too the check can only err
towards "reached". A member that nothing reaches is read only by tests.
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

# Class members that no production path reads; each is a root of the scan.
ALLOWED_MEMBERS = {
    "query_sim.PurifiedState.validate": "the invariant check the tests run on purified states",
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


def _members(package, module, name) -> dict:
    """Member name -> its nodes: methods, properties and annotated fields of a class ``name``.

    Dunder methods are left out: they run with the class.
    """
    members = {}
    for node in package[module]["bindings"][name]:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = item.name
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                name = item.target.id
            else:
                continue
            if not (name.startswith("__") and name.endswith("__")):
                members.setdefault(name, []).append(item)
    return members


def _walk(node, skip):
    """``ast.walk`` that does not enter the nodes in ``skip``."""
    todo = [node]
    while todo:
        item = todo.pop()
        if item in skip:
            continue
        yield item
        todo.extend(ast.iter_child_nodes(item))


def _reads(package, module, node, skip=()) -> tuple:
    """(module, name) of every package name ``node`` reads, and the attribute
    names and string constants it reads; nodes in ``skip`` are not entered."""
    imports = package[module]["imports"]
    found, attrs = [], set()
    for leaf in _walk(node, set(skip)):
        if isinstance(leaf, ast.Name) and not isinstance(leaf.ctx, ast.Store):
            found.append(_resolve(package, module, leaf.id))
        elif isinstance(leaf, ast.Attribute):
            if not isinstance(leaf.ctx, ast.Store):
                attrs.add(leaf.attr)
            if isinstance(leaf.value, ast.Name):
                source, name = imports.get(leaf.value.id, (None, ""))
                if name is None:  # an attribute of a package module
                    found.append(_resolve(package, source, leaf.attr))
        elif isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
            attrs.add(leaf.value)
    return [f for f in found if f is not None], attrs


def reached(package, roots, member_roots=(), attrs=()) -> tuple:
    """(every reachable (module, name), every reachable (module, class, member)).

    Reached from the roots, the name-less statements and the ``member_roots``
    (module, class, member); ``attrs`` are names read outside the package.
    """
    seen, seen_members, attrs = set(), set(), set(attrs)
    names = [_resolve(package, *root) for root in roots]
    members = list(member_roots)
    code = [(module, node, ()) for module, entry in package.items() for node in entry["loose"]]
    while names or members or code:
        for module, node, skip in code:
            found, read = _reads(package, module, node, skip)
            names += found
            attrs |= read
        code = []
        for module, name in set(names) - seen - {None}:
            seen.add((module, name))
            skip = [n for ns in _members(package, module, name).values() for n in ns]
            code += [(module, node, skip) for node in package[module]["bindings"][name]]
        for module, name, member in set(members) - seen_members:
            seen_members.add((module, name, member))
            code += [(module, node, ()) for node in _members(package, module, name)[member]]
        names = []
        members = [(module, name, member) for module, name in seen
                   for member in _members(package, module, name)
                   if member in attrs and (module, name, member) not in seen_members]
    return seen, seen_members


def unreached_public(package, roots) -> list:
    """``module.name`` of each public name that no root reaches, sorted."""
    seen, _ = reached(package, roots)
    return sorted(f"{module}.{name}" for module, entry in package.items()
                  for name in entry["public"] if (module, name) not in seen)


def unreached_members(package, roots, member_roots=(), attrs=()) -> list:
    """``module.Class.member`` of each member of a reached class that nothing reaches, sorted."""
    seen, seen_members = reached(package, roots, member_roots, attrs)
    return sorted(f"{module}.{name}.{member}" for module, name in seen
                  for member in _members(package, module, name)
                  if (module, name, member) not in seen_members)


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


def attribute_reads(text: str) -> set:
    """Every name a test file reads as an attribute or holds as a string constant."""
    reads = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            reads.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads.add(node.value)
    return reads


def package_sources() -> dict:
    return {path.stem: path.read_text(encoding="utf-8") for path in SOURCE_DIR.glob("*.py")}


PLANTED = {
    "__init__": '"""A package."""\n__version__ = "1"\n',
    "__main__": "from .cli import main\n\nmain()\n",
    "cli": ("from . import __version__\nfrom .core import used as run\n__all__ = ['main']\n"
            "def main():\n    return run(__version__)\n"),
    "core": ("from . import util\n__all__ = ['used', 'dead', 'LIMIT', 'unread', 'Box']\n"
             "LIMIT = 3\nunread = 4\n"
             "class Box:\n    size: int\n    label: str\n"
             "    def __len__(self):\n        return self.size\n"
             "    def grow(self):\n        return len(self) + 1\n"
             "    def show(self):\n        return self.label\n"
             "    @property\n    def width(self):\n        return LIMIT\n"
             "def used(v):\n    return util.helper() + Box().grow() + getattr(v, 'width')\n"
             "def dead():\n    return used('x') + Box().show()\n"),
    "util": "__all__ = ['helper', 'spare']\ndef helper():\n    return 1\ndef spare():\n    pass\n",
}


def test_checker_flags_a_planted_dead_function():
    # dead() calls a live function, which does not make dead() live itself
    package = parse_package(PLANTED)
    assert unreached_public(package, []) == ["core.dead", "core.unread", "util.spare"]
    assert unreached_public(package, [("util", "spare")]) == ["core.dead", "core.unread"]


def test_checker_flags_a_planted_test_only_method():
    # show() is read only by dead(), and label only by show(); a dunder runs
    # with its class, and a string constant reads width, whose body is then
    # what reaches LIMIT
    package = parse_package(PLANTED)
    assert unreached_members(package, []) == ["core.Box.label", "core.Box.show"]
    assert unreached_members(package, [], [("core", "Box", "show")]) == []
    assert unreached_members(package, [], (), {"label"}) == ["core.Box.show"]


def test_acceptance_roots_read_imports_and_module_attributes():
    text = ("from querylab import core\nfrom querylab.util import helper\n"
            "import numpy as np\n\ndef test_x():\n    core.dead(np.e)\n")
    assert sorted(acceptance_roots(text, parse_package(PLANTED))) == [("core", "dead"),
                                                                     ("util", "helper")]


def production_scan() -> tuple:
    """The package, its roots, and the names the acceptance tests read as attributes."""
    package = parse_package(package_sources())
    text = (TESTS / "test_acceptance.py").read_text(encoding="utf-8")
    return package, [("cli", "main")] + acceptance_roots(text, package), attribute_reads(text)


def test_every_public_name_is_reached():
    package, roots, _ = production_scan()
    unreached = unreached_public(package, roots)
    assert [n for n in unreached if n not in ALLOWED] == []
    # an allowed name that a production path reads no longer needs its entry
    assert sorted(ALLOWED) == [n for n in unreached if n in ALLOWED]


def test_every_class_member_is_reached():
    package, roots, attrs = production_scan()
    allowed = [tuple(name.split(".")) for name in ALLOWED_MEMBERS]
    assert unreached_members(package, roots, allowed, attrs) == []
    # an allowed member that a production path reads no longer needs its entry
    unreached = unreached_members(package, roots, (), attrs)
    assert [n for n in sorted(ALLOWED_MEMBERS) if n not in unreached] == []
