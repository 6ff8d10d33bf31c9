"""Every exported name is used by the package itself, or is kept on purpose.

A name in `dercent.__all__` counts as used when some module of the
package, other than `__init__.py`, loads it outside its own definition:
by its bare name, or as an attribute of a package module (`linalg.rank`).
Type annotations do not count, and neither does a local variable or
parameter that shares the name.  A name that no command or check uses
but that an open ROADMAP item plans to use is listed in `KEPT` with the
reason.
"""

import ast
from pathlib import Path

import dercent

PACKAGE = Path(dercent.__file__).resolve().parent

KEPT = {
    "conjugate": "ROADMAP item 9: the rank theorem for conjugated locally "
    "nilpotent derivations",
    "PolyAutomorphism": "ROADMAP item 9: the automorphism that conjugate takes",
}


def bound_locally(function) -> set[str]:
    """The parameters of a function and the names it assigns."""
    args = function.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a}
    names |= {
        n.id for n in ast.walk(function)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
    }
    return names


class Loads(ast.NodeVisitor):
    """The package-level names a piece of a module loads."""

    def __init__(self, modules: set[str]):
        self.modules = modules  # package modules bound by `from . import m`
        self.scopes: list[set[str]] = []
        self.found: set[str] = set()

    def visit_FunctionDef(self, node):
        # decorators and defaults are evaluated where the function is defined
        args = node.args
        for outer in node.decorator_list + args.defaults + args.kw_defaults:
            if outer is not None:
                self.visit(outer)
        self.scopes.append(bound_locally(node))
        for statement in node.body:
            self.visit(statement)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self.scopes.append(bound_locally(node))
        self.visit(node.body)
        self.scopes.pop()

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and not any(node.id in s for s in self.scopes):
            self.found.add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name) and node.value.id in self.modules:
            self.found.add(node.attr)
        self.generic_visit(node)


def package_loads() -> set[str]:
    found: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        modules = {
            alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module is None
            for alias in node.names
        }
        for statement in tree.body:
            loads = Loads(modules)
            loads.visit(statement)
            own = getattr(statement, "name", None)
            found |= loads.found - {own}
    return found


LOADED = package_loads()


def test_every_exported_name_is_used_or_kept():
    unused = sorted(set(dercent.__all__) - LOADED - set(KEPT))
    assert unused == [], f"exported but used by no module: {unused}"


def test_kept_names_are_exported_and_otherwise_unused():
    assert set(KEPT) <= set(dercent.__all__)
    assert sorted(set(KEPT) & LOADED) == []
