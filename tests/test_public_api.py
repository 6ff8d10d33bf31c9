"""Every exported name and every module-level function and class of the
package is used by the package itself, or is kept on purpose.

A name counts as used when some module of the package, other than
`__init__.py`, loads it outside its own definition: by its bare name, or
as an attribute of a package module (`linalg.rank`).  Type annotations do
not count, and neither does a local variable or parameter that shares the
name.  A name that no command or check uses but that an open ROADMAP item
plans to use, or that the benchmark or the tests need from the package,
is listed in `KEPT` with the reason.  Helpers only the tests call live in
`tests/support.py`.
"""

import ast
from pathlib import Path

import dercent

PACKAGE = Path(dercent.__file__).resolve().parent

KEPT = {
    "conjugate": "ROADMAP item 9: the rank theorem for conjugated locally "
    "nilpotent derivations",
    "PolyAutomorphism": "ROADMAP item 9: the automorphism that conjugate takes",
    "in_row_space": "ROADMAP item 8: perfbench/spans.py traces linalg.in_row_space",
    "kernel_dimension_bounds": "the tests' brute-force bound on the kernels of "
    "the powers of a general linear D (ROADMAP items 3 and 6)",
    "centralizer_dimension_bound": "the tests' brute-force bound on the "
    "centralizer of a general linear D (ROADMAP items 3 and 6)",
    "validate_entry": "the kernel registry's own check of an entry, which "
    "ROADMAP item 2 needs",
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


def package_modules() -> dict[str, ast.Module]:
    """The parsed modules of the package, `__init__.py` left out."""
    return {
        path.stem: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def package_loads() -> set[str]:
    found: set[str] = set()
    for tree in MODULES.values():
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


def package_definitions() -> set[str]:
    """`module.name` for every module-level function and class."""
    return {
        f"{module}.{statement.name}"
        for module, tree in MODULES.items()
        for statement in tree.body
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


MODULES = package_modules()
LOADED = package_loads()
DEFINED = package_definitions()


def test_every_exported_name_is_used_or_kept():
    unused = sorted(set(dercent.__all__) - LOADED - set(KEPT))
    assert unused == [], f"exported but used by no module: {unused}"


def test_every_module_level_definition_is_used_or_kept():
    unused = sorted(
        q for q in DEFINED
        if q.rpartition(".")[2] not in LOADED | set(KEPT)
    )
    assert unused == [], f"defined but used by no module: {unused}"


def test_kept_names_are_defined_and_otherwise_unused():
    defined = {q.rpartition(".")[2] for q in DEFINED}
    assert set(KEPT) <= defined
    assert sorted(set(KEPT) & LOADED) == []
