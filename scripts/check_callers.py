#!/usr/bin/env python3
"""Every function, class and method defined under ROOT/src must be named
somewhere in ROOT/src, ROOT/scripts or ROOT/perfbench.

Usage: python scripts/check_callers.py ROOT

A top-level name f of module m counts as named where the code reaches m's
f: as a bare ``f`` inside m, as ``alias.f`` where alias is m imported
(``from pkg import m``, ``import pkg.m as alias``), or through
``from .m import f`` or ``from pkg.m import f``.  So a call of one
module's ``apply`` does not keep another module's ``apply`` alive.  A
method or a nested function counts as named where the code reads its name
at all: as an AST name, an attribute or an import alias.  Either kind
also counts as named by a string constant that is exactly that
identifier (the benchmark tracer patches functions by their names as
strings, as in ``patch(braid, "artin_action", ...)``).  Docstrings and
comments do not count, and a definition does not name itself.  Dunder
methods are called by the language and are not checked.  Each name with
no caller is printed as module.qualname, one a line, and the exit status
is 1 if there is one.
"""

import ast
import sys
from pathlib import Path

SEARCHED = ("src", "scripts", "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstrings(tree: ast.AST) -> set[int]:
    """The ids of the docstring constants of every module, class and
    function in tree."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *DEFINITIONS)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.add(id(first.value))
    return found


def _module_aliases(tree: ast.AST, modules: set[str]) -> dict[str, str]:
    """The local name of each module m in modules that tree imports as a
    module, mapped to m: ``from pkg import m``, ``from . import m``,
    ``import m`` or ``import pkg.m as alias``, each with or without an
    alias."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                module = alias.name.rpartition(".")[2]
                if module in modules and (alias.asname or module == alias.name):
                    aliases[alias.asname or module] = module
    return aliases


def references(tree: ast.AST, module: str | None,
               modules: set[str]) -> tuple[set[str], set[tuple[str, str]]]:
    """What the code of tree reads: every name, and the (m, f) pairs of
    the top-level names f of modules m that it reaches.  module is the src
    module that tree is the code of, or None for code outside src."""
    docstrings = _docstrings(tree)
    aliases = _module_aliases(tree, modules)
    names, reached = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
            reached.add((module, node.id))
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                reached.add((aliases[node.value.id], node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module:
            source = node.module.rpartition(".")[2]
            reached.update((source, alias.name) for alias in node.names)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in docstrings):
            names.add(node.value)
            reached.update((m, node.value) for m in modules)
    return names, reached


def definitions(node: ast.AST, prefix: str):
    """(qualname, name) of each function, class and method below node,
    nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFINITIONS):
            qualname = f"{prefix}.{child.name}"
            yield qualname, child.name
            yield from definitions(child, qualname)
        else:
            yield from definitions(child, prefix)


def _module(path: Path) -> str:
    return path.parent.name if path.stem == "__init__" else path.stem


def uncalled(root: Path) -> list[str]:
    """module.qualname of each non-dunder definition under root/src that
    nothing in the searched directories names, sorted."""
    files = [(directory, path) for directory in SEARCHED
             for path in sorted((root / directory).rglob("*.py"))]
    modules = {_module(path) for directory, path in files if directory == "src"}
    names, reached = set(), set()
    defined = []
    for directory, path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        module = _module(path) if directory == "src" else None
        file_names, file_reached = references(tree, module, modules)
        names |= file_names
        reached |= file_reached
        if module is not None:
            defined += definitions(tree, module)

    def named(qualname: str, name: str) -> bool:
        module, _, inner = qualname.partition(".")
        return (module, name) in reached if inner == name else name in names

    return sorted(qualname for qualname, name in defined
                  if not name.startswith("__") and not named(qualname, name))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    dead = uncalled(Path(argv[0]))
    for qualname in dead:
        print(qualname)
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
