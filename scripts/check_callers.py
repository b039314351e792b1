#!/usr/bin/env python3
"""Every function, class and method defined under ROOT/src must be named
somewhere in ROOT/src, ROOT/scripts or ROOT/perfbench.

Usage: python scripts/check_callers.py ROOT

A name counts where the code reads it: as an AST name, an attribute, an
import alias, or a string constant that is exactly an identifier (the
benchmark tracer patches functions by their names as strings, as in
``patch(braid, "artin_action", ...)``).  Docstrings and comments do not
count, and a definition does not name itself.  Dunder methods are called
by the language and are not checked.  Each name with no caller is printed
as module.qualname, one a line, and the exit status is 1 if there is one.
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


def references(tree: ast.AST) -> set[str]:
    """The names that the code of tree reads."""
    docstrings = _docstrings(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in docstrings):
            names.add(node.value)
    return names


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


def uncalled(root: Path) -> list[str]:
    """module.qualname of each non-dunder definition under root/src that
    nothing in the searched directories names, sorted."""
    named = set()
    defined = []
    for directory in SEARCHED:
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            named |= references(tree)
            if directory == "src":
                module = path.parent.name if path.stem == "__init__" else path.stem
                defined += definitions(tree, module)
    return sorted(qualname for qualname, name in defined
                  if not name.startswith("__") and name not in named)


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
