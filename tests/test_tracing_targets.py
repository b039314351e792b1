"""Every name the benchmark tracer patches exists in ccckit.

``perfbench/tracing.py`` wraps ccckit's functions and methods by name, with
``patch(owner, "name", ...)`` and ``patch_method(cls, "name", ...)``; a
rename in ``src/`` would otherwise show only when the tracer runs.  These
tests read the tracer's source with ``ast`` and import nothing from
``perfbench``.  A call whose owner is a loop variable is left out: the
tracer guards each of those with ``hasattr`` or ``in cls.__dict__``."""

import ast
import importlib
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets() -> list[tuple[str, str, str]]:
    """(patch or patch_method, owner expression, name) of each call with a
    literal name and an owner rooted in a ccckit module it imports."""
    tree = ast.parse(TRACING.read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "ccckit"
               for alias in node.names}
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("patch", "patch_method") and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)):
            continue
        root = node.args[0]
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name) and root.id in modules:
            found.append((node.func.id, ast.unparse(node.args[0]), node.args[1].value))
    return found


TARGETS = _targets()


def _owner(expression: str):
    module, *path = expression.split(".")
    owner = importlib.import_module(f"ccckit.{module}")
    for attr in path:
        owner = getattr(owner, attr)
    return owner


@pytest.mark.parametrize("kind, owner, name", TARGETS,
                         ids=[f"{owner}.{name}" for _, owner, name in TARGETS])
def test_each_traced_name_exists(kind, owner, name):
    obj = _owner(owner)
    if kind == "patch_method":  # read as cls.__dict__[name]
        assert isinstance(obj, type) and name in obj.__dict__
    else:
        assert hasattr(obj, name)


def test_the_tracer_patches_the_rational_layers():
    assert {("patch_method", "wreath.WreathFamily", "normalize"),
            ("patch_method", "wreath.TowerHom", "eval"), ("patch", "wreath", "check_hom"),
            ("patch", "wreath", "validate_chain"), ("patch", "plhomeo", "compose"),
            ("patch", "iet", "compose")} <= set(TARGETS)
    assert len(TARGETS) >= 20
