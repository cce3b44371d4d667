"""Hygiene of the package surface: ``qent.__all__`` and each module's imports."""

import ast
from pathlib import Path

import pytest

import qent

MODULES = sorted(Path(qent.__file__).parent.glob("*.py"))


def test_all_is_sorted_and_unique():
    assert qent.__all__ == sorted(set(qent.__all__))


def test_all_names_resolve():
    assert [name for name in qent.__all__ if not hasattr(qent, name)] == []


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(module):
    tree = ast.parse(module.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a package re-exports what it imports by naming it in __all__
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    assert sorted(imported - used) == [], f"{module.name} imports names it never uses"
