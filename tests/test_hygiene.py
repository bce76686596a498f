"""Source hygiene: every name a doptsnf module imports is used in that
module, and only ``IntMatrix.is_pm1`` spells the +-1 entry test."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "doptsnf"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement anywhere in source and named
    nowhere else in it (``from __future__`` imports excepted)."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_leftovers():
    source = """
from __future__ import annotations
import os.path, re
from x import a, b as c

c(re)
"""
    assert unused_imports(source) == ["a", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def hand_spelled_pm1(source: str) -> list[int]:
    """Lines of source holding a (1, -1) or {1, -1} literal, in either order,
    outside the ``is_pm1`` method of a class ``IntMatrix``."""
    tree = ast.parse(source)
    owner = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "IntMatrix"
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and method.name == "is_pm1"
        for node in ast.walk(method)
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Tuple, ast.Set)) and id(node) not in owner:
            try:
                value = ast.literal_eval(node)
                spelled = len(value) == 2 and set(value) == {1, -1}
            except (ValueError, TypeError):
                continue
            if spelled:
                lines.append(node.lineno)
    return sorted(lines)


def test_hand_spelled_pm1_finds_entry_tests():
    source = """
class IntMatrix:
    def is_pm1(self):
        return set(self.entries) <= {1, -1}

def check(x, n):
    if any(v not in (1, -1) for v in x):
        return set(x) <= {-1, 1}
    return (1, 1), (0, 1, -1), (n, -1), ((1, -1),)
"""
    assert hand_spelled_pm1(source) == [7, 8, 9]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_only_is_pm1_spells_the_pm1_entry_test(path):
    assert hand_spelled_pm1(path.read_text()) == []
