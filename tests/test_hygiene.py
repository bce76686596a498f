"""Source hygiene: every name a doptsnf module imports is used in that
module, only ``IntMatrix.is_pm1`` spells the +-1 entry test, and every
doptsnf name the benchmark harness in ``layerbench/`` uses still exists."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "doptsnf"
LAYERBENCH = SRC.parent.parent / "layerbench"


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


def doptsnf_names(source: str) -> set[str]:
    """Dotted doptsnf names that source uses: the (module, attribute, ...)
    rows of a ``TARGETS`` tuple, every name imported from doptsnf, and every
    attribute chain read off such a name or off ``doptsnf`` itself."""
    tree = ast.parse(source)
    names = set()
    bound = {"doptsnf": "doptsnf"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and "TARGETS" in map(ast.unparse, node.targets):
            names.update(f"{module}.{attr}" for module, attr, *_ in ast.literal_eval(node.value))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "doptsnf":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                names.add(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            names.add(".".join([bound[node.id], *chain]))
    return names


def resolves(dotted: str) -> bool:
    """Whether dotted names an attribute chain from an importable module."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_doptsnf_names_finds_targets_imports_and_attributes():
    source = """
from doptsnf.snf import smith_normal_form
from doptsnf import cli
import doptsnf.kernels
TARGETS = (("doptsnf.verify", "ew_gram_check", "span"),)
cli.parse_factors_rle(text)
doptsnf.kernels.BACKEND
self.cli.missing
"""
    assert doptsnf_names(source) == {
        "doptsnf.snf.smith_normal_form",
        "doptsnf.cli",
        "doptsnf.verify.ew_gram_check",
        "doptsnf.cli.parse_factors_rle",
        "doptsnf.kernels",
        "doptsnf.kernels.BACKEND",
    }
    assert resolves("doptsnf.kernels.BACKEND") and resolves("doptsnf.cli.main")
    assert not resolves("doptsnf.snf.no_such_name") and not resolves("doptsnf.no_such_module")


def test_every_doptsnf_name_layerbench_uses_resolves():
    """A refactor that drops one of these names breaks the traced benchmark run."""
    names = set().union(*(doptsnf_names(p.read_text()) for p in LAYERBENCH.glob("*.py")))
    assert {"doptsnf.kernels.BACKEND", "doptsnf.cli.parse_factors_rle"} <= names
    assert "doptsnf.designs.skew_from_tournament" in names  # from spans.TARGETS
    assert sorted(n for n in names if not resolves(n)) == []
