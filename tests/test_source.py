"""Checks on the package source that the interpreter does not make."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "maxminfre").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_and_no_import_from_tests(path):
    """``python -O`` strips ``assert`` statements, so a check the package
    needs raises instead; and the package must not read the tests' code."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert asserts == [], f"assert statements at lines {asserts}"
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
    from_tests = [name for name in imported if name.split(".")[0] == "tests"]
    assert from_tests == [], f"imports from tests: {from_tests}"


# Creating a dataclass costs about 1 ms at import, so a plain-data record is a
# NamedTuple; each of these two says at its definition why it cannot be one.
DATACLASSES = {"ReductionState", "Statistics"}


def _is_dataclass_decorator(node) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
    return name == "dataclass"


def test_dataclasses_only_where_a_namedtuple_cannot_serve():
    assert SOURCES, "no package sources found"
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(map(_is_dataclass_decorator, node.decorator_list))
        ]
    assert sorted(found) == sorted(DATACLASSES), "@dataclass not on exactly the two classes"
