"""A guard on the package source: every number is an int or a Fraction, and
nothing outside the standard library is imported."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src").rglob("*.py"))
# the math functions that stay exact on ints
MATH_NAMES = {"comb", "factorial", "gcd", "isqrt", "lcm"}


def test_the_guard_reads_the_package():
    assert {"chow.py", "classify.py", "cli.py", "partitions.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_is_exact_and_needs_only_the_standard_library(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant):
            assert not isinstance(node.value, (float, complex)), f"{where}: literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id != "float", f"{where}: float(...)"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name != "math", f"{where}: import math, not its functions by name"
                assert alias.name.partition(".")[0] in sys.stdlib_module_names, f"{where}: import {alias.name}"
        elif isinstance(node, ast.ImportFrom) and not node.level:  # a relative import is the package
            assert node.module.partition(".")[0] in sys.stdlib_module_names, f"{where}: from {node.module}"
            if node.module == "math":
                names = {alias.name for alias in node.names}
                assert names <= MATH_NAMES, f"{where}: from math import {sorted(names - MATH_NAMES)}"
