"""The tolerance table is the one place for numeric thresholds."""

import ast
import dataclasses
from pathlib import Path

import wba
from wba.entanglement import SearchBudget

PACKAGE = Path(wba.__file__).parent


def _small_floats(path: Path):
    """(line, value) of each float literal x with 0 < |x| <= 1e-6."""
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                and 0 < abs(node.value) <= 1e-6):
            yield node.lineno, node.value


def test_thresholds_are_written_only_in_the_table():
    found = [f"{path.name}:{line}: {value!r}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "tolerances.py"
             for line, value in _small_floats(path)]
    assert found == []


def test_table_is_a_leaf():
    tree = ast.parse((PACKAGE / "tolerances.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_search_budget_holds_no_tolerance():
    names = [field.name for field in dataclasses.fields(SearchBudget)]
    assert names == ["restarts", "iterations", "samples", "seed"]
