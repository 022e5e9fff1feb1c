"""The benchmark's traced run names functions of the package by string; a
rename or removal in `src/` would break `bench/run.py --trace 1` without a
failing test.  This reads the names from `bench/tracing.py` without running
any benchmark code."""

import ast
import importlib
from pathlib import Path

from untangling import almost_planar

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets() -> tuple:
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py assigns no TARGETS")


def test_every_traced_function_exists():
    targets = _targets()
    assert targets
    missing = [
        f"{module}.{name}"
        for module, name in targets
        if not callable(getattr(importlib.import_module(f"untangling.{module}"), name, None))
    ]
    assert missing == []


def test_assertion_failures_is_a_count():
    assert type(almost_planar.assertion_failures) is int
