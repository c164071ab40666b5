"""The benchmark's per-layer spans wrap codemix functions by name.

bench/spans.py reports a target that no longer exists as absent instead of
failing, so a refactor that renames or drops a traced function would
silently lose that layer's metrics. This test makes it fail instead.
"""
import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def traced_targets():
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS":
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no TARGETS")


@pytest.mark.parametrize("target", traced_targets())
def test_traced_function_exists(target):
    module, name = target.split(".")
    assert callable(getattr(importlib.import_module(f"codemix.{module}"), name, None))
