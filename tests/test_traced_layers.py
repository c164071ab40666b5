"""The benchmark's per-layer spans wrap codemix functions by name.

bench/spans.py reports a target that no longer exists as absent instead of
failing, so a refactor that renames or drops a traced function would
silently lose that layer's metrics. This test makes it fail instead. Once
uninstalled, the tracer leaves no wrapper behind in any codemix module.
"""
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import codemix

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


def test_uninstall_leaves_no_wrapper_behind():
    """Modules the tracer itself first imports while installing must not keep a wrapper.

    The interpreter starts as bench/run.py's traced run does, with only the
    CLI and ``special`` loaded. A wrapper is told by the module that defines
    it: other codemix functions (a ``functools.cache``, a context manager)
    carry ``__wrapped__`` too.
    """
    code = f"""
import json, sys
sys.path.insert(0, {str(SPANS.parent)!r})
import codemix.cli, codemix.special
import spans
tracer = spans.Tracer()
tracer.install()
tracer.uninstall()
print(json.dumps(sorted([name, attr] for name, module in list(sys.modules.items())
                        if name.partition(".")[0] == "codemix"
                        for attr, value in vars(module).items()
                        if getattr(value, "__module__", None) == "spans")))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(codemix.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert json.loads(done.stdout) == []
