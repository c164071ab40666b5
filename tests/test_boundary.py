"""codemix.fileio is the one module that opens files and speaks JSON.

Every other module under src/codemix is parsed with ast; a json import or
a call to open, read_text, write_text, read_bytes or write_bytes fails it.
"""
import ast
from pathlib import Path

import pytest

import codemix

PACKAGE = Path(codemix.__file__).parent
FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def boundary_crossings(source: str) -> list[str]:
    """Each json import and file-opening call in ``source``, as "line: what"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names
                      if a.name.split(".")[0] == "json"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
            found.append(f"{node.lineno}: from {node.module}")
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in FILE_CALLS:
                found.append(f"{node.lineno}: {name}()")
    return found


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "fileio.py")
)
def test_module_leaves_files_and_json_to_fileio(module):
    assert boundary_crossings((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_crossings_are_detected():
    source = "import json\nfrom json import loads\nopen('x')\nPath('x').write_text('')\n"
    assert boundary_crossings(source) == [
        "1: import json", "2: from json", "3: open()", "4: write_text()"
    ]
