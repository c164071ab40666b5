"""Module boundaries inside codemix, checked on each module's ast.

codemix.fileio is the one module that opens files and speaks JSON: in every
other module a json import or a call to open, read_text, write_text,
read_bytes or write_bytes fails. codemix.tags owns language codes and
composite tags: it imports only errors from the package, the corpus and
evaluation layers reach tags without the scorer (detector, langid), and the
language-code pattern is used nowhere else. errors.check_int holds the
integer rule: outside errors and langid, no module writes ``type(x) is int``
or ``type(x) is not int`` itself. The package imports a module
only when one of its public names is first used, so importing a module loads
no more than that module needs.
"""
import ast
import os
import subprocess
import sys
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


def tree(module: str) -> ast.AST:
    return ast.parse((PACKAGE / module).read_text(encoding="utf-8"))


def package_imports(module: str) -> set[str]:
    """The codemix modules that ``module`` imports, by name."""
    found = set()
    for node in ast.walk(tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
    return found


def test_tags_imports_only_errors():
    assert package_imports("tags.py") == {"errors"}


@pytest.mark.parametrize("module", ["corpus.py", "evaluation.py", "synth.py"])
def test_module_reaches_tags_without_the_scorer(module):
    assert "tags" in package_imports(module)
    assert package_imports(module).isdisjoint({"detector", "langid"})


def test_language_code_pattern_is_used_only_in_tags():
    def uses_pattern(module):
        return any("LANG_CODE_RE" in (getattr(n, "id", None), getattr(n, "attr", None),
                                      getattr(n, "name", None)) for n in ast.walk(tree(module)))

    assert [p.name for p in sorted(PACKAGE.glob("*.py")) if uses_pattern(p.name)] == ["tags.py"]


def int_type_tests(source: str) -> list[int]:
    """The lines of ``source`` that compare ``type(...)`` with ``int`` by ``is`` or ``is not``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) and {type(op) for op in node.ops} & {ast.Is, ast.IsNot}:
            operands = [ast.unparse(o) for o in (node.left, *node.comparators)]
            if "int" in operands and any(o.startswith("type(") for o in operands):
                found.append(node.lineno)
    return found


def test_int_type_tests_are_detected():
    source = "type(k) is not int\nint is type(k)\ntype(k) is str\ntype(k) in (int,)\nk is int\n"
    assert int_type_tests(source) == [1, 2]


def test_only_errors_and_langid_compare_types_with_int():
    writers = [p.name for p in sorted(PACKAGE.glob("*.py"))
               if int_type_tests(p.read_text(encoding="utf-8"))]
    assert set(writers) - {"errors.py", "langid.py"} == set()


def loaded_after(statement: str, prefix: str = "codemix") -> set[str]:
    """The modules starting with ``prefix`` that a fresh interpreter holds after ``statement``.

    The interpreter runs with -S, so no site hook (a .pth file) imports anything first.
    """
    code = f"import sys\n{statement}\nprint(*[m for m in sys.modules if m.startswith({prefix!r})])"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return set(done.stdout.split())


def test_importing_tags_loads_only_tags_and_errors():
    assert loaded_after("import codemix.tags") == {"codemix", "codemix.errors", "codemix.tags"}


def test_importing_evaluation_leaves_out_the_scorer_and_synth():
    loaded = loaded_after("import codemix.evaluation")
    assert "codemix.evaluation" in loaded
    assert loaded.isdisjoint({"codemix.langid", "codemix.detector", "codemix.synth"})


def test_cli_start_up_generates_no_code():
    """Records are named tuples and plain classes, so the CLI needs neither module."""
    assert loaded_after("import codemix.cli", prefix="").isdisjoint({"dataclasses", "inspect"})


@pytest.mark.parametrize("name", codemix.__all__)
def test_public_name_comes_from_its_defining_module(name):
    assert getattr(codemix, name).__module__ == f"codemix.{codemix._MODULE_OF[name]}"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from codemix import *", namespace)
    assert len(codemix.__all__) == 33
    assert set(namespace) - {"__builtins__"} == set(codemix.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        codemix.no_such_name
