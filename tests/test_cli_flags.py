"""The CLI's flag surface: every subcommand's options, pinned as data.

Each option is (option strings, dest, default, required, choices, type
name, nargs). A refactor of the parser may reorder --help, but it may not
add, drop or change an option.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import codemix
from codemix import cli

OUT = {(("--out",), "out", "-", False, None, None, None)}
FORMAT = {(("--format",), "format", "table", False, ("table", "json"), None, None)}
SCORING = {
    (("--profiles",), "profiles", None, True, None, None, None),
    (("--min-chars",), "min_chars", 3, False, None, "int", None),
}
CORPUS_IN = {
    (("--input",), "input", None, True, None, None, None),
    (("--input-format",), "input_format", "jsonl", False, ("jsonl", "csv"), None, None),
    (("--text-field",), "text_field", "text", False, None, None, None),
    (("--id-field",), "id_field", None, False, None, None, None),
    (("--tag-field",), "tag_field", "tags", False, None, None, None),
}
CLASSES = {(("--classes",), "classes", None, False, None, None, "+")}
SEED = {(("--seed",), "seed", 0, False, None, "int", None)}

SURFACE = {
    "train": {
        (("--lang",), "lang", None, True, None, None, None),
        (("--input",), "input", None, True, None, None, None),
        (("--out",), "out", None, True, None, None, None),
        (("--nmin",), "nmin", 1, False, None, "int", None),
        (("--nmax",), "nmax", 4, False, None, "int", None),
        (("--alpha",), "alpha", 0.5, False, None, "float", None),
    },
    "identify": SCORING | OUT | FORMAT | {(("--input",), "input", None, True, None, None, None)},
    "detect": SCORING | CORPUS_IN | OUT | {(("--chunks",), "chunks", 4, False, None, "int", None)},
    "dedupe": CORPUS_IN | OUT,
    "sample": CORPUS_IN | OUT | SEED | {
        (("--n",), "n", None, True, None, "int", None),
        (("--stratum",), "stratum", None, False, None, None, None),
        (("--pairs-of",), "pairs_of", None, False, None, None, None),
    },
    "distribution": CORPUS_IN | OUT | FORMAT | CLASSES,
    "evaluate": OUT | FORMAT | CLASSES | {
        (("--input",), "input", None, True, None, None, None),
        (("--text-field",), "text_field", "text", False, None, None, None),
        (("--id-field",), "id_field", None, False, None, None, None),
        (("--gold-field",), "gold_field", "tags", False, None, None, None),
        (("--pred-field",), "pred_field", "pred", False, None, None, None),
    },
    "baseline": CORPUS_IN | OUT | FORMAT,
    "chisq": OUT | FORMAT | {
        (("--observed",), "observed", None, True, None, "_comma_ints", None),
        (("--expected",), "expected", None, True, None, "_comma_floats", None),
    },
    "synth": OUT | SEED | {
        (("--lang-a",), "lang_a", None, True, None, None, None),
        (("--lang-b",), "lang_b", None, True, None, None, None),
        (("--source-a",), "source_a", None, True, None, None, None),
        (("--source-b",), "source_b", None, True, None, None, None),
        (("--n-docs",), "n_docs", None, True, None, "int", None),
        (("--mix-rate",), "mix_rate", 0.5, False, None, "float", None),
        (("--tokens-per-doc",), "tokens_per_doc", 12, False, None, "int", None),
    },
}


def subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_subcommands_are_pinned():
    assert list(subparsers()) == list(SURFACE)


@pytest.mark.parametrize("command", list(SURFACE))
def test_flags_are_pinned(command):
    options = {
        (tuple(a.option_strings), a.dest, a.default, a.required,
         tuple(a.choices) if a.choices else None, getattr(a.type, "__name__", None), a.nargs)
        for a in subparsers()[command]._actions
        if not isinstance(a, argparse._HelpAction)
    }
    assert options == SURFACE[command]


def test_sample_strata_exclude_each_other():
    groups = subparsers()["sample"]._mutually_exclusive_groups
    assert [sorted(a.dest for a in g._group_actions) for g in groups] == [["pairs_of", "stratum"]]


@pytest.mark.parametrize("command", list(SURFACE))
def test_help_exits_zero(command):
    package_root = str(Path(codemix.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "codemix.cli", command, "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"usage: codemix {command}")
