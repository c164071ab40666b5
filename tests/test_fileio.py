"""codemix.fileio: the text-file policy and the strict JSON codec."""
import functools
import io
import json
import math
import os
import sys

import pytest

from codemix import fileio


@pytest.mark.parametrize("text", ["NaN", "[1, Infinity]", '{"a": -Infinity}'])
def test_loads_rejects_non_finite(text):
    with pytest.raises(ValueError, match="non-finite"):
        fileio.loads(text)


def test_loads_turns_deep_nesting_into_value_error():
    deep = "[" * 100_000 + "]" * 100_000
    with pytest.raises(ValueError, match="nested too deeply"):
        fileio.loads(deep)
    with pytest.raises(RecursionError):
        fileio._DECODER.decode(deep)


def decoded(parse, text):
    """What ``parse`` makes of ``text``: its value, or its error's type and message."""
    try:
        value = parse(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return type(value), value


#: Before and after a value: JSON's own spaces, and the non-JSON spaces \x0b, \x0c, U+00A0, U+2028.
AROUND = [("", ""), ("", " \t\r\n"), (" ", ""), ("\n", "\n")] + [
    pair for space in ("\x0b", "\x0c", "\xa0", "\u2028") for pair in ((space, ""), ("", space))
]
#: Each value in each surrounding; then trailing data, no value, non-finite constants and non-objects.
EDGES = [before + value + after for value in ('{"a": [1, "x"]}', "1", '"s"') for before, after in AROUND] + [
    "1 2", "{} []", '{"a": 1} x', "", " ", "\n", "[", '{"a"', "NaN", "Infinity", "-Infinity",
    "[1, NaN]", '{"a": -Infinity}', "null", "true", "[]", "-0", "1e400", '"\\ud800"',
]


@pytest.mark.parametrize("text", EDGES)
def test_loads_agrees_with_decode(text):
    """The scanner shortcut returns decode's value, or raises decode's exact error."""
    assert decoded(fileio.loads, text) == decoded(fileio._DECODER.decode, text)


def test_dumps_is_strict_and_keeps_non_ascii():
    assert fileio.dumps({"t": "ñ", "n": 1.5}) == '{"t": "ñ", "n": 1.5}'
    assert fileio.dumps({"b": 1, "a": 2}, sort_keys=True, indent=1) == '{\n "a": 2,\n "b": 1\n}'
    with pytest.raises(ValueError):
        fileio.dumps([math.nan])


C_MAKE_ENCODER, C_ENCODE = json.encoder.c_make_encoder, fileio._ENCODE
#: dumps' layouts: compact, a profile's and a report's.
LAYOUTS = [{}, {"indent": 1, "sort_keys": True}, {"indent": 2}]


def each_encoder(monkeypatch):
    """Make dumps build on json's C encoder, then on json's Python one, as where json has no
    C encoder (as on PyPy); yield after each. The encoders built meanwhile are dropped."""
    try:
        for make, encode in ((C_MAKE_ENCODER, C_ENCODE), (None, None)):
            monkeypatch.setattr(json.encoder, "c_make_encoder", make)
            monkeypatch.setattr(fileio, "_ENCODE", encode)
            fileio._encoder.cache_clear()
            yield
    finally:
        fileio._encoder.cache_clear()


@pytest.mark.parametrize("obj", [
    {"id": "d-1", "text": "Ngiyabonga 😀 ñ\u0301", "tags": None, "chunks": [{"lang": "zu", "confidence": 0.5}]},
    [[], {}, [{"a": [1, -2.5e-300, 1e300, True, False, None]}], "\x00\u2028\"\\"],
    {1: "int key", 1.5: "float key", True: "bool key", None: "null key"},
    "a top-level str, ünïcode and \U0001F600",
    0, -1.0, 10**400, None,
    {}, [],
    {"classes": ("en", "en,zu", "zu"), "matrix": ((3, 0, 1), (0, 2, 0), (1, 0, 5)), "total": 12},
    {"per_class": {"zu": {"precision": 0.75, "recall": 1.0, "support": 3}, "en": {"support": 0}}},
    {"version": 1, "lang": "zu", "n_min": 1, "n_max": 2, "alpha": 0.5,
     "total_per_order": {"1": 0, "2": 0}, "counts": {}},
    {"ñ": {"\"q\\": [1, "é"], "\n\u2028": {}}, "😀": "x", "\x00": [{"é": None, 2: [3], None: {"k": 1.5}, False: [], 0.5: [True]}]},
])
def test_dumps_equals_strict_json_dumps(obj, monkeypatch):
    def dumped(dump, layout):  # the text, or the error's type: mixed keys do not sort
        try:
            return dump(obj, **layout)
        except TypeError:
            return TypeError

    strict = functools.partial(json.dumps, ensure_ascii=False, allow_nan=False)
    for _ in each_encoder(monkeypatch):
        for layout in LAYOUTS:
            assert dumped(fileio.dumps, layout) == dumped(strict, layout)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_dumps_rejects_non_finite_anywhere(value, monkeypatch):
    for obj in (value, [value], {"a": {"b": [1, value]}}):
        for _ in each_encoder(monkeypatch):
            with pytest.raises(ValueError, match="not JSON compliant") as strict:
                json.dumps(obj, ensure_ascii=False, allow_nan=False)
            with pytest.raises(ValueError) as caught:
                fileio.dumps(obj)
            assert str(caught.value) == str(strict.value)
            for layout in LAYOUTS[1:]:  # only the type: 3.11's Python encoder appends the value
                with pytest.raises(ValueError):
                    fileio.dumps(obj, **layout)


def test_open_text_policy(tmp_path):
    path = tmp_path / "f.txt"
    with fileio.open_text(path, "w") as fh:
        fh.write("a\nb\n")
    assert path.read_bytes() == b"a\nb\n"
    path.write_bytes(b"\xef\xbb\xbfa\r\nb\n")
    with fileio.open_text(str(path)) as fh:
        assert fh.read() == "a\r\nb\n"


def test_open_text_passes_streams_through(monkeypatch):
    buf = io.StringIO()
    with fileio.open_text(buf, "w") as fh:
        assert fh is buf
    assert not buf.closed
    monkeypatch.setattr(sys, "stdin", io.StringIO("x"))
    with fileio.open_text("-") as fh:
        assert fh is sys.stdin
    with fileio.open_text("-", "w") as fh:
        assert fh is sys.stdout


def test_open_text_leaves_the_process_umask_alone(tmp_path, monkeypatch):
    def umask(mask):
        raise AssertionError("the umask is process-wide")

    monkeypatch.setattr(os, "umask", umask)
    with fileio.open_text(tmp_path / "new", "w") as fh:
        fh.write("x\n")
    assert (tmp_path / "new").read_bytes() == b"x\n"
