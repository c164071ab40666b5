"""codemix.fileio: the text-file policy and the strict JSON codec."""
import io
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
    with pytest.raises(ValueError, match="nested too deeply"):
        fileio.loads("[" * 100_000 + "]" * 100_000)


def test_dumps_is_strict_and_keeps_non_ascii():
    assert fileio.dumps({"t": "ñ", "n": 1.5}) == '{"t": "ñ", "n": 1.5}'
    assert fileio.dumps({"b": 1, "a": 2}, sort_keys=True, indent=1) == '{\n "a": 2,\n "b": 1\n}'
    with pytest.raises(ValueError):
        fileio.dumps([math.nan])


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
