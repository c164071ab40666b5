"""codemix's on-disk formats: the text-file policy and strict JSON.

Every file codemix reads or writes goes through ``open_text``: input is
UTF-8 and may start with a BOM, output is UTF-8 with "\\n" line ends, and
"-" stands for stdin or stdout. JSON is strict in both directions: NaN and
Infinity are rejected on input and never written.
"""
from __future__ import annotations

import json
import os
import stat
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import IO, Any, ContextManager, Iterable, Iterator

_TEXT_MODES = {
    "r": {"encoding": "utf-8-sig", "newline": ""},
    "w": {"encoding": "utf-8", "newline": "\n"},
}


def open_text(target: str | Path | IO[str], mode: str = "r") -> ContextManager[IO[str]]:
    """Open ``target`` for text reading ("r") or writing ("w").

    "-" is stdin or stdout, and a file that is already open passes through
    unchanged; neither is closed on exit. A file written by path (through any
    symlink) is replaced only on a clean exit, unless it is special, like /dev/null.
    Invalid UTF-8 in a file read by path is a UnicodeError naming its line;
    text that UTF-8 cannot encode, written by path, is one naming the file.
    """
    if not isinstance(target, (str, Path)):
        return nullcontext(target)
    if target == "-":
        return nullcontext(sys.stdin if mode == "r" else sys.stdout)
    return _writing(target) if mode == "w" else _reading(target)


@contextmanager
def _writing(target: str | Path) -> Iterator[IO[str]]:
    """``target`` opened for writing; text UTF-8 cannot encode is a UnicodeError naming the file."""
    path = os.path.realpath(target)
    if not os.path.exists(target) or os.path.isfile(target) and os.path.isfile(path):
        opened = _replacing(path)
    else:  # open() follows /dev/fd/N to a pipe that realpath cannot name
        opened, path = open(target, "w", **_TEXT_MODES["w"]), target
    try:
        with opened as fh:
            yield fh
    except UnicodeEncodeError as exc:  # name the file, as a failed read does
        raise UnicodeError(f"{path}: written text is not UTF-8: {exc.reason}") from exc


@contextmanager
def _reading(path: str | Path) -> Iterator[IO[str]]:
    """``path`` opened for reading; a decode error in the caller's reads names the line."""
    with open(path, "r", **_TEXT_MODES["r"]) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            line = _first_undecodable_line(path)
            if line is None:  # the file changed since the failed read
                raise
            raise UnicodeError(f"{path}: line {line} is not UTF-8 text: {exc.reason}") from exc


def _first_undecodable_line(path: str | Path) -> int | None:
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return number
    return None


@contextmanager
def _replacing(path: str) -> Iterator[IO[str]]:
    """A temporary file beside ``path`` that becomes ``path`` on a clean exit."""
    try:  # an in-place write needs write access and keeps the mode bits
        os.close(os.open(path, os.O_WRONLY))
        mode_bits = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode_bits = None
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.urandom(6).hex()}")
    try:  # created like a new file: 0o666 less the umask
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with open(fd, "w", **_TEXT_MODES["w"]) as fh:
            if mode_bits is not None:
                os.fchmod(fd, mode_bits)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name}")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_ENCODER = json.JSONEncoder(ensure_ascii=False, allow_nan=False)


def loads(text: str) -> Any:
    """Parse one JSON document; every failure, NaN and Infinity included, is a ValueError."""
    try:
        return _DECODER.decode(text)
    except RecursionError as exc:
        raise ValueError("nested too deeply") from exc


def dumps(obj: Any, **layout: Any) -> str:
    """Strict JSON text with non-ASCII kept; ``layout`` is e.g. indent or sort_keys."""
    if not layout:
        return _ENCODER.encode(obj)
    return json.dumps(obj, ensure_ascii=False, allow_nan=False, **layout)


def write_jsonl(records: Iterable[dict], sink: str | Path | IO[str]) -> None:
    """Write one strict JSON line per record; a text UTF-8 cannot encode names its record id."""
    with open_text(sink, "w") as fh:
        for record in records:
            try:
                fh.write(dumps(record) + "\n")
            except UnicodeEncodeError as exc:
                raise UnicodeError(f"record {record.get('id')!r} is not UTF-8 text: {exc.reason}") from exc
