"""codemix's on-disk formats: the text-file policy and strict JSON.

Every file codemix reads or writes goes through ``open_text``: input is
UTF-8 and may start with a BOM, output is UTF-8 with "\\n" line ends, and
"-" stands for stdin or stdout. JSON is strict in both directions: NaN and
Infinity are rejected on input and never written.
"""
from __future__ import annotations

import json
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import IO, Any, ContextManager

_TEXT_MODES = {
    "r": {"encoding": "utf-8-sig", "newline": ""},
    "w": {"encoding": "utf-8", "newline": "\n"},
}


def open_text(target: str | Path | IO[str], mode: str = "r") -> ContextManager[IO[str]]:
    """Open ``target`` for text reading ("r") or writing ("w").

    "-" is stdin or stdout, and a file that is already open passes through
    unchanged; neither is closed on exit.
    """
    if not isinstance(target, (str, Path)):
        return nullcontext(target)
    if target == "-":
        return nullcontext(sys.stdin if mode == "r" else sys.stdout)
    return open(target, mode, **_TEXT_MODES[mode])


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name}")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def loads(text: str) -> Any:
    """Parse one JSON document; every failure, NaN and Infinity included, is a ValueError."""
    try:
        return _DECODER.decode(text)
    except RecursionError as exc:
        raise ValueError("nested too deeply") from exc


def dumps(obj: Any, **layout: Any) -> str:
    """Strict JSON text with non-ASCII kept; ``layout`` is e.g. indent or sort_keys."""
    return json.dumps(obj, ensure_ascii=False, allow_nan=False, **layout)
