"""In-memory spans around codemix's public module-level functions.

The tracer replaces each named function, in every loaded ``codemix``
module that refers to it, with a wrapper that records a span: name,
parent span, start and end (``perf_counter_ns``). Nothing inside the
program changes; the spans sit at the boundaries between layers. A name
that no longer exists is reported as absent instead of failing the run,
so the benchmark survives refactors that reshape a layer.
"""
from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

PACKAGE = "codemix"
#: Wrapped functions, as ``<module>.<function>`` under PACKAGE.
TARGETS = (
    "cli.run",
    "textnorm.normalize",
    "textnorm.tokenize",
    "detector.detect",
    "detector.split_chunks",
    "detector.aggregate",
    "langid.identify",
    "langid.score",
    "langid.extract_ngrams",
    "langid.train",
    "langid.save_profile",
    "langid.load_profile",
    "langid.load_profile_set",
    "corpus.load",
    "corpus.save_jsonl",
    "corpus.dedupe",
    "corpus.sample",
    "corpus.label_distribution",
    "evaluation.confusion",
    "evaluation.metrics",
    "evaluation.majority_class",
    "evaluation.chi_square_gof",
    "special.chi2_sf",
)

# A span: (name index, parent span index or -1, start ns, end ns).
Span = tuple[int, int, int, int]


class Tracer:
    """Installs span-recording wrappers; keeps every span in memory."""

    def __init__(self) -> None:
        self.names: list[str] = list(TARGETS)
        self.spans: list[Span | None] = []
        self.absent: list[str] = []
        self.observers: dict[str, Callable[[tuple, object], None]] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name_idx: int, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        observer = self.observers.get(self.names[name_idx])
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name_idx, parent, start, end)
            if observer is not None:
                observer(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        self.absent = []
        for idx, target in enumerate(self.names):
            module_name, func_name = target.split(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(target)
                continue
            fn = getattr(module, func_name, None)
            if not callable(fn):
                self.absent.append(target)
                continue
            wrapper = self._wrap(idx, fn)
            # `from .x import f` copies the reference: patch every alias.
            for mod in modules + [module]:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched = []

    def mark(self) -> int:
        """Index of the next span, to slice out one step's spans later."""
        return len(self.spans)

    def clear(self) -> None:
        self.spans.clear()


def summarize(spans: list[Span], offset: int, names: list[str]) -> dict[str, dict[str, int]]:
    """Per-name ``calls``, ``incl_ns`` and ``self_ns`` for spans[offset:].

    Self time is a span's duration minus the time its direct children
    cover; spans nest strictly (one thread), so that cover is the sum of
    the children's durations.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for i in range(offset, len(spans)):
        _, parent, start, end = spans[i]
        child_ns[parent] += end - start
    stats: dict[str, dict[str, int]] = {}
    for i in range(offset, len(spans)):
        name_idx, _, start, end = spans[i]
        s = stats.setdefault(names[name_idx], {"calls": 0, "incl_ns": 0, "self_ns": 0})
        s["calls"] += 1
        s["incl_ns"] += end - start
        s["self_ns"] += end - start - child_ns.get(i, 0)
    return stats


def durations_ns(spans: list[Span], offset: int, name_idx: int) -> list[int]:
    return [end - start for n, _, start, end in spans[offset:] if n == name_idx]


def write_spans(path: Path, steps: list[tuple[str, int, int]], spans: list[Span], names: list[str]) -> None:
    """Write spans as gzip JSONL: one line per span, tagged with its step."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for step, lo, hi in steps:
            for i in range(lo, hi):
                name_idx, parent, start, end = spans[i]
                fh.write(json.dumps({
                    "step": step, "id": i, "parent": parent, "name": names[name_idx],
                    "start_ns": start, "end_ns": end,
                }) + "\n")
