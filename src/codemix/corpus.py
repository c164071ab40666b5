"""Corpus ingestion, deduplication, seeded sampling and label distributions.

The interchange format is JSONL: one UTF-8 object per line with fields
``id``, ``text`` and optional ``tags`` (comma-joined lowercase language
codes). CSV with configurable column names is accepted on input.
"""
from __future__ import annotations

import csv
import functools
import random
from collections import Counter
from pathlib import Path
from typing import Any, Callable, IO, Iterable, Iterator, NamedTuple, Sequence

from . import fileio, textnorm
from .errors import (
    EmptyInput,
    InsufficientPopulation,
    InvalidConfig,
    MissingField,
    ParseError,
    check_int,
)
from .tags import OTHER_CLASS, LanguageTag, check_code, tally_classes

TagPredicate = Callable[[LanguageTag | None], bool]


class Document(NamedTuple):
    """One text unit with optional gold and predicted composite tags."""

    id: str
    text: str
    gold_tag: LanguageTag | None = None
    pred_tag: LanguageTag | None = None


class SampleSpec:
    """How to draw one evaluation dataset: size, seed, optional stratum."""

    def __init__(self, n: int, seed: int, stratum: TagPredicate | None = None) -> None:
        check_int(n, 1, "sample size")
        check_int(seed, 0, "seed")
        self.n, self.seed, self.stratum = n, seed, stratum


#: One shared LanguageTag per distinct tag text, so "zu,en" keeps its own order.
_cached_tag = functools.lru_cache(maxsize=1024)(LanguageTag.parse)


def _parse_tag(value: object, line: int) -> LanguageTag | None:
    if value is None:
        return None
    text = str(value).strip()
    if not text:
        return None
    try:
        return _cached_tag(text)
    except InvalidConfig as exc:
        raise ParseError(str(exc), line) from exc


def load(*args: Any, **kwargs: Any) -> list[Document]:
    """Read a whole corpus into a list; the arguments are those of ``iter_load``."""
    return list(iter_load(*args, **kwargs))


def iter_load(
    source: str | Path | IO[str],
    format: str = "jsonl",
    text_field: str = "text",
    id_field: str | None = None,
    tag_field: str | None = "tags",
    pred_field: str | None = None,
) -> Iterator[Document]:
    """Yield a corpus file's Documents one at a time, in file order.

    ``tag_field`` fills each Document's gold tag and ``pred_field`` its
    predicted tag; None leaves that tag unset. An id is a string or an
    integer; records without one get the 0-based record index rendered in
    decimal, and a repeated id is a ParseError. ``source`` is a path, "-"
    for stdin, or an open text file; a file opened by path may start with
    a UTF-8 BOM. Raises ParseError (with line number), MissingField, or
    InvalidConfig for an unknown format, when iteration reaches the fault.
    """
    if format not in ("jsonl", "csv"):
        raise InvalidConfig(f"unknown corpus format {format!r}")

    with fileio.open_text(source) as fh:
        records = (
            _jsonl_records(fh)
            if format == "jsonl"
            else _csv_records(fh, text_field, id_field)
        )
        seen: set[str] = set()
        for index, (line, record) in enumerate(records):
            if text_field not in record or record[text_field] is None:
                raise MissingField(f"line {line}: record has no {text_field!r} field")
            text = record[text_field]
            if not isinstance(text, str):
                raise ParseError(f"field {text_field!r} is not a string", line)

            key = id_field or "id"
            value = record.get(key)
            if value in (None, ""):
                if id_field is not None:
                    raise MissingField(f"line {line}: record has no {key!r} field")
                value = index
            elif type(value) not in (str, int):  # bool and float ids are errors too
                raise ParseError(f"field {key!r} is not a string or an integer", line)
            doc_id = str(value)
            if doc_id in seen:
                raise ParseError(f"duplicate document id {doc_id!r}", line)
            seen.add(doc_id)

            yield Document(  # positional: a named tuple takes keywords more slowly
                doc_id,
                text,
                _parse_tag(record.get(tag_field), line) if tag_field else None,
                _parse_tag(record.get(pred_field), line) if pred_field else None,
            )


def _jsonl_records(fh: IO[str]) -> Iterator[tuple[int, dict]]:
    for line_no, line in enumerate(fh, 1):
        if not line.strip():
            continue
        try:
            record = fileio.loads(line)
        except ValueError as exc:
            raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}", line_no) from exc
        if not isinstance(record, dict):
            raise ParseError("record is not a JSON object", line_no)
        yield line_no, record


def _csv_records(
    fh: IO[str], text_field: str, id_field: str | None
) -> Iterator[tuple[int, dict]]:
    try:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return
        if text_field not in reader.fieldnames:
            raise MissingField(f"CSV header has no {text_field!r} column")
        if id_field is not None and id_field not in reader.fieldnames:
            raise MissingField(f"CSV header has no {id_field!r} column")
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        # DictReader sets line_num after a row parses; its inner reader counts the failed row
        raise ParseError(f"invalid CSV: {exc}", reader.reader.line_num) from exc


def document_record(doc: Document) -> dict:
    """JSONL record for a Document; the set tag (gold first) lands in "tags"."""
    record: dict = {"id": doc.id, "text": doc.text}
    tag = doc.gold_tag or doc.pred_tag
    if tag is not None:
        record["tags"] = tag.render()
    return record


def save_jsonl(docs: Iterable[Document], sink: str | Path | IO[str]) -> None:
    """Write Documents in the interchange JSONL format."""
    fileio.write_jsonl(map(document_record, docs), sink)


def dedupe(docs: Iterable[Document]) -> list[Document]:
    """Keep the first document of each normalized-text equivalence class."""
    seen: set[str] = set()
    kept: list[Document] = []
    for doc in docs:
        key = textnorm.normalize(doc.text)
        if key not in seen:
            seen.add(key)
            kept.append(doc)
    return kept


def sample(docs: Iterable[Document], spec: SampleSpec) -> list[Document]:
    """Draw a uniform sample without replacement from the stratum.

    Selection sampling (Knuth's Algorithm S) driven purely by
    ``random.Random(seed).random()``: scanning the filtered population in
    corpus order, item t is kept with probability needed/remaining. Only
    ``Random.random()`` is consumed, whose sequence Python guarantees
    stable across versions, so a (docs, spec) pair is reproducible across
    runs, processes and platforms. Output stays in corpus order.
    """
    if spec.stratum is None:
        population = list(docs)
    else:
        population = [doc for doc in docs if spec.stratum(doc.pred_tag)]
    if spec.n > len(population):
        raise InsufficientPopulation(
            f"requested {spec.n} documents from a population of {len(population)}"
        )
    rng = random.Random(spec.seed)
    needed = spec.n
    remaining = len(population)
    chosen: list[Document] = []
    for doc in population:
        if needed == 0:
            break
        if rng.random() * remaining < needed:
            chosen.append(doc)
            needed -= 1
        remaining -= 1
    return chosen


def exact_tag_stratum(tag_text: str) -> TagPredicate:
    """Predicate matching documents whose predicted tag set-equals ``tag_text``."""
    wanted = LanguageTag.parse(tag_text)
    return lambda tag: tag is not None and tag == wanted


def pair_stratum(langs: Sequence[str]) -> TagPredicate:
    """Predicate matching two-language tags drawn from ``langs``.

    With ("en", "zu", "xh") this selects exactly the code-switched strata
    {en,zu}, {en,xh} and {zu,xh}.
    """
    for code in langs:  # in the order given, so the code named does not depend on hash order
        check_code(code)
    allowed = frozenset(langs)
    if len(allowed) < 2:
        raise InvalidConfig("pair stratum needs at least two language codes")
    return lambda tag: (
        tag is not None and len(tag.langs) == 2 and frozenset(tag.langs) <= allowed
    )


def label_distribution(
    tags: Iterable[LanguageTag],
    classes: Sequence[str] | None = None,
) -> dict[str, int]:
    """Count of each composite class among ``tags``, read once.

    Every distinct tag set is a class, labelled by its sorted comma-joined
    codes; classes come in label order. When ``classes`` is declared, the
    result holds every declared class in declared order (possibly 0) and
    then "other", the count of tags outside them. Counts sum to the tag count.
    """
    counts = Counter(map(LanguageTag.class_label, tags))
    if not counts:
        raise EmptyInput("no tags to summarize")
    tally = dict.fromkeys(tally_classes(counts, classes), 0)
    for label, n in counts.items():
        tally[label if label in tally else OTHER_CLASS] += n
    return tally
