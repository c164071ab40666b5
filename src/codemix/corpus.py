"""Corpus ingestion, deduplication, seeded sampling and label distributions.

The interchange format is JSONL: one UTF-8 object per line with fields
``id``, ``text`` and optional ``tags`` (comma-joined lowercase language
codes). CSV with configurable column names is accepted on input.
"""
from __future__ import annotations

import functools
import random
from collections import Counter
from pathlib import Path
from typing import Any, Callable, IO, Iterable, Iterator, NamedTuple, Sequence

from . import fileio
from .errors import EmptyInput, InvalidConfig, ParseError, brief, check_int
from .tags import OTHER_CLASS, TAG_TABLE_SIZE, LanguageTag, check_code, tally_classes

TagPredicate = Callable[[LanguageTag | None], bool]


class Document(NamedTuple):
    """One text unit with optional gold and predicted composite tags."""

    id: str
    text: str
    gold_tag: LanguageTag | None = None
    pred_tag: LanguageTag | None = None


#: Builds a Document from a 4-tuple in C; the generated ``Document.__new__`` is Python code.
_document = functools.partial(tuple.__new__, Document)


def _parse_tag(tags: dict, value: object, field: str | None, line: int) -> LanguageTag | None:
    """The tag in ``field``'s raw ``value``, checked, and kept in ``tags`` if there is room."""
    if value is None or field is None:
        return None
    if not isinstance(value, str):
        raise ParseError(f"field {field!r} is not a string", line)
    if value in tags:
        return tags[value]
    text = value.strip()
    try:
        tag = LanguageTag.parse(text) if text else None
    except InvalidConfig as exc:
        raise ParseError(str(exc), line) from exc
    if len(tags) < TAG_TABLE_SIZE:  # distinct tag strings past it are parsed each time
        tags[value] = tag
    return tag


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
    a UTF-8 BOM. Raises ParseError (with its line number when a record is
    at fault) or InvalidConfig for an unknown format, when iteration
    reaches the fault. A tag field holds a string or null.
    """
    if format not in ("jsonl", "csv"):
        raise InvalidConfig(f"unknown corpus format {format!r}")
    jsonl = format == "jsonl"
    key = id_field or "id"
    tag_field, pred_field = tag_field or None, pred_field or None
    # Raw tag field value -> its tag, shared by both fields; a record without the field reads None.
    tags: dict = {None: None}
    seen: set[str] = set()

    with fileio.open_text(source) as fh:
        for line, record in enumerate(fh, 1) if jsonl else _csv_records(fh, text_field, id_field):
            if jsonl:  # record is still the line's text
                try:
                    record = fileio.loads(record)
                except ValueError as exc:
                    if not record.strip():  # a blank line, checked only once the parse fails
                        continue
                    raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}", line) from exc
                if type(record) is not dict:
                    raise ParseError("record is not a JSON object", line)

            text = record.get(text_field)
            if type(text) is not str:
                if text is None:
                    raise ParseError(f"record has no {text_field!r} field", line)
                raise ParseError(f"field {text_field!r} is not a string", line)

            doc_id = record.get(key)
            if type(doc_id) is not str or not doc_id:  # a non-empty str id is used as it is
                if doc_id is None or doc_id == "":
                    if id_field is not None:
                        raise ParseError(f"record has no {key!r} field", line)
                    doc_id = len(seen)  # the record's index: each record before it added one id
                elif type(doc_id) not in (str, int):  # bool and float ids are errors too
                    raise ParseError(f"field {key!r} is not a string or an integer", line)
                doc_id = str(doc_id)
            if doc_id in seen:
                raise ParseError(f"duplicate document id {doc_id!r}", line)
            seen.add(doc_id)

            # A None field reads None (or a CSV row's list of extra cells, which cannot be a key).
            try:
                gold, pred = tags[record.get(tag_field)], tags[record.get(pred_field)]
            except (KeyError, TypeError):  # a new string, or not a string at all
                gold = _parse_tag(tags, record.get(tag_field), tag_field, line)
                pred = _parse_tag(tags, record.get(pred_field), pred_field, line)
            yield _document((doc_id, text, gold, pred))


def _csv_records(
    fh: IO[str], text_field: str, id_field: str | None
) -> Iterator[tuple[int, dict]]:
    import csv  # here, so that a JSONL run never loads it

    try:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return
        if text_field not in reader.fieldnames:
            raise ParseError(f"CSV header has no {text_field!r} column")
        if id_field is not None and id_field not in reader.fieldnames:
            raise ParseError(f"CSV header has no {id_field!r} column")
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


def dedupe(docs: Iterable[Document]) -> Iterator[Document]:
    """Yield the first document of each normalized-text equivalence class, in
    input order; only the set of normalized texts is held in memory."""
    from . import textnorm  # here, so that no other corpus command loads it

    seen: set[str] = set()
    for doc in docs:
        key = textnorm.normalize(doc.text)
        if key not in seen:
            seen.add(key)
            yield doc


def sample(docs: Iterable[Document], n: int, seed: int,
           stratum: TagPredicate | None = None) -> list[Document]:
    """Draw ``n`` documents uniformly without replacement from the stratum.

    Selection sampling (Knuth's Algorithm S) driven purely by
    ``random.Random(seed).random()``: scanning the filtered population in
    corpus order, item t is kept with probability needed/remaining. Only
    ``Random.random()`` is consumed, whose sequence Python guarantees
    stable across versions, so equal arguments give the same sample across
    runs, processes and platforms. Output stays in corpus order. ``n`` and
    ``seed`` are checked before ``docs`` is read.
    """
    check_int(n, 1, "sample size")
    check_int(seed, 0, "seed")
    if stratum is None:
        population = list(docs)
    else:
        population = [doc for doc in docs if stratum(doc.pred_tag)]
    if n > len(population):
        raise EmptyInput(f"requested {brief(n)} documents from a population of {len(population)}")
    rng = random.Random(seed)
    needed = n
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
