"""Chunk-based code-switching detection.

A question is normalized, split into a handful of contiguous token chunks,
each chunk is language-identified on its own, and the distinct reliable
chunk labels become the document's composite tag. Two or more languages in
the tag means the document code-switches.
"""
from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from . import langid, textnorm
from .defaults import DEFAULT_CHUNKS, DEFAULT_MIN_CHARS
from .errors import EmptyInput, check_int
from .langid import Prediction, ProfileSet
from .tags import TAG_TABLE_SIZE, UND, UND_TAG, LanguageTag

if TYPE_CHECKING:
    from .corpus import Document


class ChunkResult(NamedTuple):
    """Top-1 identification for one chunk of a document; its index is its position in ``chunks``."""

    text: str
    prediction: Prediction

    @property
    def reliable(self) -> bool:
        """Whether the chunk got a language rather than "und"."""
        return self.prediction.lang != UND


class DetectionResult(NamedTuple):
    """Per-chunk predictions plus the aggregated document tag."""

    doc_id: str
    chunks: tuple[ChunkResult, ...]
    tag: LanguageTag

    @property
    def code_switched(self) -> bool:
        """Whether the tag holds two or more languages."""
        return self.tag.is_multilingual

    def chunk_records(self) -> list[dict]:
        """Each chunk as a flat dict: index, text, the prediction's fields and ``reliable``.

        The fields are unpacked in place of ``_asdict()`` and the ``reliable``
        property, whose Python frames cost more per chunk than the dict, so
        ``reliable`` here applies ``ChunkResult.reliable``'s rule to ``lang``.
        """
        return [
            {"index": i, "text": text, "lang": lang, "avg_log_likelihood": ll, "confidence": confidence,
             "reliable": lang != UND}
            for i, (text, (lang, ll, confidence)) in enumerate(self.chunks)
        ]


#: Build each record from a tuple in C; a NamedTuple's generated ``__new__`` is Python code.
_chunk_result = partial(tuple.__new__, ChunkResult)
_detection_result = partial(tuple.__new__, DetectionResult)

#: Each first-occurrence sequence of distinct chunk labels -> its tag, up to TAG_TABLE_SIZE entries.
_tags: dict[tuple[str, ...], LanguageTag] = {}
#: The only label type ``aggregate``'s table is read or filled for.
_STR_ONLY = frozenset((str,))


def check_chunks(k: int) -> None:
    """Raise InvalidConfig unless ``k`` is a chunk count: an integer of at least 1."""
    check_int(k, 1, "chunk count")


def split_chunks(tokens: Sequence[str], k: int) -> list[list[str]]:
    """Split tokens into min(k, len) contiguous chunks of near-equal size.

    Sizes differ by at most one and the larger chunks come first, so
    10 tokens at k=4 split [3, 3, 2, 2]. Raises EmptyInput on no tokens.
    """
    check_chunks(k)
    if not tokens:
        raise EmptyInput("cannot chunk an empty token sequence")
    m = min(k, len(tokens))
    base, extra = divmod(len(tokens), m)
    chunks: list[list[str]] = []
    start = 0
    for i in range(m):
        size = base + (1 if i < extra else 0)
        chunks.append(list(tokens[start : start + size]))
        start += size
    return chunks


def aggregate(chunk_langs: Sequence[str]) -> LanguageTag:
    """Collapse per-chunk labels into a document tag.

    Distinct non-"und" codes in first-occurrence order; all-unreliable
    input collapses to the lone "und" tag. For a list of labels that are
    each exactly a str, as ``detect`` passes, the tags of the first
    ``TAG_TABLE_SIZE`` distinct label sequences are kept and returned again.
    """
    if not chunk_langs:
        raise EmptyInput("no chunk labels to aggregate")
    if type(chunk_langs) is list and _STR_ONLY.issuperset(map(type, chunk_langs)):
        key = tuple(dict.fromkeys(chunk_langs))
    else:  # a str subclass or another type must meet LanguageTag's check; an iterator is read once
        key = None
    tag = _tags.get(key)
    if tag is None:
        langs = [code for code in chunk_langs if code != UND]
        tag = LanguageTag(langs) if langs else UND_TAG
        if key is not None and len(_tags) < TAG_TABLE_SIZE:
            _tags[key] = tag
    return tag


def detect(
    doc: "Document",
    profiles: ProfileSet,
    k: int = DEFAULT_CHUNKS,
    min_chars: int = DEFAULT_MIN_CHARS,
) -> DetectionResult:
    """Run the full pipeline on one document.

    normalize -> tokenize -> chunk -> identify each chunk -> aggregate the
    top-1 chunk labels. Documents that normalize to empty get the "und"
    tag with no chunks. Raises InvalidConfig unless ``k`` is a chunk count
    and ``min_chars`` an int, whatever the text.
    """
    check_chunks(k)
    langid.check_min_chars(min_chars)
    normalized = textnorm.normalize(doc.text)
    tokens = textnorm.tokenize(normalized)
    if not tokens:
        return _detection_result((doc.id, (), UND_TAG))

    texts = list(map(" ".join, split_chunks(tokens, k)))
    tops = [langid.identify(text, profiles, min_chars)[0] for text in texts]
    tag = aggregate([top.lang for top in tops])
    # a list first: tuple() of a map allocates spare slots and shrinks, stranding
    # each shrunk block in CPython's free list of tuples of its new size
    chunks = tuple(list(map(_chunk_result, zip(texts, tops))))
    return _detection_result((doc.id, chunks, tag))


def detect_all(
    docs: Iterable["Document"],
    profiles: ProfileSet,
    k: int = DEFAULT_CHUNKS,
    min_chars: int = DEFAULT_MIN_CHARS,
) -> list[DetectionResult]:
    """Detect a batch of documents, in input order; an empty batch checks ``k`` and ``min_chars`` too."""
    check_chunks(k)
    langid.check_min_chars(min_chars)
    return [detect(doc, profiles, k=k, min_chars=min_chars) for doc in docs]
