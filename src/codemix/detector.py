"""Chunk-based code-switching detection.

A question is normalized, split into a handful of contiguous token chunks,
each chunk is language-identified on its own, and the distinct reliable
chunk labels become the document's composite tag. Two or more languages in
the tag means the document code-switches.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from . import langid, textnorm
from .errors import EmptyInput, check_int
from .langid import Prediction, ProfileSet
from .tags import UND, UND_TAG, LanguageTag

if TYPE_CHECKING:
    from .corpus import Document

DEFAULT_CHUNKS = 4


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
    input collapses to the lone "und" tag.
    """
    if not chunk_langs:
        raise EmptyInput("no chunk labels to aggregate")
    langs = [code for code in chunk_langs if code != UND]
    return LanguageTag(langs) if langs else UND_TAG


def detect(
    doc: "Document",
    profiles: ProfileSet,
    k: int = DEFAULT_CHUNKS,
    min_chars: int = langid.DEFAULT_MIN_CHARS,
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
        return DetectionResult(doc_id=doc.id, chunks=(), tag=UND_TAG)

    chunk_results = []
    for chunk_tokens in split_chunks(tokens, k):
        chunk_text = " ".join(chunk_tokens)
        top = langid.identify(chunk_text, profiles, min_chars)[0]
        chunk_results.append(ChunkResult(text=chunk_text, prediction=top))
    tag = aggregate([c.prediction.lang for c in chunk_results])
    return DetectionResult(doc_id=doc.id, chunks=tuple(chunk_results), tag=tag)


def detect_all(
    docs: Iterable["Document"],
    profiles: ProfileSet,
    k: int = DEFAULT_CHUNKS,
    min_chars: int = langid.DEFAULT_MIN_CHARS,
) -> list[DetectionResult]:
    """Detect a batch of documents, in input order; an empty batch checks ``k`` and ``min_chars`` too."""
    check_chunks(k)
    langid.check_min_chars(min_chars)
    return [detect(doc, profiles, k=k, min_chars=min_chars) for doc in docs]
