"""Chunk-based code-switching detection.

A question is normalized, split into a handful of contiguous token chunks,
each chunk is language-identified on its own, and the distinct reliable
chunk labels become the document's composite tag. Two or more languages in
the tag means the document code-switches.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from . import langid, textnorm
from .errors import EmptyTokens, InvalidConfig
from .langid import LANG_CODE_RE, Prediction, ProfileSet, UND

if TYPE_CHECKING:
    from .corpus import Document

DEFAULT_CHUNKS = 4


class LanguageTag:
    """Set of distinct language codes carried by one document.

    Rendering preserves first-occurrence order ("zu,en"); the sorted class
    label ("en,zu") is the tag's identity, so "zu,en" and "en,zu" are the
    same tag. The reserved code "und" only ever appears alone.
    """

    __slots__ = ("langs", "_label")

    def __init__(self, langs: Iterable[str]):
        seen: list[str] = []
        for code in langs:
            if not LANG_CODE_RE.match(code):
                raise InvalidConfig(f"bad language code in tag: {code!r}")
            if code not in seen:
                seen.append(code)
        if not seen:
            raise InvalidConfig("a language tag needs at least one code")
        if UND in seen and len(seen) > 1:
            raise InvalidConfig(f"{UND!r} cannot combine with other codes: {seen}")
        self.langs: tuple[str, ...] = tuple(seen)
        self._label = ",".join(sorted(seen))

    @classmethod
    def parse(cls, text: str) -> "LanguageTag":
        """Parse a comma-joined tag string such as ``"zu,en"``."""
        return cls(code.strip() for code in text.split(","))

    def render(self) -> str:
        return ",".join(self.langs)

    def class_label(self) -> str:
        """Order-free label for use as an evaluation class ("en,zu")."""
        return self._label

    @property
    def is_multilingual(self) -> bool:
        return len(self.langs) >= 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LanguageTag):
            return NotImplemented
        return self._label == other._label

    def __hash__(self) -> int:
        return hash(self._label)

    def __repr__(self) -> str:
        return f"LanguageTag({self.render()!r})"


UND_TAG = LanguageTag((UND,))


@dataclass(frozen=True)
class ChunkResult:
    """Top-1 identification for one chunk of a document."""

    index: int
    text: str
    prediction: Prediction

    @property
    def reliable(self) -> bool:
        """Whether the chunk got a language rather than "und"."""
        return self.prediction.lang != UND


@dataclass(frozen=True)
class DetectionResult:
    """Per-chunk predictions plus the aggregated document tag."""

    doc_id: str
    chunks: tuple[ChunkResult, ...]
    tag: LanguageTag
    code_switched: bool


def split_chunks(tokens: Sequence[str], k: int) -> list[list[str]]:
    """Split tokens into min(k, len) contiguous chunks of near-equal size.

    Sizes differ by at most one and the larger chunks come first, so
    10 tokens at k=4 split [3, 3, 2, 2]. Raises EmptyTokens on no tokens.
    """
    if k < 1:
        raise InvalidConfig(f"chunk count must be at least 1, got {k}")
    if not tokens:
        raise EmptyTokens("cannot chunk an empty token sequence")
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
        raise EmptyTokens("no chunk labels to aggregate")
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
    tag with no chunks.
    """
    normalized = textnorm.normalize(doc.text)
    tokens = textnorm.tokenize(normalized)
    if not tokens:
        return DetectionResult(doc_id=doc.id, chunks=(), tag=UND_TAG, code_switched=False)

    chunk_results = []
    for index, chunk_tokens in enumerate(split_chunks(tokens, k)):
        chunk_text = " ".join(chunk_tokens)
        top = langid.identify(chunk_text, profiles, min_chars)[0]
        chunk_results.append(ChunkResult(index=index, text=chunk_text, prediction=top))
    tag = aggregate([c.prediction.lang for c in chunk_results])
    return DetectionResult(
        doc_id=doc.id,
        chunks=tuple(chunk_results),
        tag=tag,
        code_switched=tag.is_multilingual,
    )


def detect_all(
    docs: Iterable["Document"],
    profiles: ProfileSet,
    k: int = DEFAULT_CHUNKS,
    min_chars: int = langid.DEFAULT_MIN_CHARS,
) -> list[DetectionResult]:
    """Detect a batch of documents; results come back in input order."""
    return [detect(doc, profiles, k=k, min_chars=min_chars) for doc in docs]
