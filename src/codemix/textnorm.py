"""Unicode-aware cleaning of raw message text.

Strips punctuation, symbols (which covers emoji presentation forms),
digits and control characters; case-folds; collapses all whitespace to
single ASCII spaces. Only letters (L*), combining marks (M*) and single
spaces survive, so downstream character n-gram models see a small,
consistent alphabet.
"""
from __future__ import annotations

import unicodedata


class _Fates(dict):
    """Codepoint -> its fate under normalize, decided on first sight.

    The first letter of the Unicode general category decides: letters and
    marks are kept, everything else (P, S, N, C, Z) is dropped (None).
    Whitespace never gets here: ``normalize`` splits on it first. Emoji
    (Extended_Pictographic codepoints all carry S*, P* or Cn categories)
    fall out with the symbols. Each entry depends only on its codepoint, so
    the table fills the same way from any thread and is bounded by Unicode.
    """

    def __missing__(self, cp: int) -> str | None:
        ch = chr(cp)
        fate = self[cp] = ch if unicodedata.category(ch)[0] in "LM" else None
        return fate


_FATES = _Fates()


def normalize(raw: str) -> str:
    """Clean ``raw`` down to case-folded letters, marks and single spaces.

    Whitespace of any kind becomes U+0020; runs of separators collapse; the
    result carries no leading or trailing space. Removals delete codepoints
    outright (``"2019-07-01"`` leaves nothing behind, ``"don't"`` becomes
    ``"dont"``). Empty output is valid. Idempotent.

    The work goes word by word: ``str.isalpha`` is true exactly when every
    codepoint is a letter (L*), which the table keeps, so only the words
    that are not all letters are translated, and a word that comes out
    empty is dropped. The result equals translating the whole text.
    """
    words = raw.casefold().split()
    if "".join(words).isalpha():
        return " ".join(words)
    kept = (word if word.isalpha() else word.translate(_FATES) for word in words)
    return " ".join(filter(None, kept))


def tokenize(normalized: str) -> list[str]:
    """Split normalized text on spaces. Empty input gives no tokens."""
    return normalized.split()
