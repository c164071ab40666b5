"""Language codes and composite tags, the paper's unit of evaluation.

A language code is a str of 2-8 lowercase ASCII letters; "und" (ISO 639
"undetermined") is reserved and never trainable. A document's tag is the
set of its codes, and each distinct set is one atomic class: {en}, {zu}
and {en,zu} are three classes. A class scheme declares which classes a
tally keeps; every other label counts as "other".
"""
from __future__ import annotations

import re
from typing import Iterable, Sequence

from .errors import InvalidConfig

#: Reserved code for "undetermined"; never a trainable profile name.
UND = "und"

#: A language code: 2-8 lowercase ASCII letters.
LANG_CODE_RE = re.compile(r"^[a-z]{2,8}\Z")

#: The bucket class of a class scheme, for every label outside it.
OTHER_CLASS = "other"


def check_code(code: object) -> None:
    """Raise InvalidConfig unless ``code`` is a language code other than "und"."""
    if type(code) is not str or not LANG_CODE_RE.match(code):
        raise InvalidConfig(f"language code must be 2-8 lowercase ASCII letters, got {code!r}")
    if code == UND:
        raise InvalidConfig(f"{UND!r} is reserved for undetermined text")


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
            if code != UND:
                check_code(code)
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
        if not isinstance(text, str):
            raise InvalidConfig(f"a language tag must be a str, got {type(text).__name__}")
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


def tally_classes(observed: Iterable[str], class_scheme: Sequence[str] | None) -> list[str]:
    """Classes of a tally: the ``observed`` labels sorted, or the declared
    classes, canonicalized and in declared order, then "other", the bucket
    for every label outside them.
    """
    if class_scheme is None:
        return sorted(set(observed))
    if isinstance(class_scheme, str):  # iterating it would yield single characters
        raise InvalidConfig(f"a class scheme is a sequence of tags, not one str: {class_scheme!r}")
    declared = [LanguageTag.parse(c).class_label() for c in class_scheme]
    if OTHER_CLASS in declared:
        raise InvalidConfig(f"{OTHER_CLASS!r} is the bucket class and cannot be declared")
    if len(set(declared)) != len(declared):
        raise InvalidConfig(f"duplicate classes in scheme: {list(class_scheme)}")
    return [*declared, OTHER_CLASS]
