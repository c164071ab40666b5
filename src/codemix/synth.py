"""Seeded generator of gold-tagged monolingual and code-mixed documents.

Real code-switched corpora are rarely shareable, so end-to-end pipeline
tests build their own: two disjoint token pools stand in for two languages,
and each generated document either stays in one pool or switches from one
to the other at a single uniform point. Pool disjointness is enforced, so
gold tags are unambiguous by construction.
"""
from __future__ import annotations

import random
from typing import Sequence

from .corpus import Document
from .errors import InvalidConfig, check_int
from .tags import LanguageTag, check_code


def _pick(rng: random.Random, pool: Sequence[str]) -> str:
    return pool[int(rng.random() * len(pool))]


def generate(lang_a: str, lang_b: str, source_a: tuple[str, ...], source_b: tuple[str, ...],
             n_docs: int, mix_rate: float, tokens_per_doc: int, seed: int) -> list[Document]:
    """Generate ``n_docs`` documents from the disjoint word pools of two languages, gold tags included.

    With probability mix_rate a document is a non-empty prefix of lang_a
    tokens followed by a non-empty suffix of lang_b tokens (switch point
    uniform) and carries the two-language gold tag; otherwise a fair coin
    picks one pool and the tag is a singleton. All randomness flows through
    ``random.Random(seed).random()``, so equal arguments give identical
    corpora on any platform or Python version.
    """
    for code in (lang_a, lang_b):
        check_code(code)
    if lang_a == lang_b:
        raise InvalidConfig("the two languages must differ")
    for name, pool in (("source_a", source_a), ("source_b", source_b)):
        if not pool:
            raise InvalidConfig(f"{name} is empty")
        for word in pool:
            if not word or any(ch.isspace() for ch in word):
                raise InvalidConfig(f"{name} contains a non-word entry: {word!r}")
    if set(source_a) & set(source_b):
        overlap = sorted(set(source_a) & set(source_b))[:5]
        raise InvalidConfig(f"token pools overlap: {overlap}")
    check_int(n_docs, 1, "n_docs")
    if type(mix_rate) not in (int, float) or not 0.0 <= mix_rate <= 1.0:
        raise InvalidConfig(f"mix_rate must be in [0, 1], got {mix_rate!r}")
    check_int(tokens_per_doc, 4, "tokens_per_doc")
    check_int(seed, 0, "seed")

    rng = random.Random(seed)
    tag_a = LanguageTag((lang_a,))
    tag_b = LanguageTag((lang_b,))
    tag_mixed = LanguageTag((lang_a, lang_b))

    docs: list[Document] = []
    for i in range(n_docs):
        if rng.random() < mix_rate:
            switch = 1 + int(rng.random() * (tokens_per_doc - 1))
            tokens = [_pick(rng, source_a) for _ in range(switch)]
            tokens += [_pick(rng, source_b) for _ in range(tokens_per_doc - switch)]
            tag = tag_mixed
        else:
            if rng.random() < 0.5:
                pool, tag = source_a, tag_a
            else:
                pool, tag = source_b, tag_b
            tokens = [_pick(rng, pool) for _ in range(tokens_per_doc)]
        docs.append(Document(id=f"synth-{i}", text=" ".join(tokens), gold_tag=tag))
    return docs
