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
from .errors import InvalidSpec, check_int
from .tags import LanguageTag, check_code


class MixSpec:
    """Recipe for one synthetic corpus."""

    def __init__(self, lang_a: str, lang_b: str, source_a: tuple[str, ...], source_b: tuple[str, ...],
                 n_docs: int, mix_rate: float, tokens_per_doc: int, seed: int) -> None:
        for code in (lang_a, lang_b):
            check_code(code, InvalidSpec)
        if lang_a == lang_b:
            raise InvalidSpec("the two languages must differ")
        for name, pool in (("source_a", source_a), ("source_b", source_b)):
            if not pool:
                raise InvalidSpec(f"{name} is empty")
            for word in pool:
                if not word or any(ch.isspace() for ch in word):
                    raise InvalidSpec(f"{name} contains a non-word entry: {word!r}")
        if set(source_a) & set(source_b):
            overlap = sorted(set(source_a) & set(source_b))[:5]
            raise InvalidSpec(f"token pools overlap: {overlap}")
        check_int(n_docs, 1, "n_docs", InvalidSpec)
        if type(mix_rate) not in (int, float) or not 0.0 <= mix_rate <= 1.0:
            raise InvalidSpec(f"mix_rate must be in [0, 1], got {mix_rate!r}")
        check_int(tokens_per_doc, 4, "tokens_per_doc", InvalidSpec)
        check_int(seed, 0, "seed", InvalidSpec)
        self.lang_a, self.lang_b, self.source_a, self.source_b = lang_a, lang_b, source_a, source_b
        self.n_docs, self.mix_rate, self.tokens_per_doc, self.seed = n_docs, mix_rate, tokens_per_doc, seed


def _pick(rng: random.Random, pool: Sequence[str]) -> str:
    return pool[int(rng.random() * len(pool))]


def generate(spec: MixSpec) -> list[Document]:
    """Generate the corpus described by ``spec``, gold tags included.

    With probability mix_rate a document is a non-empty prefix of lang_a
    tokens followed by a non-empty suffix of lang_b tokens (switch point
    uniform) and carries the two-language gold tag; otherwise a fair coin
    picks one pool and the tag is a singleton. All randomness flows through
    ``random.Random(seed).random()``, so equal specs give identical corpora
    on any platform or Python version.
    """
    rng = random.Random(spec.seed)
    tag_a = LanguageTag((spec.lang_a,))
    tag_b = LanguageTag((spec.lang_b,))
    tag_mixed = LanguageTag((spec.lang_a, spec.lang_b))

    docs: list[Document] = []
    for i in range(spec.n_docs):
        if rng.random() < spec.mix_rate:
            switch = 1 + int(rng.random() * (spec.tokens_per_doc - 1))
            tokens = [_pick(rng, spec.source_a) for _ in range(switch)]
            tokens += [_pick(rng, spec.source_b) for _ in range(spec.tokens_per_doc - switch)]
            tag = tag_mixed
        else:
            if rng.random() < 0.5:
                pool, tag = spec.source_a, tag_a
            else:
                pool, tag = spec.source_b, tag_b
            tokens = [_pick(rng, pool) for _ in range(spec.tokens_per_doc)]
        docs.append(Document(id=f"synth-{i}", text=" ".join(tokens), gold_tag=tag))
    return docs
