"""Seeded input generator for the benchmark.

Everything the benchmark feeds to codemix is made here, from the workload
and the seed alone, so that no change to the program can change a
workload. Languages are syllabic: each draws its consonants and vowels
from one shared alphabet (so alphabets overlap and scores are close), has
its own syllable shapes and a Zipf-distributed vocabulary, and no word
belongs to two languages (so gold tags are unambiguous). A share of each
vocabulary is held out of training, as names and rare words are in real
traffic. Messages then get SMS-style noise: capitals, punctuation, emoji,
digits and irregular spacing, all of which normalization removes.
"""
from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

CONSONANTS = "bcdfghjklmnprstvwyz"
VOWELS = "aeiou"
# Letters outside ASCII, one or two per language, shared between languages.
EXTRA_LETTERS = "áéñşøəžå"
SYLLABLE_SHAPES = ("CV", "CVC", "V", "CCV", "CVV", "VC")
LANG_CODES = ("ka", "lu", "mo", "ni", "pe", "ro", "si", "tu")

EMOJI = ("😀", "🙏", "👍🏽", "❤️", "😂", "🤔", "🔥", "😭")
PUNCT_AFTER = (",", ".", "!", "?", "...", "!!", "?!", ":")
DIGIT_TOKENS = ("2", "10", "0821234567", "10:30", "2019-07-01", "#4", "R50", "3x")
# Replies with no letters at all; their gold tag is "und".
NOISE_REPLIES = ("👍🏽", "???", "0821234567", "🙏🙏", "10:30!", "😂😂😂", "...", "#4")


@dataclass(frozen=True)
class Workload:
    """Shape of one benchmark workload; the seed fills in the content."""

    name: str
    n_langs: int
    vocab: int  # words per language
    train_lines: int  # training lines per language
    train_words: tuple[int, int]  # words per training line, inclusive range
    n_docs: int  # documents in the tagged corpus
    doc_tokens: tuple[int, int]  # tokens per message, inclusive range
    k: int  # chunks per document for detect
    mix_rate: float  # share of code-switched messages
    noise: float  # per-token probability of each kind of noise
    tiny_share: float  # share of replies too short to identify (gold "und")
    detect_docs: int  # documents given to detect (the first ones of the corpus)
    syllables: tuple[int, int] = (50, 90)  # syllable inventory size, inclusive range
    pred_accuracy: float = 0.0  # > 0: the corpus carries a seeded "pred" field


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sms-2l", n_langs=2, vocab=500, train_lines=1200, train_words=(6, 14),
            n_docs=3000, doc_tokens=(9, 15), k=4, mix_rate=0.3, noise=0.08,
            tiny_share=0.02, detect_docs=3000,
        ),
        Workload(
            name="multi-8l-k12", n_langs=8, vocab=4000, train_lines=700, train_words=(8, 16),
            n_docs=400, doc_tokens=(24, 36), k=12, mix_rate=0.3, noise=0.04,
            tiny_share=0.02, detect_docs=400, syllables=(160, 240),
        ),
        Workload(
            name="bulk-eval", n_langs=3, vocab=3000, train_lines=3000, train_words=(8, 16),
            n_docs=30000, doc_tokens=(9, 15), k=4, mix_rate=0.25, noise=0.05,
            tiny_share=0.03, detect_docs=300, pred_accuracy=0.85,
        ),
    )
}


class _Zipf:
    """Seeded draws from a Zipf-Mandelbrot law over a fixed item list."""

    def __init__(self, items: list[str], exponent: float = 1.0, shift: float = 2.7):
        self.items = items
        self.cum = list(itertools.accumulate(1.0 / (r + shift) ** exponent for r in range(len(items))))

    def draw(self, rng: random.Random) -> str:
        return self.items[bisect.bisect_right(self.cum, rng.random() * self.cum[-1])]


@dataclass
class Language:
    """A generated language: its code and its word frequency laws."""

    code: str
    words: _Zipf  # every word, as messages use them
    train_words: _Zipf  # held-out words removed


def _make_language(rng: random.Random, index: int, w: Workload, taken: set[str]) -> Language:
    """Language ``index`` of ``w``: its structure is fixed, ``rng`` picks its letters and words.

    Alphabet sizes, syllable shapes and word lengths come from the
    language's position alone, so that text length, and with it the cost
    of every step, does not move with the seed; the seed chooses which
    letters, syllables and words the language has.
    """
    shape = random.Random(f"language-shape/{index}")
    n_consonants, n_vowels, n_extra = shape.randint(9, 13), shape.randint(3, 5), shape.randint(0, 2)
    shape_weights = [shape.random() ** 2 for _ in SYLLABLE_SHAPES]
    syllables_per_shape = shape.randint(*w.syllables) // len(SYLLABLE_SHAPES) + 1
    max_syllables = shape.randint(3, 5)

    consonants = rng.sample(CONSONANTS, n_consonants) + rng.sample(EXTRA_LETTERS, n_extra)
    vowels = rng.sample(VOWELS, n_vowels)
    by_shape = []
    for pattern in SYLLABLE_SHAPES:
        found: set[str] = set()
        for _ in range(syllables_per_shape * 4):  # small shapes ("V") have few distinct syllables
            found.add("".join(rng.choice(consonants if c == "C" else vowels) for c in pattern))
            if len(found) == syllables_per_shape:
                break
        by_shape.append(_Zipf(sorted(found), exponent=0.8))
    shape_cum = list(itertools.accumulate(shape_weights))

    def syllable() -> str:
        pick = bisect.bisect_right(shape_cum, rng.random() * shape_cum[-1])
        return by_shape[pick].draw(rng)

    words: list[str] = []
    while len(words) < w.vocab:
        n = 1 + min(int(rng.expovariate(0.9)), max_syllables - 1)
        word = "".join(syllable() for _ in range(n))
        if len(word) >= 2 and word not in taken:
            taken.add(word)
            words.append(word)
    # Frequent words are short (the law of abbreviation), with random ties.
    words.sort(key=lambda word: len(word) + 3 * rng.random())
    held_out = set(rng.sample(words[50:], len(words) // 7))
    return Language(LANG_CODES[index], _Zipf(words), _Zipf([word for word in words if word not in held_out]))


def _noisy(rng: random.Random, word: str, p: float, first: bool) -> list[str]:
    """One word with SMS noise, plus any noise tokens that follow it."""
    if rng.random() < p * 0.4:
        word = word.upper()
    elif first or rng.random() < p:
        word = word[:1].upper() + word[1:]
    if rng.random() < p:
        word += rng.choice(PUNCT_AFTER)
    out = [word]
    if rng.random() < p * 0.5:
        out.append(rng.choice(EMOJI))
    if rng.random() < p * 0.4:
        out.append(rng.choice(DIGIT_TOKENS))
    return out


def _short_reply(rng: random.Random, lang: Language) -> str:
    """A reply below the identifier's 3-letter minimum: pure noise, or two letters of a word."""
    if rng.random() < 0.5:
        return rng.choice(NOISE_REPLIES)
    word = lang.words.draw(rng)[:2]
    return word[:1].upper() + word[1:] + rng.choice(("!", "?", " 👍🏽", " 🙏", "."))


def _join(rng: random.Random, tokens: list[str], p: float) -> str:
    text = tokens[0]
    for token in tokens[1:]:
        text += ("  " if rng.random() < p * 0.3 else "\t" if rng.random() < p * 0.1 else " ") + token
    return text


@dataclass
class Inputs:
    """Files written for one run, with what the checks need to know."""

    langs: list[str]
    train_files: dict[str, Path]
    corpus: Path  # tagged corpus: detect input, or the pre-tagged corpus
    detect_input: Path
    empty: Path
    gold: dict[str, str]  # doc id -> gold tag, as written
    detect_ids: list[str]
    sha256: dict[str, str]


def file_sha256(path: Path) -> str:
    """Hex sha256 of a file's bytes; empty when it cannot be read."""
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return ""


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def generate(w: Workload, seed: int, out_dir: Path) -> Inputs:
    """Write the training texts and corpora for ``w`` under ``out_dir``."""
    rng = random.Random(f"{w.name}/{seed}")
    taken: set[str] = set()
    languages = [_make_language(rng, i, w, taken) for i in range(w.n_langs)]

    train_files = {}
    for lang in languages:
        path = out_dir / f"train-{lang.code}.txt"
        lines = []
        for _ in range(w.train_lines):
            n = rng.randint(*w.train_words)
            lines.append(" ".join(lang.train_words.draw(rng) for _ in range(n)))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        train_files[lang.code] = path

    records, gold = [], {}
    classes = [l.code for l in languages] + [
        f"{a.code},{b.code}" for a, b in itertools.combinations(languages, 2)
    ]
    for i in range(w.n_docs):
        doc_id = f"{w.name}-{i:06d}"
        if rng.random() < w.tiny_share:
            text, tag = _short_reply(rng, rng.choice(languages)), "und"
        else:
            n = rng.randint(*w.doc_tokens)
            if rng.random() < w.mix_rate:
                a, b = rng.sample(languages, 2)
                switch = rng.randint(max(1, n // 4), n - max(1, n // 4))
                words = [a.words.draw(rng) for _ in range(switch)]
                words += [b.words.draw(rng) for _ in range(n - switch)]
                tag = f"{a.code},{b.code}"
            else:
                lang = rng.choice(languages)
                words = [lang.words.draw(rng) for _ in range(n)]
                tag = lang.code
            tokens = []
            for j, word in enumerate(words):
                tokens += _noisy(rng, word, w.noise, j == 0)
            text = _join(rng, tokens, w.noise)
        record = {"id": doc_id, "text": text, "tags": tag}
        if w.pred_accuracy:
            record["pred"] = tag if rng.random() < w.pred_accuracy else rng.choice(classes)
        records.append(record)
        gold[doc_id] = tag

    corpus = out_dir / "corpus.jsonl"
    _write_jsonl(corpus, records)
    detect_input = corpus
    if w.detect_docs < w.n_docs:
        detect_input = out_dir / "detect-input.jsonl"
        _write_jsonl(detect_input, [{k: r[k] for k in ("id", "text", "tags")} for r in records[: w.detect_docs]])
    empty = out_dir / "empty.jsonl"
    empty.write_text("", encoding="utf-8")

    files = [*train_files.values(), corpus] + ([detect_input] if detect_input != corpus else [])
    return Inputs(
        langs=[l.code for l in languages],
        train_files=train_files,
        corpus=corpus,
        detect_input=detect_input,
        empty=empty,
        gold=gold,
        detect_ids=[r["id"] for r in records[: w.detect_docs]],
        sha256={p.name: file_sha256(p) for p in files},
    )
