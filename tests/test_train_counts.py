"""Training counts: ``langid._count_ngrams`` against the per-text definition.

``train`` counts the grams of its normalized lines through ``_count_ngrams``,
which counts one n_max-codepoint window per position and derives the shorter
grams once per distinct window. Each test holds it to ``Counter`` over
``extract_ngrams`` of each text: on random Unicode, every order range, texts
shorter than n_min, no texts, more texts than two blocks, and the training
files of each benchmark workload at seed 1, built by ``bench/inputs.py``
through conftest's ``bench_pipeline``, as ``test_corpus_scale.py`` builds them.
"""
import random
from collections import Counter

import pytest

from codemix import langid
from codemix.langid import _count_ngrams, extract_ngrams, train
from codemix.textnorm import normalize
from oracles import random_unicode_string

ORDERS = [(n_min, n_max) for n_min in range(1, 7) for n_max in range(n_min, 7)]

#: A few symbols, so that windows repeat: letters, a combining mark, astral codepoints and spaces.
SMALL_ALPHABET = "ab \u0301\U0001F600\U0001D54F"


def counted(texts, n_min, n_max):
    """The definition: every text's grams, counted."""
    counts = Counter()
    for text in texts:
        counts.update(extract_ngrams(text, n_min, n_max))
    return dict(counts)


def random_texts(seed, n):
    """Texts with no "\\n", from wide Unicode ranges and from a small alphabet, some shorter than 6."""
    rng = random.Random(seed)
    texts = []
    for _ in range(n):
        if rng.random() < 0.5:
            texts.append(random_unicode_string(rng, 20).replace("\n", " "))
        else:
            texts.append("".join(rng.choice(SMALL_ALPHABET) for _ in range(rng.randint(0, 20))))
    return texts


@pytest.mark.parametrize("n_min, n_max", ORDERS)
def test_random_unicode_counts_equal_the_definition(n_min, n_max):
    texts = random_texts(n_min * 10 + n_max, 300)
    assert _count_ngrams(texts, n_min, n_max) == counted(texts, n_min, n_max)


@pytest.mark.parametrize("n_min, n_max", ORDERS)
def test_texts_shorter_than_n_min_add_nothing(n_min, n_max):
    short = ["", "a", "\U0001F600", "á", "ab ", "abcde"]
    texts = [text for text in short if len(text) < n_min]
    assert _count_ngrams(texts, n_min, n_max) == {}
    assert _count_ngrams(short, n_min, n_max) == counted(short, n_min, n_max)


def test_no_texts_count_nothing():
    assert _count_ngrams([], 1, 4) == {}
    assert _count_ngrams(iter(()), 2, 6) == {}


def test_more_texts_than_two_blocks():
    texts = random_texts(7, 2 * langid._TRAIN_BLOCK + 5)
    for n_min, n_max in ((1, 4), (3, 6), (6, 6)):
        # a generator, as train passes one: each block is drawn from it in turn
        assert _count_ngrams(iter(texts), n_min, n_max) == counted(texts, n_min, n_max)


@pytest.fixture(scope="module")
def bench_training_lines(bench, bench_pipeline):
    """Each workload's seed-1 training files, as lists of lines, keyed by workload and language."""
    files = {}
    for name in bench.inputs.WORKLOADS:
        for lang, path in bench_pipeline(name).inp.train_files.items():
            files[name, lang] = path.read_text(encoding="utf-8").splitlines()
    return files


def test_bench_training_files_count_as_defined(bench_training_lines):
    assert {name for name, _ in bench_training_lines} == {"sms-2l", "multi-8l-k12", "bulk-eval"}
    for (name, lang), lines in bench_training_lines.items():
        texts = [text for text in map(normalize, lines) if text]
        expected = counted(texts, 1, 4)
        assert _count_ngrams(texts, 1, 4) == expected, (name, lang)
        assert train(lines, lang).counts == expected, (name, lang)
