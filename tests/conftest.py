import importlib
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from codemix import langid

LETTERS_A = "abcdefghij"
LETTERS_B = "qrstuvwxyz"
# Two alphabets sharing "hijklm", so the two languages score close.
LETTERS_C = "abcdefghijklm"
LETTERS_D = "hijklmnopqrst"

POOL_SEED = 20240615

BENCH = Path(__file__).resolve().parents[1] / "bench"


def make_pool(rng, letters, n_words=150, min_len=4, max_len=8):
    words = set()
    while len(words) < n_words:
        length = rng.randint(min_len, max_len)
        words.add("".join(rng.choice(letters) for _ in range(length)))
    return tuple(sorted(words))


def make_lines(rng, pool, n_lines=300, words_per_line=8):
    return [" ".join(rng.choice(pool) for _ in range(words_per_line)) for _ in range(n_lines)]


@pytest.fixture(scope="session")
def synthetic_languages():
    """Two synthetic languages over disjoint alphabets: pools, training lines."""
    rng = random.Random(POOL_SEED)
    pool_a = make_pool(rng, LETTERS_A)
    pool_b = make_pool(rng, LETTERS_B)
    lines_a = make_lines(rng, pool_a)
    lines_b = make_lines(rng, pool_b)
    return {"xa": (pool_a, lines_a), "xb": (pool_b, lines_b)}


@pytest.fixture(scope="session")
def overlapping_languages():
    """Two synthetic languages over overlapping alphabets, word pools disjoint."""
    rng = random.Random(POOL_SEED + 1)
    pool_a = make_pool(rng, LETTERS_C, n_words=60)
    pool_b = tuple(w for w in make_pool(rng, LETTERS_D, n_words=60) if w not in pool_a)
    lines_a = make_lines(rng, pool_a, n_lines=80)
    lines_b = make_lines(rng, pool_b, n_lines=80)
    return {"xa": (pool_a, lines_a), "xb": (pool_b, lines_b)}


@pytest.fixture(scope="session")
def trained_profiles(synthetic_languages):
    profiles = {
        lang: langid.train(lines, lang)
        for lang, (_, lines) in synthetic_languages.items()
    }
    return langid.ProfileSet(profiles)


@pytest.fixture(scope="session")
def bench():
    """bench/'s ``checks``, ``inputs`` and ``run`` modules, imported unedited."""
    sys.path.insert(0, str(BENCH))
    try:
        return SimpleNamespace(**{name: importlib.import_module(name) for name in ("checks", "inputs", "run")})
    finally:
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="session")
def bench_pipeline(bench, tmp_path_factory):
    """bench/run.py's ``Pipeline`` for a workload at seed 1, its inputs generated once per session."""
    pipelines = {}

    def pipeline(name):
        if name not in pipelines:
            work = tmp_path_factory.mktemp(name)
            workload = bench.inputs.WORKLOADS[name]
            pipelines[name] = bench.run.Pipeline(workload, bench.inputs.generate(workload, 1, work), 1, work,
                                                 bench.checks.Ledger())
        return pipelines[name]
    return pipeline
