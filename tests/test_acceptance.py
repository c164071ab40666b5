"""Acceptance suite: the release gate for the whole toolkit.

Each test covers one acceptance criterion at its stated tolerance and
prints a single PASS line when it holds (run with -s or -rP to see them).
"""
import json
import math
import os
import random
import subprocess
import sys
import time
import unicodedata
from pathlib import Path

import pytest

import codemix
from codemix import langid, synth
from codemix.cli import run
from codemix.corpus import Document, sample
from codemix.detector import detect_all
from codemix.errors import EmptyInput
from codemix.evaluation import chi2_sf, confusion, majority_class, metrics
from codemix.langid import load_profile, profile_to_json, save_profile, train
from codemix.tags import LanguageTag
from codemix.textnorm import normalize
from oracles import chi2_sf_quadrature, metrics_by_loops, random_unicode_string

PASS = "ACCEPTANCE PASS:"


def test_chi_square_reconstruction(capsys):
    started = time.perf_counter()
    code = run(
        ["chisq", "--observed", "306,18,13,63",
         "--expected", "0.557,0.203,0.084,0.155", "--format", "json"]
    )
    elapsed = time.perf_counter() - started
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert 92.0 <= doc["statistic"] <= 94.5
    assert doc["df"] == 3
    assert doc["p_display"] == "< 2.2e-16"
    assert elapsed < 1.0
    print(f"\n{PASS} chi-square reconstruction "
          f"(statistic={doc['statistic']:.3f}, df=3, p {doc['p_display']}, {elapsed:.2f}s)")


def test_majority_baseline_reconstruction():
    started = time.perf_counter()
    gold = (
        [LanguageTag.parse("en")] * 306
        + [LanguageTag.parse("zu")] * 18
        + [LanguageTag.parse("xh")] * 13
        + [LanguageTag.parse("en,zu")] * 18
        + [LanguageTag.parse("en,xh")] * 11
        + [LanguageTag.parse("zu,xh")] * 2
        + [LanguageTag.parse("st,en")] * 13
        + [LanguageTag.parse("st")] * 19
    )
    assert len(gold) == 400
    baseline = majority_class(gold)[1]
    elapsed = time.perf_counter() - started
    assert baseline == 0.765
    assert elapsed < 1.0
    print(f"\n{PASS} majority baseline reconstruction (0.765 exactly, {elapsed:.2f}s)")


def test_chi2_sf_correctness():
    for x in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
        assert abs(chi2_sf(x, 2) - math.exp(-x / 2)) <= 1e-10

    oracle = chi2_sf_quadrature(3.841, 1)
    mine = chi2_sf(3.841, 1)
    assert 0.0498 <= oracle <= 0.0502
    assert 0.0498 <= mine <= 0.0502
    assert abs(mine - oracle) <= 1e-9

    for k in (1, 2, 3, 10, 100):
        grid = [chi2_sf(i * 0.1, k) for i in range(1000)]
        assert all(a >= b for a, b in zip(grid, grid[1:]))
    print(f"\n{PASS} chi2_sf correctness (df=2 closed form 1e-10, "
          f"sf(3.841,1)={mine:.5f}, monotone on 1000-point grids)")


def test_metric_identities():
    rng = random.Random(2718)
    for trial in range(1000):
        n_classes = rng.randint(1, 10)
        classes = [f"c{chr(ord('a') + i)}" for i in range(n_classes)]
        n_docs = rng.randint(1, 10_000 if trial % 100 == 0 else 500)
        gold = [rng.choice(classes) for _ in range(n_docs)]
        pred = [rng.choice(classes) for _ in range(n_docs)]
        matrix = confusion(
            [LanguageTag.parse(g) for g in gold],
            [LanguageTag.parse(p) for p in pred],
        )
        report = metrics(matrix)
        assert report.weighted_recall == report.accuracy
        expected = metrics_by_loops(gold, pred)
        assert abs(report.accuracy - expected["accuracy"]) <= 1e-12
        assert abs(report.weighted_precision - expected["weighted_precision"]) <= 1e-12
        assert abs(report.weighted_recall - expected["weighted_recall"]) <= 1e-12
    print(f"\n{PASS} metric identities (1000 randomized matrices, oracle match at 1e-12)")


def test_chunking_properties():
    from codemix.detector import split_chunks

    for t in range(1, 201):
        tokens = [f"w{i}" for i in range(t)]
        for k in range(1, 9):
            chunks = split_chunks(tokens, k)
            assert len(chunks) == min(k, t)
            sizes = [len(c) for c in chunks]
            assert max(sizes) - min(sizes) <= 1
            assert [tok for chunk in chunks for tok in chunk] == tokens
    print(f"\n{PASS} chunking properties (token counts 1..200 x k 1..8)")


def test_normalization_properties():
    rng = random.Random(31337)
    checked = 0
    for _ in range(100_000):
        text = random_unicode_string(rng, max_len=10)
        out = normalize(text)
        assert normalize(out) == out
        for ch in out:
            assert ch == " " or unicodedata.category(ch)[0] in ("L", "M")
        checked += 1
    assert checked == 100_000
    print(f"\n{PASS} normalization properties (idempotence + alphabet on 1e5 fuzz strings)")


def test_end_to_end_synthetic_detection(synthetic_languages):
    started = time.perf_counter()
    pool_a, lines_a = synthetic_languages["xa"]
    pool_b, lines_b = synthetic_languages["xb"]
    assert sum(len(line.split()) for line in lines_a) >= 2000
    assert sum(len(line.split()) for line in lines_b) >= 2000
    profiles = langid.ProfileSet(
        {"xa": train(lines_a, "xa"), "xb": train(lines_b, "xb")}
    )

    mix = dict(
        lang_a="xa", lang_b="xb",
        source_a=pool_a, source_b=pool_b,
        n_docs=2000, mix_rate=0.5, tokens_per_doc=12, seed=99,
    )
    docs = synth.generate(**mix)
    # one chunk per token: every switch point is observable, so the 0.95
    # bars are attainable (k=4 tops out near 0.82 code-switch recall when
    # switch points fall inside a chunk)
    results = detect_all(docs, profiles, k=12)

    exact = sum(1 for d, r in zip(docs, results) if r.tag == d.gold_tag)
    accuracy = exact / len(docs)
    mixed = [(d, r) for d, r in zip(docs, results) if d.gold_tag.is_multilingual]
    recall = sum(1 for _, r in mixed if r.code_switched) / len(mixed)

    rerun = detect_all(synth.generate(**mix), profiles, k=12)
    assert [r.tag for r in rerun] == [r.tag for r in results]

    elapsed = time.perf_counter() - started
    assert accuracy >= 0.95
    assert recall >= 0.95
    assert elapsed < 30.0
    print(f"\n{PASS} end-to-end synthetic detection "
          f"(accuracy={accuracy:.4f}, code-switch recall={recall:.4f}, {elapsed:.1f}s)")


def test_sampling_determinism(tmp_path):
    docs = [Document(id=str(i), text=f"document number {i}") for i in range(5000)]
    ids = [d.id for d in sample(docs, n=400, seed=42)]
    assert ids == [d.id for d in sample(docs, n=400, seed=42)]

    # across process restarts: run the CLI twice in fresh interpreters
    corpus_path = tmp_path / "corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for d in docs:
            fh.write(json.dumps({"id": d.id, "text": d.text}) + "\n")
    # the fresh interpreters import the same codemix package as this one
    package_root = str(Path(codemix.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    outputs = []
    for attempt in ("one", "two"):
        out = tmp_path / f"sample-{attempt}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "codemix.cli", "sample",
             "--input", str(corpus_path), "--n", "400", "--seed", "42",
             "--out", str(out)],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    print(f"\n{PASS} sampling determinism (same ids in-process and across process restarts)")


def test_profile_round_trip(tmp_path):
    rng = random.Random(404)
    alphabet = "abcdefghijklmnopqrstuvwxyz éüẓ"
    for i in range(100):
        lines = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(3, 60)))
            for _ in range(rng.randint(1, 10))
        ]
        n_min = rng.randint(1, 3)
        n_max = rng.randint(n_min, 5)
        alpha = rng.choice([0.1, 0.25, 0.5, 1.0, 1.7])
        try:
            profile = train(lines, "aa", n_min=n_min, n_max=n_max, alpha=alpha)
        except EmptyInput:
            profile = train(["fallback words"], "aa", n_min=n_min, n_max=n_max, alpha=alpha)
        path = tmp_path / f"{i}.profile"
        save_profile(profile, path)
        first = path.read_bytes()
        loaded = load_profile(path)
        assert loaded == profile
        assert profile_to_json(loaded).encode("utf-8") == first
        save_profile(loaded, path)
        assert path.read_bytes() == first
    print(f"\n{PASS} profile round-trip (100 randomized profiles byte-identical)")
