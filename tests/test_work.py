"""Work counts: how often each traced layer runs for train, detect and evaluate.

Call counts are deterministic, unlike timings, so they prove on any machine
that no pass over the data was added or lost. The counting reuses the
benchmark's own tracer (bench/spans.py), extended by ``fileio.loads``, on the
inputs of test_golden.py's pipeline. A change that removes work lowers the
numbers here in the same diff.
"""
import importlib.util
import json
from pathlib import Path

import pytest

from codemix import cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# The golden detect corpus: 60 synthetic documents plus one too short to score.
DOCS, CHUNKS, SCORED, PROFILES, TRAIN_LINES = 61, 241, 240, 2, 80

#: Layers the detect path must reach; losing one drops the benchmark's metrics for it.
DETECT_LAYERS = (
    "detector.detect", "detector.split_chunks", "detector.aggregate", "langid.identify",
    "langid.score", "langid.extract_ngrams", "textnorm.normalize", "textnorm.tokenize",
)


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def work(tmp_path_factory, overlapping_languages):
    """Run the pipeline under the tracer; map each step to its calls per layer."""
    spans = load_spans()
    d = tmp_path_factory.mktemp("work")
    tracer = spans.Tracer()
    tracer.names.append("fileio.loads")
    calls = {}

    def step(name, *argv):
        mark = tracer.mark()
        assert cli.run([*argv, "--out", str(d / name)]) == 0, name
        stats = spans.summarize(tracer.spans, mark, tracer.names)
        calls[name] = {layer: s["calls"] for layer, s in stats.items()}

    (d / "profiles").mkdir()
    tracer.install()
    try:
        for lang, (pool, lines) in overlapping_languages.items():
            (d / f"{lang}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
            (d / f"pool_{lang}.txt").write_text(" ".join(pool) + "\n", encoding="utf-8")
            step(f"profiles/{lang}.profile", "train", "--lang", lang,
                 "--input", str(d / f"{lang}.txt"))
        step("synth", "synth", "--lang-a", "xa", "--lang-b", "xb",
             "--source-a", str(d / "pool_xa.txt"), "--source-b", str(d / "pool_xb.txt"),
             "--n-docs", "60", "--mix-rate", "0.5", "--tokens-per-doc", "12", "--seed", "3")
        corpus = d / "corpus.jsonl"
        short = b'{"id": "short", "text": "Ab!", "tags": "xa"}\n'
        corpus.write_bytes((d / "synth").read_bytes() + short)
        step("detect", "detect", "--profiles", str(d / "profiles"), "--input", str(corpus))
        step("evaluate", "evaluate", "--input", str(d / "detect"), "--format", "json")
    finally:
        tracer.uninstall()
    records = [json.loads(line) for line in (d / "detect").read_text(encoding="utf-8").splitlines()]
    chunks = [chunk for record in records for chunk in record["chunks"]]
    assert (len(records), len(chunks), sum(c["reliable"] for c in chunks)) == (DOCS, CHUNKS, SCORED)
    return calls


@pytest.mark.parametrize("lang", ["xa", "xb"])
def test_train_normalizes_and_counts_each_line_once(work, lang):
    assert work[f"profiles/{lang}.profile"] == {
        "cli.run": 1,
        "langid.train": 1,
        "textnorm.normalize": TRAIN_LINES,
        "langid.save_profile": 1,
    }


def test_detect_work(work):
    assert work["detect"] == {
        "cli.run": 1,
        "langid.load_profile_set": 1,
        "langid.load_profile": PROFILES,
        "fileio.loads": PROFILES + DOCS,
        "detector.detect": DOCS,
        "textnorm.tokenize": DOCS,
        "detector.split_chunks": DOCS,
        "detector.aggregate": DOCS,
        # once per document, then again per chunk inside identify
        "textnorm.normalize": DOCS + CHUNKS,
        "langid.identify": CHUNKS,
        # each scored chunk's grams are extracted once and scored against every profile in one call
        "langid.score": SCORED,
        "langid.extract_ngrams": SCORED,
    }


def test_detect_reaches_every_traced_layer(work):
    assert [layer for layer in DETECT_LAYERS if work["detect"].get(layer, 0) < 1] == []


def test_evaluate_work(work):
    assert work["evaluate"] == {
        "cli.run": 1,
        "fileio.loads": DOCS,
        "evaluation.confusion": 1,
        "evaluation.metrics": 1,
        "evaluation.majority_class": 1,
        "corpus.label_distribution": 1,
    }
