"""Golden outputs: every subcommand, run once on a small seeded corpus.

Each output's sha256 is pinned, so a refactor that changes any byte of
CLI machine or table output fails here. The corpus uses the overlapping
alphabets of ``conftest.overlapping_languages``, which give close scores.
A digest may only change together with a deliberate change of output.
"""
import hashlib
import json

import pytest

from codemix.cli import run

# Training text split by every separator str.splitlines knows, not only "\n".
TRAIN_SEPARATORS = ("\n", "\r\n", "\r", "\x85", "\u2028", "\u2029", "\x0b", "\x1c")

GOLDEN = {
    "train_xa": "3723366e754fc363d42b9ec823ff36b477aa5784a1c706d172a6b8553b52f81c",
    "train_xb": "3bee05a12260b209ea8535885f0fd445bdb55031e6f150dc6b3579a33dd18934",
    "synth": "06d67ad0a3614306a8f61a03b3a9a4c7adc9080999c97db847dacbf09bc42cb9",
    "identify_json": "a1ab36881bb9fdbfa7486becb365b2494f918453ce2ab334302bc10b520babce",
    "identify_table": "b0f89eae59c0e9fe0d605d5793980bea41973a0ff48ad6d5b9b4f34fcb6eb936",
    "detect_k4": "08a399cee23363c1727a5d3c847f64f4e7aed8193af803917a3c36f1ce1080f9",
    "detect_k12": "983b81426f346b672c9dd11af17735d07835251aa6c405341eeaf874750b0a5d",
    "evaluate_json": "1b7c073cbf4e5227c28b543b4ae9a333cec98e088f91d2c812a329d2bfb37da4",
    "evaluate_table": "fd74578b972b0ed3a8489eec9d24f53c271ac912be75f072b0f03bf7c8462a9f",
    "distribution_json": "6154048945bdb6aed793f2e7ad2426816b2871090405fe082a94116b21a65a49",
    "distribution_table": "5f2db0f91af408e22d9ee978c77ec34f6423aecd91d82c8bf9ff57f84bcebc8f",
    "distribution_classes_json": "89be07a826d455199dca006e80cb81bf7a21b03035fb38e30dc5954735f7acd4",
    "distribution_classes_table": "907dc0372eb2acb7d78c7636a44b021e25118f4da111dc38e4960d32acbcee02",
    "baseline": "c6c543e608fc2bb2314e286276b64f51b42a061b1b6b45b3929fa953396999f2",
    "baseline_table": "581a7efb9ba1a064377cb0e304e4fdadfc038b73a4f2b2a7a58c727a915b675b",
    "sample": "4f4a891c1defa114f204f4eb1e91b84757f5a04f110a0eafea3d8c5f1c979c10",
    "dedupe": "06d67ad0a3614306a8f61a03b3a9a4c7adc9080999c97db847dacbf09bc42cb9",
    "chisq_json": "ecb473ae491e3eab63659044bd0de6597b53182a01efc9d520d353f445a67ead",
    "chisq_table": "0073047a3b10055cb782947d87b0efe76b366beff982cd3ab65bf443686fad2d",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory, overlapping_languages):
    """Run the pipeline once; map each output name to its bytes."""
    d = tmp_path_factory.mktemp("golden")
    (pool_a, lines_a), (pool_b, lines_b) = overlapping_languages["xa"], overlapping_languages["xb"]
    out = {}

    def cli(name, *argv):
        path = d / name
        assert run([*argv, "--out", str(path)]) == 0, name
        out[name] = path.read_bytes()
        return path

    profiles = d / "profiles"
    profiles.mkdir()
    for lang, lines in (("xa", lines_a), ("xb", lines_b)):
        src = d / f"{lang}.txt"
        seps = TRAIN_SEPARATORS
        text = "".join(line + seps[i % len(seps)] for i, line in enumerate(lines))
        src.write_bytes(text.encode("utf-8"))
        path = cli(f"train_{lang}", "train", "--lang", lang, "--input", str(src))
        (profiles / f"{lang}.profile").write_bytes(path.read_bytes())

    for lang, pool in (("xa", pool_a), ("xb", pool_b)):
        (d / f"pool_{lang}.txt").write_text(" ".join(pool) + "\n", encoding="utf-8")
    synth = cli(
        "synth", "synth", "--lang-a", "xa", "--lang-b", "xb",
        "--source-a", str(d / "pool_xa.txt"), "--source-b", str(d / "pool_xb.txt"),
        "--n-docs", "60", "--mix-rate", "0.5", "--tokens-per-doc", "12", "--seed", "3",
    )

    lines = d / "lines.txt"
    lines.write_text(
        f"{' '.join(pool_a[:4])}\n{' '.join(pool_b[:4])}\n{pool_a[5]} {pool_b[5]}\n!!\n",
        encoding="utf-8",
    )
    cli("identify_json", "identify", "--profiles", str(profiles), "--input", str(lines),
        "--format", "json")
    cli("identify_table", "identify", "--profiles", str(profiles), "--input", str(lines))

    # The synthetic corpus plus a record too short to identify ("und").
    corpus = d / "corpus.jsonl"
    corpus.write_bytes(synth.read_bytes() + b'{"id": "short", "text": "Ab!", "tags": "xa"}\n')
    cli("detect_k4", "detect", "--profiles", str(profiles), "--input", str(corpus),
        "--chunks", "4")
    tagged = cli("detect_k12", "detect", "--profiles", str(profiles), "--input", str(corpus),
                 "--chunks", "12")

    cli("evaluate_json", "evaluate", "--input", str(tagged), "--format", "json")
    cli("evaluate_table", "evaluate", "--input", str(tagged), "--classes", "xa", "xb")

    pred = ("--input", str(tagged), "--tag-field", "pred")
    cli("distribution_json", "distribution", *pred, "--format", "json")
    cli("distribution_table", "distribution", *pred)
    cli("distribution_classes_json", "distribution", *pred, "--classes", "xb", "xa",
        "--format", "json")
    cli("distribution_classes_table", "distribution", *pred, "--classes", "xb", "xa")

    cli("baseline", "baseline", "--input", str(synth), "--format", "json")
    cli("baseline_table", "baseline", "--input", str(synth))
    cli("sample", "sample", *pred, "--n", "5", "--seed", "2", "--pairs-of", "xa,xb")

    records = [json.loads(line) for line in synth.read_text(encoding="utf-8").splitlines()]
    dups = d / "dups.jsonl"
    with dups.open("w", encoding="utf-8") as fh:
        for i, rec in enumerate(records):
            fh.write(json.dumps(rec) + "\n")
            if i % 4 == 0:
                dup = {"id": f"dup-{i}", "text": rec["text"].upper() + "!!", "tags": rec["tags"]}
                fh.write(json.dumps(dup) + "\n")
    cli("dedupe", "dedupe", "--input", str(dups))

    cli("chisq_json", "chisq", "--observed", "306,18,13,63",
        "--expected", "0.557,0.203,0.084,0.155", "--format", "json")
    cli("chisq_table", "chisq", "--observed", "60,40", "--expected", "0.5,0.5")
    return out


def test_every_output_is_pinned(outputs):
    assert set(outputs) == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(outputs, name):
    assert _sha(outputs[name]) == GOLDEN[name]


# Three languages, so each softmax and chi-square sum has more than two terms.
GOLDEN_THREE = {
    "identify_json": "1ebd21989b47966eb4531b3c4c55137d23b311d46006b6110d2db87ba61af218",
    "detect_k12": "75d2a2862b79a74cd63672365ce594065c93f844edbe007094b42cbdc594e520",
    "chisq_json": "6a74eef5a1b402c2afc2faf430113cdb614c71173ccdf0ad9581d93b958e0029",
}


@pytest.fixture(scope="module")
def outputs_three(tmp_path_factory, synthetic_languages, overlapping_languages):
    """identify, detect and chisq over three languages; map each output name to its bytes."""
    d = tmp_path_factory.mktemp("golden_three")
    pools = {
        "xa": synthetic_languages["xa"],
        "xb": synthetic_languages["xb"],
        "xc": overlapping_languages["xa"],
    }
    out = {}

    def cli(name, *argv):
        path = d / name
        assert run([*argv, "--out", str(path)]) == 0, name
        out[name] = path.read_bytes()
        return path

    profiles = d / "profiles"
    profiles.mkdir()
    for lang, (_, lines) in pools.items():
        src = d / f"{lang}.txt"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(["train", "--lang", lang, "--input", str(src),
                    "--out", str(profiles / f"{lang}.profile")]) == 0

    # one word of each language per line, so all three confidences matter
    words = list(zip(*(pool[:20] for pool, _ in pools.values())))
    lines = d / "lines.txt"
    lines.write_text("".join(f"{a} {b} {c}\n" for a, b, c in words), encoding="utf-8")
    cli("identify_json", "identify", "--profiles", str(profiles), "--input", str(lines),
        "--format", "json")

    # each record runs through the three pools in turn, from a different word on
    corpus = d / "corpus.jsonl"
    with corpus.open("w", encoding="utf-8") as fh:
        for i in range(30):
            text = " ".join(
                pools[lang][0][(i * 7 + j) % 20]
                for j in range(12 + i % 7)
                for lang in [("xa", "xb", "xc")[(i + j // 4) % 3]]
            )
            fh.write(json.dumps({"id": f"m{i}", "text": text, "tags": "xa,xb,xc"}) + "\n")
    cli("detect_k12", "detect", "--profiles", str(profiles), "--input", str(corpus),
        "--chunks", "12")

    cli("chisq_json", "chisq", "--observed", "10,10,10", "--expected", "0.7,0.2,0.1",
        "--format", "json")
    return out


def test_every_three_language_output_is_pinned(outputs_three):
    assert set(outputs_three) == set(GOLDEN_THREE)


@pytest.mark.parametrize("name", sorted(GOLDEN_THREE))
def test_golden_three_languages(outputs_three, name):
    assert _sha(outputs_three[name]) == GOLDEN_THREE[name]
