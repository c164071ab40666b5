"""scripts/bench_summary.py: medians, quartiles and the tests of a move per workload and side, and its refusals."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_summary.py"
METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]]
#: The timed metrics, which bench/run.py also reports from unscaled seconds as "raw".
RAW = ["setup_s", "train_s", "detect_docs_per_s", "library_docs_per_s", "evaluate_docs_per_s", "tools_s",
       "pipeline_s"]


@pytest.fixture(scope="module")
def summary():
    spec = importlib.util.spec_from_file_location("bench_summary", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(seed, value, commit="a" * 40, failed=0, missing=(), seconds=40.0, inputs="x", setup_s=1.0,
           raw=1.0, detect=""):
    """A minimal end-to-end report of one run of bulk-eval."""
    return {
        "workload": "bulk-eval", "seed": seed, "trace": 0, "seconds": seconds,
        "inputs_sha256": {"corpus.jsonl": inputs}, "detect_output_sha256": f"d{seed}{detect}",
        "environment": {"git_commit": commit, "python": "3.11.7", "cpu_count": 2},
        "failed": failed, "missing_metrics": list(missing),
        "metrics": {**dict.fromkeys(METRICS, 1.0), "evaluate_docs_per_s": value, "setup_s": setup_s},
        "raw": {**dict.fromkeys(RAW, 1.0), "evaluate_docs_per_s": raw},
    }


def write(directory, reports):
    directory.mkdir()
    for r in reports:
        (directory / f"{r['workload']}-s{r['seed']}-t0.json").write_text(json.dumps(r), encoding="utf-8")
    return directory


def test_medians_quartiles_and_pairs(summary, tmp_path):
    parent = write(tmp_path / "parent", [report(s, v) for s, v in [(1, 10.0), (2, 20.0), (3, 30.0), (4, 40.0)]])
    change = write(tmp_path / "change", [report(s, v, commit="b" * 40)
                                         for s, v in [(1, 15.0), (2, 25.0), (3, 25.0), (4, 45.0)]])
    out = tmp_path / "BENCH.json"
    assert summary.main([f"parent={parent}", f"change={change}", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["sides"]["change"] == {"commit": "b" * 40, "python": "3.11.7", "cpu_count": 2, "reports": 4}
    entry = doc["workloads"]["bulk-eval"]
    assert entry["parent"]["seeds"] == [1, 2, 3, 4]
    assert entry["parent"]["detect_output_sha256"]["3"] == "d3"
    assert entry["parent"]["metrics"]["evaluate_docs_per_s"] == {"median": 25.0, "q1": 17.5, "q3": 32.5, "n": 4}
    assert entry["comparison"]["evaluate_docs_per_s"] == {"ratio": 1.0, "pairs_won": 3, "pairs": 4,
                                                          "sign_test_p": 0.625, "beyond_first_iqr": False,
                                                          "bound": 0.2, "within_bound": True}
    assert entry["comparison"]["setup_s"]["pairs_won"] == 0  # ties count for neither side


def test_raw_metrics_get_medians_ratios_and_pairs(summary, tmp_path):
    """A scaled loss beside an even raw result: both are reported, the raw one without a bound."""
    parent = write(tmp_path / "parent", [report(s, 10.0, raw=r) for s, r in [(1, 8.0), (2, 9.0), (3, 10.0)]])
    change = write(tmp_path / "change", [report(s, 9.0, commit="b" * 40, raw=r)
                                         for s, r in [(1, 9.0), (2, 8.0), (3, 10.0)]])
    out = tmp_path / "BENCH.json"
    assert summary.main([f"parent={parent}", f"change={change}", "--out", str(out)]) == 0
    entry = json.loads(out.read_text(encoding="utf-8"))["workloads"]["bulk-eval"]
    assert set(entry["parent"]["raw"]) == set(entry["raw_comparison"]) == set(RAW)
    assert entry["parent"]["raw"]["evaluate_docs_per_s"] == {"median": 9.0, "q1": 8.5, "q3": 9.5, "n": 3}
    assert entry["comparison"]["evaluate_docs_per_s"]["ratio"] == 0.9
    assert entry["comparison"]["evaluate_docs_per_s"]["pairs_won"] == 0
    assert entry["raw_comparison"]["evaluate_docs_per_s"] == {"ratio": 1.0, "pairs_won": 1, "pairs": 3,
                                                              "sign_test_p": 1.0, "beyond_first_iqr": False}
    assert entry["raw_comparison"]["setup_s"] == {"ratio": 1.0, "pairs_won": 0, "pairs": 3,
                                                  "sign_test_p": 1.0, "beyond_first_iqr": False}


@pytest.mark.parametrize("won, lost, p", [
    (10, 0, 0.001953125),  # 2 / 2**10
    (0, 10, 0.001953125),
    (9, 1, 0.021484375),  # 2 * (1 + 10) / 2**10
    (5, 5, 1.0),
    (0, 0, 1.0),
])
def test_sign_test_p_is_the_exact_two_sided_binomial(summary, won, lost, p):
    assert summary.sign_test_p(won, lost) == p


def test_a_tie_counts_for_neither_side(summary, tmp_path):
    """Nine wins and a tie test as 9 of 9 (2 / 2**9), not as 9 of 10."""
    parent = write(tmp_path / "parent", [report(s, 10.0) for s in range(1, 11)])
    change = write(tmp_path / "change", [report(s, 10.0 + (s > 1), commit="b" * 40) for s in range(1, 11)])
    out = tmp_path / "BENCH.json"
    assert summary.main([f"parent={parent}", f"change={change}", "--out", str(out)]) == 0
    comparison = json.loads(out.read_text(encoding="utf-8"))["workloads"]["bulk-eval"]["comparison"]
    moved = comparison["evaluate_docs_per_s"]
    assert (moved["pairs_won"], moved["pairs"], moved["sign_test_p"]) == (9, 10, 0.00390625)


@pytest.mark.parametrize("shift, beyond", [(16.0, True), (15.0, False), (-16.0, True)])
def test_beyond_first_iqr_compares_the_medians_with_the_first_sides_spread(summary, tmp_path, shift, beyond):
    """The parent's 10, 20, 30, 40 have q3 - q1 = 15; the change moves every run by ``shift``."""
    values = [10.0, 20.0, 30.0, 40.0]
    parent = write(tmp_path / "parent", [report(s, v) for s, v in enumerate(values, 1)])
    change = write(tmp_path / "change", [report(s, v + shift, commit="b" * 40) for s, v in enumerate(values, 1)])
    out = tmp_path / "BENCH.json"
    assert summary.main([f"parent={parent}", f"change={change}", "--out", str(out)]) == 0
    comparison = json.loads(out.read_text(encoding="utf-8"))["workloads"]["bulk-eval"]["comparison"]
    moved = comparison["evaluate_docs_per_s"]
    assert moved["beyond_first_iqr"] is beyond


@pytest.mark.parametrize("change_detect, equal", [("", True), ("x", False)])
def test_detect_output_equal_compares_each_shared_seed(summary, tmp_path, change_detect, equal):
    """Seed 3 runs on the parent side only, so its digest is compared with nothing."""
    parent = write(tmp_path / "parent", [report(s, 10.0, detect="p" * (s == 3)) for s in (1, 2, 3)])
    change = write(tmp_path / "change", [report(1, 10.0, commit="b" * 40),
                                         report(2, 10.0, commit="b" * 40, detect=change_detect)])
    out = tmp_path / "BENCH.json"
    assert summary.main([f"parent={parent}", f"change={change}", "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["workloads"]["bulk-eval"]["detect_output_equal"] is equal


@pytest.mark.parametrize("docs_per_s, setup_s, docs_within, setup_within", [
    (0.81, 1.24, True, True),  # evaluate_docs_per_s: higher is better, bound 0.2; setup_s: lower, 0.25
    (0.79, 1.0, False, True),
    (1.0, 1.26, True, False),
])
def test_within_bound_follows_the_direction(summary, tmp_path, docs_per_s, setup_s, docs_within,
                                            setup_within):
    parent = write(tmp_path / "parent", [report(1, 1.0)])
    change = write(tmp_path / "change", [report(1, docs_per_s, commit="b" * 40, setup_s=setup_s)])
    out = tmp_path / "BENCH.json"
    assert summary.main([f"parent={parent}", f"change={change}", "--out", str(out)]) == 0
    comparison = json.loads(out.read_text(encoding="utf-8"))["workloads"]["bulk-eval"]["comparison"]
    assert {m: c["within_bound"] for m, c in comparison.items()} == {
        **dict.fromkeys(METRICS, True), "evaluate_docs_per_s": docs_within, "setup_s": setup_within}


@pytest.mark.parametrize("fault, reason", [
    ({"commit": "c" * 40}, "2 commits"),
    ({"failed": 1}, "not a correct end-to-end run"),
    ({"missing": ["setup_s"]}, "not a correct end-to-end run"),
    ({"seconds": 1.0}, "different run lengths"),
    ({"inputs": "y"}, "inputs differ"),
])
def test_refusals(summary, tmp_path, capsys, fault, reason):
    parent = write(tmp_path / "parent", [report(1, 10.0), report(2, 10.0)])
    change = write(tmp_path / "change",
                   [report(1, 10.0, commit="b" * 40), report(2, 10.0, **{"commit": "b" * 40, **fault})])
    out = tmp_path / "BENCH.json"
    assert summary.main([f"parent={parent}", f"change={change}", "--out", str(out)]) == 1
    assert reason in capsys.readouterr().err
    assert not out.exists()
