#!/usr/bin/env python3
"""Reduce end-to-end benchmark reports to one committed BENCH_<n>.json.

    python3 scripts/bench_summary.py --out BENCH_29.json parent=PARENT/.bench_out change=.bench_out

Each ``SIDE=DIR`` names one side of a comparison and the directory holding
its ``bench/run.py --trace 0`` reports (``*-t0.json``). For each workload
and side the output holds the median and quartiles of every end-to-end
metric, the seeds, and each seed's ``detect`` output digest; each side
records its commit, Python version and CPU count. With two sides, each
metric also gets the ratio of the medians (second side over first), how
many same-seed pairs the second side won, in the direction BENCHMARK.json
gives, and whether the ratio is within that metric's BENCHMARK.json bound:
at least 1 - bound where higher is better, at most 1 + bound where lower is.
Each metric also gets the two tests of a claimed move: ``sign_test_p``, the
exact two-sided binomial p-value of the pairs won against the pairs lost,
ties dropped, and ``beyond_first_iqr``, whether the medians differ by more
than the first side's interquartile range (q3 - q1). ``median_pair_ratio``
is the median, over the seeds both sides ran, of the second side's value
over the first's (None when a first-side value is 0). Each workload gets
``detect_output_equal``, whether every seed both sides ran gave the same
``detect`` output digest on both. Each side also holds the median and
quartiles of each report's ``raw`` metrics, the timed metrics computed from
unscaled seconds, and with two sides ``raw_comparison`` gives their ratios,
pairs won, median pair ratio and the two tests, with no bound, so a move
that only the calibration rescaling makes shows as one.

A side whose reports come from more than one commit is refused, and so is
a report with failed operations or a missing metric, reports of different
run lengths, and a workload and seed whose inputs differ between sides.
Standard library only.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class Refused(Exception):
    """The reports cannot be summarized together."""


def read_side(directory: Path) -> list[dict]:
    """The end-to-end reports in ``directory``; each must be a correct run."""
    reports = []
    for path in sorted(directory.glob("*-t0.json")):
        report = json.loads(path.read_text(encoding="utf-8"))
        if report.get("trace") != 0 or report.get("failed") != 0 or report.get("missing_metrics") != []:
            raise Refused(f"{path}: not a correct end-to-end run (failed={report.get('failed')!r}, "
                          f"missing={report.get('missing_metrics')!r})")
        reports.append(report)
    if not reports:
        raise Refused(f"{directory}: no *-t0.json reports")
    commits = {r["environment"]["git_commit"] for r in reports}
    if len(commits) != 1:
        raise Refused(f"{directory}: reports from {len(commits)} commits {sorted(map(str, commits))}; "
                      "one side is one commit")
    return reports


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of ``values``, with their count."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def sign_test_p(won: int, lost: int) -> float:
    """Exact two-sided binomial p-value of ``won`` pairs against ``lost``, ties already dropped."""
    n = won + lost
    return min(1.0, 2 * sum(math.comb(n, i) for i in range(min(won, lost) + 1)) / 2**n)


def summarize(sides: dict[str, list[dict]], metrics: dict[str, dict]) -> dict:
    """The summary document for ``sides`` (name -> reports); ``metrics`` maps each end-to-end
    metric to its BENCHMARK.json entry, which gives ``better`` ("higher"/"lower") and ``bound``."""
    seconds = {r["seconds"] for reports in sides.values() for r in reports}
    if len(seconds) != 1:
        raise Refused(f"reports of different run lengths: {sorted(seconds)} s")
    doc: dict = {"seconds": seconds.pop(), "sides": {}, "workloads": {}}
    for name, reports in sides.items():
        env = reports[0]["environment"]
        doc["sides"][name] = {"commit": env["git_commit"], "python": env["python"],
                              "cpu_count": env["cpu_count"], "reports": len(reports)}
    by_run: dict[tuple[str, int], dict[str, dict]] = {}
    for name, reports in sides.items():
        for r in reports:
            by_run.setdefault((r["workload"], r["seed"]), {})[name] = r
    for (workload, seed), runs in sorted(by_run.items()):
        if len({json.dumps(r["inputs_sha256"], sort_keys=True) for r in runs.values()}) > 1:
            raise Refused(f"{workload} seed {seed}: the sides' inputs differ")

    for workload in sorted({w for w, _ in by_run}):
        entry: dict = {}
        runs_here = [r for reports in sides.values() for r in reports if r["workload"] == workload]
        raw_metrics = [m for m in metrics if all(m in r["raw"] for r in runs_here)]
        for name, reports in sides.items():
            mine = sorted((r for r in reports if r["workload"] == workload), key=lambda r: r["seed"])
            if mine:
                entry[name] = {
                    "seeds": [r["seed"] for r in mine],
                    "detect_output_sha256": {str(r["seed"]): r["detect_output_sha256"] for r in mine},
                    "metrics": {m: spread([r["metrics"][m] for r in mine]) for m in metrics},
                    "raw": {m: spread([r["raw"][m] for r in mine]) for m in raw_metrics},
                }
        if len(sides) == 2 and len(entry) == 2:
            first, second = sides
            pairs = [runs for (w, _), runs in sorted(by_run.items()) if w == workload and len(runs) == 2]

            def compare(key: str, metric: str) -> dict:
                """``metric`` in the reports' ``key`` ("metrics" or "raw"): the ratio of medians (second
                side over first; None when the first is 0), the pairs the second won, the median of the
                pairs' ratios (None when a first value is 0) and the two tests."""
                sign = 1 if metrics[metric]["better"] == "higher" else -1
                values = [(runs[first][key][metric], runs[second][key][metric]) for runs in pairs]
                moves = [sign * (b - a) for a, b in values]
                won, lost = sum(m > 0 for m in moves), sum(m < 0 for m in moves)
                base, other = entry[first][key][metric], entry[second][key][metric]
                return {"ratio": other["median"] / base["median"] if base["median"] else None,
                        "pairs_won": won, "pairs": len(pairs), "sign_test_p": sign_test_p(won, lost),
                        "beyond_first_iqr": abs(other["median"] - base["median"]) > base["q3"] - base["q1"],
                        "median_pair_ratio": statistics.median(b / a for a, b in values)
                        if values and all(a for a, _ in values) else None}

            entry["detect_output_equal"] = all(
                runs[first]["detect_output_sha256"] == runs[second]["detect_output_sha256"] for runs in pairs)
            entry["comparison"] = {}
            for metric, rule in metrics.items():
                moved = compare("metrics", metric)
                ratio = moved["ratio"]
                within = None if ratio is None else (
                    ratio >= 1 - rule["bound"] if rule["better"] == "higher" else ratio <= 1 + rule["bound"])
                entry["comparison"][metric] = {**moved, "bound": rule["bound"], "within_bound": within}
            entry["raw_comparison"] = {metric: compare("raw", metric) for metric in raw_metrics}
        doc["workloads"][workload] = entry
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sides", nargs="+", metavar="SIDE=DIR", help="a side's name and its report directory")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    try:
        sides = {}
        for item in args.sides:
            name, sep, directory = item.partition("=")
            if not sep or not name or name in sides:
                raise Refused(f"expected distinct SIDE=DIR arguments, got {item!r}")
            sides[name] = read_side(Path(directory))
        doc = summarize(sides, metrics)
    except Refused as exc:
        print(f"bench_summary: refused: {exc}", file=sys.stderr)
        return 1
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
