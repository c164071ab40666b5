#!/usr/bin/env python3
"""Seeded, stdlib-only benchmark of codemix's train -> detect -> evaluate pipeline.

    python3 bench/run.py --workload sms-2l --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The benchmark generates its inputs from
the workload and the seed (bench/inputs.py), then runs rounds of the
pipeline until ``--seconds`` have passed. The load is a closed loop with
one caller: each step starts when the previous one has finished.

``--trace 0`` drives the real CLI, one child process at a time, and
reports the end-to-end metrics. ``--trace 1`` drives the same steps
in-process through ``codemix.cli.run``, once plain and once with spans
around the public functions of each layer (bench/spans.py), and reports
the per-layer metrics. Every output is checked (bench/checks.py); a
failed check is counted, not raised.

On a shared 2-core host, machine speed drifts over tens of seconds and
jitters from one half second to the next, by up to 2x. So every call is
timed between runs of a fixed stdlib calibration loop that imports
nothing from codemix. It is reported rescaled by the loops next to it to
the loop's reference time ``CAL_REF_S`` (see ``Clock``). A value in "s"
thus means seconds on a machine where the loop takes ``CAL_REF_S``.
Rounds are combined by a trimmed mean. The raw seconds and every loop
time stay in the report.

Stdout carries one JSON line of run details and then the result line:
``{"correct", "attempted", "failed", "metrics"}``. The full report is
also written to ``.bench_out/`` in the checkout, with the traced run's
spans next to it.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import itertools
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import unicodedata
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import checks
import inputs
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"

#: Children (and this process, by re-exec) run with this hash seed.
HASH_SEED = "0"
MIN_ROUNDS = 2
SETUP_PROBES = 3  # setup_s samples per round
EVALUATE_CALLS = 2  # evaluate runs per round
LIBRARY_BATCHES = 10  # calibrated parts of the in-process pass
TOOLS = ("dedupe", "sample", "distribution", "baseline")
N_MIN, N_MAX = 1, 4
#: A chunk whose top-2 confidences differ by less than this is low-margin.
LOW_MARGIN = 0.1
#: Loops on each side of a call that calibrate it; see Clock.
CAL_NEIGHBOURS = 3
#: Reference time of one calibration loop; timings are rescaled to it.
CAL_REF_S = 0.015
#: Fixed chi-square grid for special.chi2_sf.us_per_call: (statistic, df).
CHI2_GRID = [(x, k) for k in (1, 2, 3, 5, 10, 20, 50) for x in (0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 300.0)]
CHI2_GRID_PASSES = 20

#: End-to-end metric -> unit. bench/README.md says which step each one times.
END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "detect_docs_per_s": "docs/s",
    "library_docs_per_s": "docs/s",
    "evaluate_docs_per_s": "docs/s",
    "tools_s": "s",
    "pipeline_s": "s",
    "train_peak_rss_mb": "MiB",
    "detect_peak_rss_mb": "MiB",
    "evaluate_peak_rss_mb": "MiB",
    "tag_accuracy": "ratio",
    "cs_recall": "ratio",
}


def per_layer_names() -> dict[str, str]:
    """Per-layer metric name -> unit, in report order."""
    names: dict[str, str] = {}
    for target in spans.TARGETS:
        if target != "cli.run":
            names[f"{target}.calls"] = "count"
        names[f"{target}.self_s"] = "s"
    names["detector.detect.p50_us"] = "us"
    names["detector.detect.p99_us"] = "us"
    names.update({
        "textnorm.normalize.calls_per_doc": "count",
        "langid.grams_scored": "count",
        "langid.unseen_gram_share": "ratio",
        "langid.low_margin_share": "ratio",
        "langid.profile_grams": "count",
        "detector.und_chunk_share": "ratio",
        "corpus.load.mb_per_s": "MB/s",
        "special.chi2_sf.us_per_call": "us",
        "trace.overhead_ratio": "ratio",
        "failed_ops_ratio": "ratio",
    })
    return names


# --- calibration ---

def _calibration_data() -> tuple[str, dict[str, int], list[str]]:
    """Fixed inputs for the calibration loop: noisy text, a gram table, JSONL records."""
    rng = random.Random(20191113)
    words = ["".join(rng.choice("abcdefghijklmnoprstuvwyzáéñ") for _ in range(rng.randint(2, 9))) for _ in range(2500)]
    table: dict[str, int] = {}
    text = " ".join(words)
    for n in range(1, 5):
        for i in range(len(text) - n + 1):
            table[text[i : i + n]] = table.get(text[i : i + n], 0) + 1
    noisy = " ".join(w.upper() + "!" if i % 7 == 0 else w for i, w in enumerate(words[:300]))
    records = [json.dumps({"id": f"d{i}", "text": noisy[i * 20 : i * 20 + 80], "tags": "ka,lu"}) for i in range(150)]
    return noisy, table, records


_CAL_TEXT, _CAL_TABLE, _CAL_RECORDS = _calibration_data()


def _calibration_loop() -> float:
    """Fixed stdlib work shaped like the pipeline, about 20 ms here.

    Half is a miniature of detect (clean text by Unicode category, look up
    n-grams in a table, take logs, decode JSON records), half allocates
    many small objects and encodes some of them. Measured against pieces
    of the real pipeline on this machine, this pair followed the drift
    better than a tight loop: a tight loop speeds up by more than the
    pipeline does when the machine's load drops.
    """
    kept = []
    for ch in _CAL_TEXT.casefold():
        if ch.isspace():
            kept.append(" ")
        elif unicodedata.category(ch)[0] in "LM":
            kept.append(ch)
    text = " ".join("".join(kept).split())
    acc = 0.0
    for n in range(1, 5):
        for i in range(len(text) - n + 1):
            acc += math.log(_CAL_TABLE.get(text[i : i + n], 0) + 0.5)
    for record in _CAL_RECORDS:
        acc += len(json.loads(record)["text"])
    objects = [{"i": i, "s": str(i) * 3, "l": [i, i + 1]} for i in range(8000)]
    acc += len(json.dumps(objects[:1500]))
    return acc


@dataclass
class Timing:
    """One timed call: when it started, raw seconds, and the calibration around it."""

    start: float
    raw_s: float
    cal_s: float = math.nan
    rss_mb: float = 0.0

    @property
    def scaled_s(self) -> float:
        return self.raw_s * CAL_REF_S / self.cal_s


class Clock:
    """Times calls with a run of the calibration loop before and after each.

    Machine speed drifts over tens of seconds and also jitters from one
    half second to the next. A call's calibration is the mean time of the
    ``CAL_NEIGHBOURS`` loops just before it and as many just after it:
    local in time, yet not a single noisy loop. The loops after a call
    run later, so calibrations are assigned by ``finish()``.
    """

    def __init__(self) -> None:
        self.loops: list[tuple[float, float]] = []  # (start, seconds)
        self.timings: list[tuple[str, Timing]] = []
        self._origin = time.perf_counter()

    def _calibrate(self) -> None:
        # A collection triggered by garbage the timed work left behind is not machine speed.
        gc.disable()
        try:
            start = time.perf_counter()
            _calibration_loop()
            self.loops.append((start - self._origin, time.perf_counter() - start))
        finally:
            gc.enable()

    def time(self, what: str, fn) -> tuple[Timing, object]:
        self._calibrate()
        start = time.perf_counter()
        result = fn()
        timing = Timing(start - self._origin, time.perf_counter() - start)
        self._calibrate()
        self.timings.append((what, timing))
        return timing, result

    def finish(self) -> None:
        """Give every timing its calibration from the loops around it."""
        starts = [start for start, _ in self.loops]
        for _, timing in self.timings:
            before = bisect.bisect_right(starts, timing.start)
            near = self.loops[max(0, before - CAL_NEIGHBOURS) : before + CAL_NEIGHBOURS]
            timing.cal_s = statistics.fmean(seconds for _, seconds in near)


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and the highest value; the median of fewer than four."""
    if len(values) < 4:
        return statistics.median(values)
    return statistics.fmean(sorted(values)[1:-1])


# --- the pipeline's steps ---


class Pipeline:
    """The CLI argument lists of one workload, and the checks on their outputs."""

    def __init__(self, w: inputs.Workload, inp: inputs.Inputs, seed: int, work: Path, ledger: checks.Ledger):
        self.w, self.inp, self.seed, self.work, self.ledger = w, inp, seed, work, ledger
        self.profiles = work / "profiles"
        self.profiles.mkdir()
        self.detect_out = work / "detected.jsonl"
        # bulk-eval's evaluate and tools read the pre-tagged corpus; the others read detect's output.
        self.tagged_path = inp.corpus if w.pred_accuracy else self.detect_out
        self.tagged: list[dict] = checks.read_records(inp.corpus) if w.pred_accuracy else []
        self.detected: list[dict] = []
        self.digests: dict[str, str] = {}

    def train_argv(self, lang: str) -> list[str]:
        return ["train", "--lang", lang, "--input", str(self.inp.train_files[lang]),
                "--out", str(self.profiles / f"{lang}.profile"), "--nmin", str(N_MIN), "--nmax", str(N_MAX)]

    def detect_argv(self, source: Path, out: Path) -> list[str]:
        return ["detect", "--profiles", str(self.profiles), "--input", str(source),
                "--out", str(out), "--chunks", str(self.w.k)]

    def setup_argv(self) -> list[str]:
        return self.detect_argv(self.inp.empty, self.work / "setup.jsonl")

    def evaluate_argv(self) -> list[str]:
        return ["evaluate", "--input", str(self.tagged_path), "--format", "json", "--out", str(self.work / "evaluate.json")]

    def sample_n(self) -> int:
        return max(1, checks.pair_population(self.tagged, self.inp.langs) // 2)

    def tool_argvs(self) -> dict[str, list[str]]:
        tagged = str(self.tagged_path)
        return {
            "dedupe": ["dedupe", "--input", tagged, "--out", str(self.work / "dedupe.jsonl")],
            "sample": ["sample", "--input", tagged, "--tag-field", "pred", "--n", str(self.sample_n()),
                       "--seed", str(self.seed), "--pairs-of", ",".join(self.inp.langs),
                       "--out", str(self.work / "sample.jsonl")],
            "distribution": ["distribution", "--input", tagged, "--tag-field", "pred",
                             "--classes", *self.inp.langs, "--format", "json",
                             "--out", str(self.work / "distribution.json")],
            "baseline": ["baseline", "--input", tagged, "--format", "json", "--out", str(self.work / "baseline.json")],
        }

    def chisq_args(self) -> tuple[list[int], list[float], list[str]]:
        """The paper's test: gold class counts against uniform proportions."""
        counts: dict[str, int] = {}
        for tag in self.inp.gold.values():
            counts[tag] = counts.get(tag, 0) + 1
        observed = [counts[c] for c in sorted(counts)]
        expected = [1.0 / len(observed)] * len(observed)
        argv = ["chisq", "--observed", ",".join(map(str, observed)),
                "--expected", ",".join(map(repr, expected)), "--format", "json",
                "--out", str(self.work / "chisq.json")]
        return observed, expected, argv

    # Output checks. Each also holds the step's output digest to the first round's.

    def _same_as_before(self, step: str, path: Path) -> None:
        digest = inputs.file_sha256(path)
        first = self.digests.setdefault(step, digest)
        self.ledger.op(digest == first and digest != "", f"{step} output changed between rounds")

    def after(self, step: str, code: int, error: str = "") -> None:
        """Record a step's exit and check what it wrote."""
        if not self.ledger.op(code == 0, f"{step} exited {code}: {error}"):
            return
        if step in ("evaluate", *TOOLS) and not self.ledger.op(bool(self.tagged), f"{step}: no valid tagged corpus to check"):
            return
        c, work = checks, self.work
        if step.startswith("train:"):
            lang = step.split(":", 1)[1]
            c.check_profile(self.ledger, self.profiles / f"{lang}.profile", lang)
            self._same_as_before(step, self.profiles / f"{lang}.profile")
        elif step == "setup":
            out = work / "setup.jsonl"
            self.ledger.op(out.is_file() and out.stat().st_size == 0, "setup: detect on an empty corpus wrote records")
        elif step == "detect":
            records = c.check_detect(self.ledger, self.detect_out, self.inp.detect_ids, self.inp.gold)
            self._same_as_before(step, self.detect_out)
            self.detected = records or []
            if not self.w.pred_accuracy:
                self.tagged = self.detected
        elif step == "evaluate":
            c.check_evaluate(self.ledger, work / "evaluate.json", self.tagged)
        elif step == "dedupe":
            c.check_dedupe(self.ledger, work / "dedupe.jsonl", [r["id"] for r in self.tagged])
            self._same_as_before(step, work / "dedupe.jsonl")
        elif step == "sample":
            c.check_sample(self.ledger, work / "sample.jsonl", self.tagged, self.sample_n(), self.inp.langs)
        elif step == "distribution":
            c.check_distribution(self.ledger, work / "distribution.json", self.tagged, self.inp.langs)
        elif step == "baseline":
            c.check_baseline(self.ledger, work / "baseline.json", self.tagged)
        elif step == "chisq":
            observed, expected, _ = self.chisq_args()
            c.check_chisq(self.ledger, work / "chisq.json", observed, expected)

    def round_steps(self, with_setup: bool):
        """Yield (step, argv) for one round, in order.

        Train each language, probe set-up, detect, evaluate, then the
        tools; the tools' arguments depend on detect's output, so they
        are built only once detect has run.
        """
        for lang in self.inp.langs:
            yield f"train:{lang}", self.train_argv(lang)
        if with_setup:
            for _ in range(SETUP_PROBES):
                yield "setup", self.setup_argv()
        yield "detect", self.detect_argv(self.inp.detect_input, self.detect_out)
        for _ in range(EVALUATE_CALLS):
            yield "evaluate", self.evaluate_argv()
        yield from self.tool_argvs().items()


def detection_quality(records: list[dict]) -> tuple[float, float]:
    """Exact-tag accuracy and code-switch recall of checked detect records.

    check_detect has already held each record's "tags" to the gold tag.
    """
    hits, total = checks.recount(records, "tags", "pred")
    switched = [r for r in records if len(checks.parse_tag(r["tags"])) > 1]
    recalled = sum(1 for r in switched if r["code_switched"])
    return hits / total, recalled / len(switched) if switched else math.nan


# --- end-to-end run: real CLI children ---


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=HASH_SEED)


class Spawner:
    """Runs ``codemix`` children one at a time through bench/spawner.py."""

    def __init__(self, work: Path):
        self.work = work
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH_DIR / "spawner.py")],
            cwd=work, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str]) -> tuple[int, float, float]:
        """Run ``codemix <argv>`` to completion: exit code, wall seconds, peak RSS in MiB."""
        self.proc.stdin.write(json.dumps([sys.executable, "-m", "codemix.cli", *argv]) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["code"], reply["wall_s"], reply["maxrss_kib"] / 1024.0

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def _stderr_line(work: Path) -> str:
    try:
        return (work / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1][:200]
    except (OSError, IndexError):
        return ""


def end_to_end_run(p: Pipeline, spawner: Spawner, seconds: float, clock: Clock) -> tuple[dict, dict, int]:
    """Rounds of CLI steps until ``seconds`` pass: metrics, their raw values, rounds run."""
    library_inputs = None
    rounds: list[dict[str, list[Timing]]] = []
    started = time.perf_counter()
    while True:
        t: dict[str, list[Timing]] = defaultdict(list)
        for step, argv in p.round_steps(with_setup=True):
            timing, (code, wall, rss) = clock.time(step, lambda: spawner.run(argv))
            timing.raw_s, timing.rss_mb = wall, rss
            p.after(step, code, _stderr_line(p.work) if code else "")
            t[step.split(":")[0]].append(timing)
            if step == "detect":
                if library_inputs is None:
                    library_inputs = _library_inputs(p)
                t["library"] = _library_pass(p, library_inputs, clock)
        rounds.append(t)
        if _done(started, len(rounds), seconds):
            break
    clock.finish()

    metrics = _timed_metrics(p, rounds, "scaled_s")
    raw = _timed_metrics(p, rounds, "raw_s")
    for name, step in (("train_peak_rss_mb", "train"), ("detect_peak_rss_mb", "detect"),
                       ("evaluate_peak_rss_mb", "evaluate")):
        metrics[name] = trimmed_mean([max(x.rss_mb for x in t[step]) for t in rounds])
    if p.detected:
        metrics["tag_accuracy"], metrics["cs_recall"] = detection_quality(p.detected)
    return metrics, raw, len(rounds)


def _timed_metrics(p: Pipeline, rounds: list[dict[str, list[Timing]]], key: str) -> dict[str, float]:
    """Timed metrics from scaled or raw seconds (``key``): trimmed means over rounds."""
    def sec(timings: list[Timing]) -> float:
        return sum(getattr(x, key) for x in timings)

    per_round: dict[str, list[float]] = defaultdict(list)
    for t in rounds:
        tools = [x for name in TOOLS for x in t[name]]
        evaluate_s = sec(t["evaluate"]) / len(t["evaluate"])
        per_round["train_s"].append(sec(t["train"]))
        per_round["detect_docs_per_s"].append(len(p.inp.detect_ids) / sec(t["detect"]))
        if t["library"]:
            per_round["library_docs_per_s"].append(len(p.inp.detect_ids) / sec(t["library"]))
        per_round["evaluate_docs_per_s"].append(len(p.tagged) / evaluate_s)
        per_round["tools_s"].append(sec(tools))
        per_round["pipeline_s"].append(sec(t["train"]) + sec(t["detect"]) + evaluate_s + sec(tools))
    metrics = {name: trimmed_mean(values) for name, values in per_round.items()}
    metrics["setup_s"] = trimmed_mean([getattr(x, key) for t in rounds for x in t["setup"]])
    return metrics


def _done(started: float, rounds: int, seconds: float) -> bool:
    """Stop once another round of average length would overrun ``seconds``."""
    elapsed = time.perf_counter() - started
    return rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds


def _library_inputs(p: Pipeline):
    """Profiles and documents for the in-process pass, loaded untimed."""
    from codemix import corpus, langid

    try:
        return langid.load_profile_set(p.profiles), corpus.load(str(p.inp.detect_input))
    except Exception as exc:  # any defect in the program is a failed step, not a crash
        p.ledger.op(False, f"library: cannot load inputs: {exc!r}")
        return None


def _library_pass(p: Pipeline, loaded, clock: Clock) -> list[Timing]:
    """detect_all in this process, in batches with calibration between them.

    Batching lets each part of the pass be calibrated by the loops next
    to it. The tags must equal the CLI's.
    """
    from codemix import detector

    if loaded is None:
        return []
    profiles, docs = loaded
    size = -(-len(docs) // LIBRARY_BATCHES)
    timings, tags = [], []
    try:
        for lo in range(0, len(docs), size):
            batch = docs[lo : lo + size]
            timing, results = clock.time("library", lambda: detector.detect_all(batch, profiles, k=p.w.k))
            timings.append(timing)
            tags += [r.tag.render() for r in results]
    except Exception as exc:  # any defect in the program is a failed step, not a crash
        p.ledger.op(False, f"library: detect_all raised {exc!r}")
        return []
    p.ledger.op(tags == [r["pred"] for r in p.detected], "library tags differ from the CLI's")
    return timings


# --- traced run: the same steps in-process, with spans ---


@dataclass
class TracedStep:
    """One step of a traced round: its plain and traced timings and span statistics."""

    name: str
    argv: list[str]
    plain: Timing
    traced: Timing
    stats: dict[str, dict[str, int]]
    detect_ns: list[int]


def traced_run(p: Pipeline, seconds: float, clock: Clock, report: dict) -> dict:
    """Per-layer metrics: each step runs plain, then traced, in-process; rounds until ``seconds`` pass."""
    from codemix import cli, special

    tracer = spans.Tracer()
    margins: list[float] = []

    def observe_identify(args, result) -> None:
        try:
            if len(result) >= 2:
                margins.append(result[0].confidence - result[1].confidence)
        except (AttributeError, TypeError, IndexError):
            pass  # a reshaped Prediction leaves langid.low_margin_share absent

    tracer.observers["langid.identify"] = observe_identify
    detect_idx = tracer.names.index("detector.detect")

    def in_process(step: str, argv: list[str]) -> Timing:
        def call() -> tuple[int, str]:
            try:
                return cli.run(argv), ""
            except Exception as exc:  # a defect in the program is a failed step, not a crash
                return 1, repr(exc)

        timing, (code, error) = clock.time(step, call)
        p.after(step, code, error)
        return timing

    rounds: list[tuple[list[TracedStep], float | None]] = []
    started = time.perf_counter()
    while True:
        tracer.clear()
        margins.clear()
        steps: list[TracedStep] = []
        bounds: list[tuple[str, int, int]] = []
        for step, argv in itertools.chain(p.round_steps(with_setup=False), [("chisq", p.chisq_args()[2])]):
            plain = in_process(step, argv)
            lo = tracer.mark()
            tracer.install()
            try:
                traced = in_process(step, argv)
            finally:
                tracer.uninstall()
            hi = tracer.mark()
            bounds.append((step, lo, hi))
            stats = spans.summarize(tracer.spans[:hi], lo, tracer.names)
            detect_ns = spans.durations_ns(tracer.spans[:hi], lo, detect_idx) if step == "detect" else []
            steps.append(TracedStep(step, argv, plain, traced, stats, detect_ns))
        low_margin = sum(m < LOW_MARGIN for m in margins) / len(margins) if margins else None
        rounds.append((steps, low_margin))
        if _done(started, len(rounds), seconds):
            break
    chi2_timing = _chi2_grid(special.chi2_sf, clock)
    clock.finish()

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{p.w.name}-s{p.seed}-spans.jsonl.gz"
    spans.write_spans(spans_path, bounds, tracer.spans, tracer.names)

    per_round: dict[str, list[float]] = defaultdict(list)
    detect_us: list[float] = []
    for steps, low_margin in rounds:
        self_s: dict[str, float] = defaultdict(float)
        load_bytes = load_s = 0.0
        for s in steps:
            factor = CAL_REF_S / s.traced.cal_s
            for name, st in s.stats.items():
                self_s[f"{name}.self_s"] += st["self_ns"] * 1e-9 * factor
            if "corpus.load" in s.stats:
                load_bytes += s.stats["corpus.load"]["calls"] * _input_size(s.argv)
                load_s += s.stats["corpus.load"]["incl_ns"] * 1e-9 * factor
            detect_us += [ns * 1e-3 * factor for ns in s.detect_ns]
        for name, value in self_s.items():
            per_round[name].append(value)
        if load_s:
            per_round["corpus.load.mb_per_s"].append(load_bytes / 1e6 / load_s)
        if low_margin is not None:
            per_round["langid.low_margin_share"].append(low_margin)
        per_round["trace.overhead_ratio"].append(
            sum(s.traced.scaled_s for s in steps) / sum(s.plain.scaled_s for s in steps)
        )
    metrics = {name: trimmed_mean(values) for name, values in per_round.items()}

    last = rounds[-1][0]
    for s in last:  # counts repeat exactly from round to round: the last round's
        for name, st in s.stats.items():
            if name != "cli.run":
                metrics[f"{name}.calls"] = metrics.get(f"{name}.calls", 0) + st["calls"]
        if s.name == "detect" and "textnorm.normalize" in s.stats:
            metrics["textnorm.normalize.calls_per_doc"] = s.stats["textnorm.normalize"]["calls"] / len(p.inp.detect_ids)
    if detect_us:
        metrics["detector.detect.p50_us"] = _percentile(detect_us, 50)
        metrics["detector.detect.p99_us"] = _percentile(detect_us, 99)
    metrics["special.chi2_sf.us_per_call"] = chi2_timing.scaled_s * 1e6 / (CHI2_GRID_PASSES * len(CHI2_GRID))
    metrics.update(_scoring_counts(p))

    report["trace"] = {
        "absent": tracer.absent,
        "rounds": len(rounds),
        "steps_last_round": {
            s.name: {
                "plain_wall_s": s.plain.raw_s,
                "traced_wall_s": s.traced.raw_s,
                "self_sum_s": sum(st["self_ns"] for st in s.stats.values()) * 1e-9,
                "self_coverage": sum(st["self_ns"] for st in s.stats.values()) * 1e-9 / s.traced.raw_s,
            }
            for s in last
        },
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans_in_file": sum(hi - lo for _, lo, hi in bounds),
        "detect_span_samples": len(detect_us),
    }
    return metrics


def _input_size(argv: list[str]) -> int:
    try:
        return os.path.getsize(argv[argv.index("--input") + 1])
    except (ValueError, IndexError, OSError):
        return 0


def _percentile(values: list[float], q: int) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q / 100 * len(ordered)) - 1)]


def _chi2_grid(chi2_sf, clock: Clock) -> Timing:
    """Time CHI2_GRID_PASSES passes of chi2_sf over the fixed grid."""
    def grid() -> None:
        for _ in range(CHI2_GRID_PASSES):
            for x, k in CHI2_GRID:
                chi2_sf(x, k)

    return clock.time("chi2_grid", grid)[0]


def _scoring_counts(p: Pipeline) -> dict[str, float]:
    """Work the scorer must do, counted from detect's output and the profile files."""
    try:
        tables = [
            checks.strict_loads((p.profiles / f"{lang}.profile").read_text(encoding="utf-8"))["counts"]
            for lang in p.inp.langs
        ]
    except (OSError, ValueError, KeyError, TypeError):
        return {}  # no usable profiles: train already counted as failed
    grams = unseen = chunks = und = 0
    for record in p.detected:
        for chunk in record["chunks"]:
            chunks += 1
            if chunk["lang"] == checks.UND:
                und += 1
                continue
            text = chunk["text"]
            for n in range(N_MIN, N_MAX + 1):
                for i in range(len(text) - n + 1):
                    gram = text[i : i + n]
                    grams += 1
                    unseen += sum(gram not in table for table in tables)
    L = len(tables)
    return {
        "langid.grams_scored": grams * L,
        "langid.unseen_gram_share": unseen / (grams * L) if grams else float("nan"),
        "langid.profile_grams": sum(len(t) for t in tables),
        "detector.und_chunk_share": und / chunks if chunks else float("nan"),
    }


# --- run environment ---


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(clock: Clock) -> dict:
    cal = [seconds for _, seconds in clock.loops]
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "children_pythonhashseed": HASH_SEED,
        "calibration": {
            "ref_s": CAL_REF_S, "loops": len(cal),
            "median_s": statistics.median(cal) if cal else None,
            "min_s": min(cal, default=None), "max_s": max(cal, default=None),
            "each_loop": "the report's timeline, rows named cal",
        },
    }


# --- entry point ---


def _finite(value: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep running rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "codemix" / "cli.py").is_file():
        print(f"bench: no codemix sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.path.insert(0, str(SRC))
    w = inputs.WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-s{args.seed}-", dir=WORK_DIR))
    ledger = checks.Ledger()
    clock = Clock()
    report: dict = {"workload": w.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds}
    # Start the spawner while this process is small; see bench/spawner.py.
    spawner = None if args.trace else Spawner(work)
    try:
        gen_start = time.perf_counter()
        inp = inputs.generate(w, args.seed, work)
        report["generate_s"] = time.perf_counter() - gen_start
        report["inputs_sha256"] = inp.sha256
        pipeline = Pipeline(w, inp, args.seed, work, ledger)
        if args.trace:
            metrics = traced_run(pipeline, args.seconds, clock, report)
            metrics["failed_ops_ratio"] = ledger.failed / max(ledger.attempted, 1)
            wanted = per_layer_names()
        else:
            # Compile the program's bytecode once, untimed, so round 1 pays no more than later rounds.
            spawner.run(["--help"])
            metrics, raw, rounds = end_to_end_run(pipeline, spawner, args.seconds, clock)
            report["rounds"] = rounds
            report["raw"] = raw
            wanted = END_TO_END
        report["detect_output_sha256"] = pipeline.digests.get("detect")
    finally:
        if spawner is not None:
            spawner.close()
        shutil.rmtree(work, ignore_errors=True)

    report["environment"] = environment(clock)
    report["passes"] = dict(Counter(what for what, _ in clock.timings))
    # Every loop and call as (what, start, raw seconds), so a run's timing can be re-derived.
    report["timeline"] = sorted(
        [("cal", round(start, 4), round(seconds, 6)) for start, seconds in clock.loops]
        + [(what, round(t.start, 4), round(t.raw_s, 6)) for what, t in clock.timings],
        key=lambda row: row[1],
    )
    report["attempted"], report["failed"] = ledger.attempted, ledger.failed
    report["failed_ops_ratio"] = ledger.failed / max(ledger.attempted, 1)
    report["failures"] = ledger.messages
    missing = [k for k in wanted if not _finite(metrics.get(k, float("nan")))]
    report["missing_metrics"] = missing
    OUT_DIR.mkdir(exist_ok=True)
    report_path = OUT_DIR / f"{w.name}-s{args.seed}-t{args.trace}.json"
    report["metrics"] = {k: metrics[k] for k in wanted if k not in missing}
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    # A per-layer metric is missing only when the program's shape changed (an absent
    # layer); output defects are in the ledger. An end-to-end metric must exist.
    result = {
        "correct": ledger.failed == 0 and (bool(args.trace) or not missing),
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in wanted.items() if k not in missing},
    }
    detail = {k: report.get(k) for k in ("workload", "seed", "trace", "rounds", "detect_output_sha256",
                                          "inputs_sha256", "raw", "failures", "missing_metrics")}
    detail["report"] = str(report_path.relative_to(ROOT))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
