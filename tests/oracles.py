"""Independent reference implementations used to check the real ones.

Everything here is deliberately written from the definitions, not from the
package internals: quadrature instead of gamma expansions, per-document
loops instead of matrix algebra, per-occurrence loops instead of pooled
counters. Slow is fine; different is the point.
"""
from __future__ import annotations

import math
import random
import unicodedata


def chi2_pdf(t: float, k: int) -> float:
    if t <= 0:
        return 0.0
    a = k / 2.0
    return math.exp((a - 1.0) * math.log(t) - t / 2.0 - a * math.log(2.0) - math.lgamma(a))


def simpson(f, a: float, b: float, n: int) -> float:
    if n % 2:
        n += 1
    h = (b - a) / n
    total = f(a) + f(b)
    for i in range(1, n):
        total += f(a + i * h) * (4 if i % 2 else 2)
    return total * h / 3.0


def chi2_sf_quadrature(x: float, k: int, intervals: int = 200_000) -> float:
    """Survival function by composite Simpson integration of the density.

    Valid for x > 0 (stays clear of the df=1 singularity at the origin).
    The integration window ends far beyond the mean, where the density is
    numerically zero.
    """
    if x <= 0:
        return 1.0
    hi = max(4.0 * x, k + 60.0 * math.sqrt(2.0 * k) + 100.0)
    return simpson(lambda t: chi2_pdf(t, k), x, hi, intervals)


def score_by_loops(text: str, profile) -> float:
    """Mean log gram probability recomputed gram by gram, occurrence by occurrence."""
    log_sum = 0.0
    grams = 0
    for n in range(profile.n_min, profile.n_max + 1):
        distinct_n = len({g for g in profile.counts if len(g) == n})
        vocab = distinct_n + 1
        total_n = profile.total_per_order.get(n, 0)
        for i in range(len(text) - n + 1):
            gram = text[i : i + n]
            p = (profile.counts.get(gram, 0) + profile.alpha) / (
                total_n + profile.alpha * vocab
            )
            log_sum += math.log(p)
            grams += 1
    return log_sum / grams


def score_in_gram_order(text: str, profile) -> float:
    """Mean log gram probability summed gram by gram, in the order the scorer must keep.

    Each distinct gram adds ``c * log((count + alpha) / denom)`` once, in
    first-occurrence order with orders ascending, so the float sum is
    bit-comparable with any scorer that adds the same terms in that order.
    """
    occurrences: dict[str, int] = {}
    for n in range(profile.n_min, profile.n_max + 1):
        for i in range(len(text) - n + 1):
            gram = text[i : i + n]
            occurrences[gram] = occurrences.get(gram, 0) + 1
    total = {n: 0 for n in range(profile.n_min, profile.n_max + 1)}
    vocab = dict.fromkeys(total, 1)  # one slot for every unseen gram
    for gram, count in profile.counts.items():
        total[len(gram)] += count
        vocab[len(gram)] += 1
    acc = 0.0
    for gram, c in occurrences.items():
        denom = total[len(gram)] + profile.alpha * vocab[len(gram)]
        acc += c * math.log((profile.counts.get(gram, 0) + profile.alpha) / denom)
    return acc / sum(occurrences.values())


def ngrams_by_slicing(text: str, n_min: int, n_max: int) -> list[str]:
    """Each order's grams, orders ascending, each gram sliced out at its start position."""
    return [text[i : i + n] for n in range(n_min, n_max + 1) for i in range(len(text) - n + 1)]


def normalize_by_category(raw: str) -> str:
    """Case-fold, keep letters and marks, turn whitespace into spaces, one codepoint at a time."""
    kept = []
    for ch in raw.casefold():
        if ch.isspace():
            kept.append(" ")
        elif unicodedata.category(ch)[0] in ("L", "M"):
            kept.append(ch)
    return " ".join("".join(kept).split())


def metrics_by_loops(gold: list[str], pred: list[str]) -> dict:
    """Accuracy and weighted precision/recall straight from label lists."""
    n = len(gold)
    accuracy = sum(1 for g, p in zip(gold, pred) if g == p) / n
    classes = sorted(set(gold) | set(pred))
    weighted_precision = 0.0
    weighted_recall = 0.0
    per_class = {}
    for c in classes:
        tp = sum(1 for g, p in zip(gold, pred) if g == c and p == c)
        predicted = sum(1 for p in pred if p == c)
        support = sum(1 for g in gold if g == c)
        precision = tp / predicted if predicted else 0.0
        recall = tp / support if support else 0.0
        per_class[c] = (precision, recall, support)
        weighted_precision += (support / n) * precision
        weighted_recall += (support / n) * recall
    return {
        "accuracy": accuracy,
        "weighted_precision": weighted_precision,
        "weighted_recall": weighted_recall,
        "per_class": per_class,
    }


def confusion_by_loops(gold, pred, class_scheme=None) -> tuple[tuple, tuple]:
    """(classes, counts) of a confusion matrix, bucketing and filling one document at a time.

    A tag's class is its distinct codes, sorted and comma-joined; with a
    scheme, a class outside the declared ones (canonicalized the same way)
    is "other", and the classes are the declared ones then "other".
    """
    def label(codes):
        return ",".join(sorted({code.strip() for code in codes}))

    declared = None if class_scheme is None else [label(c.split(",")) for c in class_scheme]

    def bucket(tag):
        cls = label(tag.langs)
        return cls if declared is None or cls in declared else "other"

    if declared is None:
        classes = sorted({bucket(tag) for tag in [*gold, *pred]})
    else:
        classes = declared + ["other"]
    counts = [[0] * len(classes) for _ in classes]
    for g, p in zip(gold, pred):
        counts[classes.index(bucket(g))][classes.index(bucket(p))] += 1
    return tuple(classes), tuple(tuple(row) for row in counts)


# codepoint ranges the fuzz generator draws from: ASCII, Latin-1, general
# punctuation, combining marks, currency/symbols, digits of several scripts,
# CJK, emoji, and astral-plane letters
_FUZZ_RANGES = [
    (0x0009, 0x000D),
    (0x0020, 0x007E),
    (0x00A0, 0x00FF),
    (0x0300, 0x036F),
    (0x0370, 0x03FF),
    (0x0400, 0x04FF),
    (0x0660, 0x0669),
    (0x1E00, 0x1EFF),
    (0x2000, 0x206F),
    (0x20A0, 0x20BF),
    (0x2150, 0x218B),
    (0x2600, 0x26FF),
    (0x3040, 0x30FF),
    (0x4E00, 0x4FFF),
    (0xFB00, 0xFB06),
    (0x1F300, 0x1F5FF),
    (0x1F600, 0x1F64F),
    (0x10400, 0x1044F),
]


def random_unicode_string(rng: random.Random, max_len: int = 12) -> str:
    """Random string mixing letters, marks, spaces, digits, emoji and controls."""
    length = rng.randint(0, max_len)
    chars = []
    for _ in range(length):
        lo, hi = _FUZZ_RANGES[rng.randrange(len(_FUZZ_RANGES))]
        chars.append(chr(rng.randint(lo, hi)))
    return "".join(chars)
