"""Exact-match evaluation over composite language tags.

Composite tags are atomic classes: {en,zu} is one class, distinct from
{en} and {zu}, and equality ignores order. On top of the confusion matrix
this module provides accuracy, support-weighted precision/recall, the
majority-class baseline, and a chi-square goodness-of-fit test whose
p-value comes from the local survival function (no statistics package).
"""
from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .corpus import label_distribution
from .errors import (
    DimensionMismatch,
    DomainError,
    EmptyInput,
    EmptyMatrix,
    LengthMismatch,
    ZeroExpected,
    check_int,
)
from .special import chi2_sf
from .tags import OTHER_CLASS, LanguageTag, tally_classes

#: Human-readable reports never print a p-value smaller than this; they
#: print "< 2.2e-16" instead. Machine output keeps the raw float.
P_REPORT_FLOOR = 2.2e-16


class ConfusionMatrix(NamedTuple):
    """counts[g][p] = documents with gold class g and predicted class p."""

    classes: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)


class ClassMetrics(NamedTuple):
    precision: float
    recall: float
    support: int


class EvalReport(NamedTuple):
    accuracy: float
    weighted_precision: float
    weighted_recall: float
    per_class: dict[str, ClassMetrics]


class ChiSquareResult(NamedTuple):
    statistic: float
    df: int
    p_value: float


def confusion(
    gold: Sequence[LanguageTag],
    pred: Sequence[LanguageTag],
    class_scheme: Sequence[str] | None = None,
) -> ConfusionMatrix:
    """Tally exact set-matches of gold vs predicted composite tags.

    With a class scheme, tags outside the declared classes collapse into
    "other" and the matrix rows/columns are the declared classes plus
    "other"; without one, the classes are all observed labels, sorted.
    """
    if len(gold) != len(pred):
        raise LengthMismatch(f"gold has {len(gold)} items, pred has {len(pred)}")
    if not gold:
        raise EmptyInput("nothing to evaluate")

    class_label = LanguageTag.class_label
    pairs = Counter(zip(map(class_label, gold), map(class_label, pred)))
    classes = tally_classes((label for pair in pairs for label in pair), class_scheme)
    index = {label: i for i, label in enumerate(classes)}
    other = index.get(OTHER_CLASS)  # where labels outside the declared classes count
    counts = [[0] * len(classes) for _ in classes]
    for (g, p), n in pairs.items():
        counts[index.get(g, other)][index.get(p, other)] += n
    return ConfusionMatrix(
        classes=tuple(classes), counts=tuple(tuple(row) for row in counts)
    )


def metrics(m: ConfusionMatrix) -> EvalReport:
    """Accuracy plus per-class and support-weighted precision/recall.

    Precision of a class nobody predicted is 0 by convention; classes with
    zero gold support carry weight 0. Weighted recall always equals
    accuracy (both are trace/total), mirroring exact-match evaluation.
    """
    total = m.total
    if total == 0:
        raise EmptyMatrix("confusion matrix has no observations")

    k = len(m.classes)
    per_class: dict[str, ClassMetrics] = {}
    weighted_p = 0.0
    weighted_r = 0.0
    trace = 0
    for i, label in enumerate(m.classes):
        support = sum(m.counts[i])
        column = sum(m.counts[g][i] for g in range(k))
        hit = m.counts[i][i]
        trace += hit
        precision = hit / column if column else 0.0
        recall = hit / support if support else 0.0
        per_class[label] = ClassMetrics(precision=precision, recall=recall, support=support)
        weight = support / total
        weighted_p += weight * precision
        weighted_r += weight * recall

    return EvalReport(
        accuracy=trace / total,
        weighted_precision=weighted_p,
        weighted_recall=weighted_r,
        per_class=per_class,
    )


def majority_class(gold: Iterable[LanguageTag]) -> tuple[str, float]:
    """The most frequent gold class and its frequency (ties: first label).

    ``gold`` is read once; EmptyInput when it holds no tags.
    """
    counts = label_distribution(gold)
    label = min(counts, key=lambda c: (-counts[c], c))
    return label, counts[label] / sum(counts.values())


def majority_baseline(gold: Iterable[LanguageTag]) -> float:
    """Accuracy of always predicting the most common gold class."""
    return majority_class(gold)[1]


def chi_square_gof(
    observed: Sequence[int],
    expected_props: Sequence[float],
) -> ChiSquareResult:
    """Goodness-of-fit of observed counts against expected proportions.

    Expected proportions are renormalized to sum to 1 (published tables
    often round), then E_i = N * p_i and the statistic is
    sum((O_i - E_i)^2 / E_i) with df = categories - 1. Raises DomainError
    when a count is not an integer of at least 0, when a proportion or the
    statistic is not finite, or when a count or a term does not fit in a
    float.
    """
    if len(observed) != len(expected_props):
        raise DimensionMismatch(
            f"{len(observed)} observed counts vs {len(expected_props)} expected proportions"
        )
    if len(observed) < 2:
        raise DimensionMismatch("need at least two categories")
    for o in observed:
        check_int(o, 0, "an observed count", DomainError)
    if any(p <= 0 for p in expected_props):
        raise ZeroExpected(f"expected proportions must be positive: {list(expected_props)}")
    n = sum(observed)
    if n <= 0:
        raise EmptyInput("observed counts sum to zero")

    # Not sum(): it compensates float sums from Python 3.12 on, changing bytes.
    scale = 0.0
    for prop in expected_props:
        scale += prop
    if not math.isfinite(scale):
        raise DomainError(f"expected proportions must have a finite sum: {list(expected_props)}")
    statistic = 0.0
    try:
        for o, prop in zip(observed, expected_props):
            e = n * (prop / scale)
            statistic += (o - e) ** 2 / e if e else math.inf
    except OverflowError as exc:
        raise DomainError(f"a count or chi-square term does not fit in a float: {exc}") from exc
    if not math.isfinite(statistic):
        raise DomainError(f"chi-square statistic is not finite: {statistic}")
    df = len(observed) - 1
    return ChiSquareResult(statistic=statistic, df=df, p_value=chi2_sf(statistic, df))


def format_p_value(p: float) -> str:
    """R-style display: values below 2.2e-16 print as "< 2.2e-16"."""
    if p < P_REPORT_FLOOR:
        return "< 2.2e-16"
    return f"{p:.6g}"


# --- report serialization and text rendering ---


def report_document(
    matrix: ConfusionMatrix,
    report: EvalReport,
    baseline: tuple[str, float],
) -> dict:
    """Single machine-readable document with every evaluation artifact."""
    return {
        "classes": list(matrix.classes),
        "matrix": [list(row) for row in matrix.counts],
        "total": matrix.total,
        "accuracy": report.accuracy,
        "weighted_precision": report.weighted_precision,
        "weighted_recall": report.weighted_recall,
        "per_class": {label: c._asdict() for label, c in report.per_class.items()},
        "majority_class": baseline[0],
        "majority_baseline": baseline[1],
    }


def _table(rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [cell.ljust(widths[i]) for i, cell in enumerate(row)]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def render_report(
    matrix: ConfusionMatrix,
    report: EvalReport,
    baseline: tuple[str, float],
) -> str:
    """Aligned text tables: confusion matrix, per-class and summary metrics."""
    rows = [["gold \\ pred", *matrix.classes]]
    for i, label in enumerate(matrix.classes):
        rows.append([label, *(str(c) for c in matrix.counts[i])])
    out = ["confusion matrix", _table(rows), ""]

    rows = [["class", "precision", "recall", "support"]]
    for label, c in report.per_class.items():
        rows.append([label, f"{c.precision:.4f}", f"{c.recall:.4f}", str(c.support)])
    out += ["per-class metrics", _table(rows), ""]

    summary = [
        ["documents", str(matrix.total)],
        ["accuracy", f"{report.accuracy:.4f}"],
        ["weighted precision", f"{report.weighted_precision:.4f}"],
        ["weighted recall", f"{report.weighted_recall:.4f}"],
        ["majority baseline", f"{baseline[1]:.4f} ({baseline[0]})"],
    ]
    out.append(_table(summary))
    return "\n".join(out)


def render_chi_square(result: ChiSquareResult) -> str:
    rows = [
        ["statistic", f"{result.statistic:.6g}"],
        ["df", str(result.df)],
        ["p-value", format_p_value(result.p_value)],
    ]
    return _table(rows)
