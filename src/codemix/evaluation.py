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
from functools import reduce
from operator import add
from typing import Iterable, NamedTuple, Sequence

from . import corpus
from .errors import EmptyInput, InvalidConfig, brief, check_int
from .special import chi2_sf
from .tags import OTHER_CLASS, LanguageTag, tally_classes


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
    per_class: dict[str, ClassMetrics]

    @property
    def weighted_recall(self) -> float:
        """Support-weighted recall: sum(support/total * hit/support) is trace/total, the accuracy."""
        return self.accuracy


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
        raise InvalidConfig(f"gold has {len(gold)} items, pred has {len(pred)}")
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
    """Accuracy plus per-class and support-weighted precision.

    Precision of a class nobody predicted is 0 by convention; classes with
    zero gold support carry weight 0. Weighted recall is not summed: it is
    accuracy (both are trace/total), so ``EvalReport.weighted_recall`` reads
    ``accuracy``, mirroring exact-match evaluation.
    """
    total = m.total
    if total == 0:
        raise EmptyInput("confusion matrix has no observations")

    per_class: dict[str, ClassMetrics] = {}
    trace = 0
    for i, (label, row, column) in enumerate(zip(m.classes, m.counts, zip(*m.counts))):
        support = sum(row)
        predicted = sum(column)
        hit = row[i]
        trace += hit
        precision = hit / predicted if predicted else 0.0
        recall = hit / support if support else 0.0
        per_class[label] = ClassMetrics(precision=precision, recall=recall, support=support)
    weighted_p = reduce(add, (c.support / total * c.precision for c in per_class.values()), 0.0)
    return EvalReport(accuracy=trace / total, weighted_precision=weighted_p, per_class=per_class)


def majority_class(gold: Iterable[LanguageTag]) -> tuple[str, float]:
    """The most frequent gold class and its frequency (ties: first label).

    ``gold`` is read once; EmptyInput when it holds no tags.
    """
    counts = corpus.label_distribution(gold)
    label = min(counts, key=lambda c: (-counts[c], c))
    return label, counts[label] / sum(counts.values())


def chi_square_gof(
    observed: Sequence[int],
    expected_props: Sequence[float],
) -> ChiSquareResult:
    """Goodness-of-fit of observed counts against expected proportions.

    Expected proportions are renormalized to sum to 1 (published tables
    often round), then E_i = N * p_i and the statistic is
    sum((O_i - E_i)^2 / E_i) with df = categories - 1. Raises InvalidConfig
    when the lengths disagree or are below two, when a count is not an
    integer of at least 0, when a proportion is not a positive int or float,
    when the proportions' sum or the statistic is not finite, or when a count
    or a term does not fit in a float; EmptyInput when the counts sum to 0.
    """
    if len(observed) != len(expected_props):
        raise InvalidConfig(
            f"{len(observed)} observed counts vs {len(expected_props)} expected proportions"
        )
    if len(observed) < 2:
        raise InvalidConfig("need at least two categories")
    for o in observed:
        check_int(o, 0, "an observed count")

    def shown() -> str:  # the proportions for a message, rendered only when one is raised
        return "[" + ", ".join(map(brief, expected_props)) + "]"

    if any(type(p) not in (int, float) for p in expected_props):  # bool is not a proportion
        raise InvalidConfig(f"expected proportions must be ints or floats: {shown()}")
    if any(p <= 0 for p in expected_props):
        raise InvalidConfig(f"expected proportions must be positive: {shown()}")
    n = sum(observed)
    if n <= 0:
        raise EmptyInput("observed counts sum to zero")

    # reduce, not sum(): sum() compensates float sums from Python 3.12 on, changing bytes
    try:
        scale = reduce(add, expected_props, 0.0)
    except OverflowError:  # an int proportion too large for a float
        scale = math.inf
    if not math.isfinite(scale):
        raise InvalidConfig(f"expected proportions must have a finite sum: {shown()}")
    expected = (n * (prop / scale) for prop in expected_props)
    terms = ((o - e) ** 2 / e if e else math.inf for o, e in zip(observed, expected))
    try:
        statistic = reduce(add, terms, 0.0)
    except OverflowError as exc:
        raise InvalidConfig(f"a count or chi-square term does not fit in a float: {exc}") from exc
    if not math.isfinite(statistic):
        raise InvalidConfig(f"chi-square statistic is not finite: {statistic}")
    df = len(observed) - 1
    return ChiSquareResult(statistic=statistic, df=df, p_value=chi2_sf(statistic, df))
