import math
import random
import sys

import pytest

from codemix.errors import EmptyInput, InvalidConfig
from codemix.evaluation import (
    ConfusionMatrix,
    EvalReport,
    chi2_sf,
    chi_square_gof,
    confusion,
    majority_class,
    metrics,
)
from codemix.corpus import label_distribution
from codemix.tags import LanguageTag
from oracles import chi2_sf_quadrature, confusion_by_loops, metrics_by_loops

A = LanguageTag.parse("aa")
B = LanguageTag.parse("bb")


def tags_of(labels):
    return [LanguageTag.parse(label) for label in labels]


def random_labelling(rng, max_classes=10, max_docs=400):
    classes = [f"c{chr(ord('a') + i)}" for i in range(rng.randint(1, max_classes))]
    n = rng.randint(1, max_docs)
    gold = [rng.choice(classes) for _ in range(n)]
    pred = [rng.choice(classes) for _ in range(n)]
    return gold, pred


class TestConfusion:
    def test_direct_tally(self):
        m = confusion([A, A, B, B], [A, B, B, B])
        assert m.classes == ("aa", "bb")
        assert m.counts == ((1, 1), (0, 2))

    def test_set_equality_counts_as_correct(self):
        m = confusion([LanguageTag.parse("en,zu")], [LanguageTag.parse("zu,en")])
        assert m.counts == ((1,),)

    def test_perfect_predictions_are_diagonal(self):
        m = confusion([A, B, A], [A, B, A])
        assert m.counts[0][1] == 0 and m.counts[1][0] == 0
        assert m.counts[0][0] + m.counts[1][1] == 3

    def test_scheme_buckets_to_other(self):
        m = confusion(
            tags_of(["en", "st", "en"]),
            tags_of(["en", "st", "af"]),
            class_scheme=["en"],
        )
        assert m.classes == ("en", "other")
        assert m.counts == ((1, 1), (0, 1))

    def test_errors(self):
        with pytest.raises(InvalidConfig, match="^gold has 1 items, pred has 2$"):
            confusion([A], [A, B])
        with pytest.raises(EmptyInput, match="^nothing to evaluate$"):
            confusion([], [])
        with pytest.raises(InvalidConfig, match="^a language tag must be a str, got int$"):
            confusion([A], [A], class_scheme=[1])
        with pytest.raises(InvalidConfig, match="^a class scheme is a sequence of tags, not one str: 'en'$"):
            confusion([A], [A], class_scheme="en")

    def test_other_is_reserved(self):
        with pytest.raises(InvalidConfig):
            confusion([A], [A], class_scheme=["aa", "other"])
        with pytest.raises(InvalidConfig):
            confusion([A], [A], class_scheme=["aa", "aa"])


class TestMetrics:
    def test_hand_computed_example(self):
        report = metrics(confusion([A, A, B, B], [A, B, B, B]))
        assert report.accuracy == pytest.approx(0.75, abs=1e-12)
        assert report.weighted_precision == pytest.approx(5 / 6, abs=1e-12)
        assert report.weighted_recall == pytest.approx(0.75, abs=1e-12)

    def test_zero_column_precision_convention(self):
        report = metrics(confusion([A, B], [A, A]))
        assert report.per_class["bb"].precision == 0.0
        assert report.weighted_precision == pytest.approx(0.25, abs=1e-12)

    def test_perfect(self):
        report = metrics(confusion([A, B], [A, B]))
        assert report.accuracy == 1.0
        assert report.weighted_precision == 1.0
        assert report.weighted_recall == 1.0

    def test_weighted_recall_is_read_from_accuracy(self):
        assert EvalReport._fields == ("accuracy", "weighted_precision", "per_class")
        assert EvalReport(0.25, 0.5, {}).weighted_recall == 0.25

    def test_empty_matrix(self):
        with pytest.raises(EmptyInput, match="^confusion matrix has no observations$"):
            metrics(ConfusionMatrix(classes=("aa",), counts=((0,),)))

    def test_weighted_recall_equals_accuracy(self):
        rng = random.Random(13)
        for _ in range(200):
            gold, pred = random_labelling(rng)
            report = metrics(confusion(tags_of(gold), tags_of(pred)))
            assert report.weighted_recall == report.accuracy

    def test_matches_per_document_oracle(self):
        rng = random.Random(29)
        for _ in range(200):
            gold, pred = random_labelling(rng)
            report = metrics(confusion(tags_of(gold), tags_of(pred)))
            expected = metrics_by_loops(gold, pred)
            assert report.accuracy == pytest.approx(expected["accuracy"], abs=1e-12)
            assert report.weighted_precision == pytest.approx(
                expected["weighted_precision"], abs=1e-12
            )
            assert report.weighted_recall == pytest.approx(
                expected["weighted_recall"], abs=1e-12
            )
            for label, (precision, recall, support) in expected["per_class"].items():
                got = report.per_class[label]
                assert got.precision == pytest.approx(precision, abs=1e-12)
                assert got.recall == pytest.approx(recall, abs=1e-12)
                assert got.support == support


class TestMajorityBaseline:
    def test_reconstructed_sample(self):
        gold = tags_of(["en"] * 306 + ["zu"] * 18 + ["xh"] * 13 + ["st"] * 63)
        assert majority_class(gold)[1] == 0.765

    def test_uniform_two_classes(self):
        assert majority_class([A, B, A, B])[1] == 0.5

    def test_single_class(self):
        assert majority_class([A, A])[1] == 1.0

    def test_majority_class_label(self):
        assert majority_class([A, A, B]) == ("aa", 2 / 3)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            majority_class([])


#: Declared schemes: classes the data never shows ("af", "nr,ss"), and
#: codes in another order than their class label ("zu,en", "st,xh,en").
SCHEMES = [
    None,
    ["en"],
    ["zu,en", "xh", "af"],
    ["st,xh,en", "zu", "en,zu", "und"],
    ["af", "nr,ss"],
]


def random_tags(rng, n):
    """Tags of one to three codes in random order, and the lone "und"."""
    codes = ["en", "zu", "xh", "st"]
    return [
        LanguageTag.parse("und") if rng.random() < 0.1
        else LanguageTag(rng.sample(codes, rng.randint(1, 3)))
        for _ in range(n)
    ]


class TestCountThenBucket:
    """Counting labels and then bucketing the count equals bucketing each document."""

    def test_confusion_matches_per_document_oracle(self):
        rng = random.Random(41)
        for _ in range(100):
            n = rng.randint(1, 300)
            gold, pred = random_tags(rng, n), random_tags(rng, n)
            for scheme in SCHEMES:
                m = confusion(gold, pred, class_scheme=scheme)
                assert (m.classes, m.counts) == confusion_by_loops(gold, pred, scheme)

    def test_distribution_and_majority_read_an_iterator_once(self):
        rng = random.Random(43)
        for _ in range(100):
            tags = random_tags(rng, rng.randint(1, 300))
            for scheme in SCHEMES:
                dist = label_distribution(tags, classes=scheme)
                classes, counts = confusion_by_loops(tags, tags, scheme)
                assert list(dist.items()) == [(c, sum(row)) for c, row in zip(classes, counts)]
                assert list(label_distribution(iter(tags), classes=scheme).items()) == list(dist.items())
            assert majority_class(iter(tags)) == majority_class(tags)

    def test_empty_iterator(self):
        with pytest.raises(EmptyInput):
            label_distribution(iter([]))
        with pytest.raises(EmptyInput):
            majority_class(iter([]))


class TestChiSquareGof:
    def test_registration_vs_usage_reconstruction(self):
        result = chi_square_gof([306, 18, 13, 63], [0.557, 0.203, 0.084, 0.155])
        assert result.statistic == pytest.approx(92.81203320219723, abs=1e-9)
        assert 92.0 <= result.statistic <= 94.5
        assert result.df == 3
        assert result.p_value < 2.2e-16

    def test_exact_fit_gives_zero(self):
        result = chi_square_gof([50, 30, 20], [0.5, 0.3, 0.2])
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == 1.0

    def test_any_mismatch_gives_positive_statistic(self):
        rng = random.Random(67)
        for _ in range(50):
            k = rng.randint(2, 6)
            expected = [rng.randint(1, 50) for _ in range(k)]
            total = sum(expected)
            props = [e / total for e in expected]
            observed = expected[:]
            observed[rng.randrange(k)] += rng.randint(1, 10)  # break proportionality
            assert chi_square_gof(observed, props).statistic > 0.0

    def test_two_category_hand_example(self):
        result = chi_square_gof([60, 40], [0.5, 0.5])
        assert result.statistic == pytest.approx(4.0, abs=1e-12)
        assert result.df == 1

    def test_expected_renormalized(self):
        a = chi_square_gof([60, 40], [0.5, 0.5])
        b = chi_square_gof([60, 40], [2.0, 2.0])
        assert a.statistic == b.statistic

    def test_permutation_invariance(self):
        rng = random.Random(41)
        observed = [31, 7, 62, 11]
        props = [0.25, 0.15, 0.45, 0.15]
        base = chi_square_gof(observed, props).statistic
        order = list(range(4))
        for _ in range(10):
            rng.shuffle(order)
            permuted = chi_square_gof(
                [observed[i] for i in order], [props[i] for i in order]
            ).statistic
            assert permuted == pytest.approx(base, abs=1e-12)

    def test_errors(self):
        with pytest.raises(InvalidConfig, match="^2 observed counts vs 3 expected proportions$"):
            chi_square_gof([1, 2], [0.5, 0.3, 0.2])
        with pytest.raises(InvalidConfig, match="^need at least two categories$"):
            chi_square_gof([5], [1.0])
        with pytest.raises(InvalidConfig, match="^expected proportions must be positive: "):
            chi_square_gof([1, 2], [0.5, 0.0])
        with pytest.raises(EmptyInput, match="^observed counts sum to zero$"):
            chi_square_gof([0, 0], [0.5, 0.5])
        with pytest.raises(InvalidConfig, match="^an observed count must be an integer of at least 0, got -1$"):
            chi_square_gof([-1, 2], [0.5, 0.5])
        for observed in ([1.5, 2], [True, 3]):
            with pytest.raises(InvalidConfig, match="^an observed count must be an integer of at least 0, got "):
                chi_square_gof(observed, [0.5, 0.5])
        for props in ([10**400, 1], [1, 2**1100]):
            with pytest.raises(InvalidConfig, match="^expected proportions must have a finite sum: "):
                chi_square_gof([1, 2], props)
        for props in (["a", 0.5], [None, 0.5], [True, 0.5]):
            with pytest.raises(InvalidConfig, match=r"^expected proportions must be ints or floats: \["):
                chi_square_gof([1, 2], props)
        # a huge proportion is given by its size, not its 400 digits
        for props, shown in (([10**400, 1], "must have a finite sum: [an int of 1329 bits, 1]"),
                             ([-1, 10**400], "must be positive: [-1, an int of 1329 bits]")):
            with pytest.raises(InvalidConfig, match="an int of 1329 bits") as caught:
                chi_square_gof([1, 2], props)
            assert str(caught.value) == f"expected proportions {shown}"
            assert len(str(caught.value)) <= 160


class TestChi2Sf:
    def test_zero_statistic(self):
        for k in (1, 2, 3, 10, 100):
            assert chi2_sf(0.0, k) == 1.0

    def test_df2_closed_form(self):
        for x in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
            assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), abs=1e-10)

    def test_reported_p_value_threshold(self):
        assert chi2_sf(93.168, 3) < 2.2e-16

    def test_against_quadrature_oracle(self):
        for x, k in [(3.841, 1), (2.0, 2), (7.8, 3), (18.3, 10), (124.3, 100)]:
            assert chi2_sf(x, k) == pytest.approx(
                chi2_sf_quadrature(x, k), abs=1e-10
            )

    def test_monotone_non_increasing(self):
        for k in (1, 3, 10):
            values = [chi2_sf(x / 10.0, k) for x in range(0, 500)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_clamped_to_unit_interval(self):
        assert 0.0 <= chi2_sf(1e4, 1) <= 1.0
        assert 0.0 <= chi2_sf(1e-12, 100) <= 1.0

    def test_domain_errors(self):
        with pytest.raises(InvalidConfig, match="^chi-square statistic must be non-negative, got -0.1$"):
            chi2_sf(-0.1, 3)
        with pytest.raises(InvalidConfig, match="^degrees of freedom must be an integer of at least 1, got 0$"):
            chi2_sf(1.0, 0)
        for x, k in ((math.nan, 2), (1.0, 2.5), (1.0, True), (1.0, math.nan)):
            with pytest.raises(InvalidConfig, match="^(chi-square statistic|degrees of freedom) must be "):
                chi2_sf(x, k)
        for x, kind in (("a", "str"), (True, "bool"), (None, "NoneType")):
            with pytest.raises(InvalidConfig, match=f"^chi-square statistic must be an int or float, got {kind}$"):
                chi2_sf(x, 2)
        for x in (10**400, -10**400):  # the message gives the size, not the 400 digits
            with pytest.raises(InvalidConfig, match="^chi-square statistic must fit in a float, got an int of 1329 bits$"):
                chi2_sf(x, 2)
        assert chi2_sf(math.inf, 2) == 0.0
        for k in (10**400, 10**308, 10**306):  # past a float, or Gamma(k/2) past one in logs
            with pytest.raises(InvalidConfig, match=f"^degrees of freedom are too large, got an int of {k.bit_length()} bits$"):
                chi2_sf(1.0, k)
        for x, k, shown in ((1e10, 10**10, "10000000000.0 and df 10000000000"),
                            (1e300, 10**300, "1e+300 and df an int of 997 bits"),
                            # converged, but the log prefactor's terms near 4e20 round past exp's 709
                            (1.0000000004472136e19, 10**19, "1.0000000004472136e+19 and df 10000000000000000000")):
            with pytest.raises(InvalidConfig, match="^chi-square tail did not converge ") as caught:
                chi2_sf(x, k)
            assert str(caught.value) == f"chi-square tail did not converge for statistic {shown}"

    @pytest.mark.parametrize("x, k, reference", [  # Q(k/2, x/2) from mpmath.gammainc at 40 digits
        (100.0, 100, 0.48119168452795672),
        (6e4, 60000, 0.49923223508122895),
        (1e6, 10**6, 0.4998119368033945),
        (1e8, 10**8, 0.49998119368054632),
    ])
    def test_error_within_the_stated_bound(self, x, k, reference):
        bound = 1e-12 if k <= 100 else 5e-16 * k  # the module docstring's promise
        assert abs(chi2_sf(x, k) - reference) <= bound

    def test_large_df_converges_or_underflows(self):
        # past 1,000 terms the old cap returned 0.5784 here
        assert chi2_sf(1e6, 10**6) == pytest.approx(0.49981193693309733, abs=1e-9)
        assert chi2_sf(1.0, 10**305) == 1.0
        for x in (8.98e307, 8.99e307, 1e308, sys.float_info.max):  # either side of 1/b going subnormal
            assert chi2_sf(x, 1) == 0.0
            assert chi2_sf(x, 10**305) == 0.0
