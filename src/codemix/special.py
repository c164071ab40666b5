"""The chi-square survival function, by the regularized incomplete gamma function.

The survival function (upper-tail probability) of a chi-square variable with
``k`` degrees of freedom is

    sf(x; k) = Q(k/2, x/2)

where Q(a, x) = Gamma(a, x) / Gamma(a) is the regularized upper incomplete
gamma function. Q is evaluated with the classic pair of expansions:

* for x < a + 1 the lower-gamma power series converges quickly, and
  Q = 1 - P(a, x);
* otherwise the upper-gamma continued fraction (evaluated with the
  modified Lentz scheme) converges quickly and gives Q directly.

Each helper returns its bare sum or fraction, and P or Q is that times the
common prefactor x^a e^-x / Gamma(a). ``chi2_sf`` builds the prefactor once,
in the log domain to postpone underflow; results are clamped to [0, 1].
Absolute error stays below 1e-12 for x <= 1e4 and k <= 100, and below
5e-16 * k past k = 100: the log prefactor subtracts terms near a log a, so
the error grows with k (1.4e-11 at x = k = 6e4, 1.3e-10 at 1e6, 1.25e-8 at
1e8, against 40-digit references; ``chisq --observed`` reaches about 40,000
categories). A stable prefactor would end this growth but adds code, so it
is left for later; it would replace the one line that builds the prefactor.
"""
from __future__ import annotations

import math

from .errors import InvalidConfig, brief, check_int

_EPS = 1e-16
_MAX_ITER = 100_000
_TINY = 1e-300
#: 1 / the least normal float: past this x/2 the fraction's first term 1/b is subnormal.
_HUGE = 2.0**1022


def _lower_gamma_series(a: float, x: float) -> float:
    """The series  sum x^n / (a(a+1)..(a+n)); P(a, x) is the prefactor times it."""
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total
    return math.nan  # not converged


def _upper_gamma_fraction(a: float, x: float) -> float:
    """The continued fraction, by modified Lentz evaluation; Q(a, x) is the prefactor times it."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / (b if abs(b) >= _TINY else _TINY)
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    return math.nan  # not converged


def chi2_sf(x: float, k: int) -> float:
    """Upper-tail probability P(X > x) for a chi-square with k degrees of freedom.

    Raises InvalidConfig unless x is an int or float (never a bool) that fits
    in a float and is >= 0 (so NaN fails), and k is an integer from 1 to about
    5e305 (so that log Gamma(k/2) fits in a float). It either converges or
    raises: a tail that has not met its tolerance within _MAX_ITER terms, or
    whose prefactor overflows, raises InvalidConfig too, never returning a
    truncated sum.
    """
    if type(x) not in (int, float):
        raise InvalidConfig(f"chi-square statistic must be an int or float, got {type(x).__name__}")
    try:
        half = x / 2.0
    except OverflowError as exc:  # an int too large for a float
        raise InvalidConfig(f"chi-square statistic must fit in a float, got {brief(x)}") from exc
    if not x >= 0.0:
        raise InvalidConfig(f"chi-square statistic must be non-negative, got {x}")
    check_int(k, 1, "degrees of freedom")
    try:
        a = k / 2.0  # sf(x; k) = Q(k/2, x/2)
        log_gamma = math.lgamma(a)  # the prefactor needs log Gamma(k/2) as a float too
    except OverflowError as exc:
        raise InvalidConfig(f"degrees of freedom are too large, got {brief(k)}") from exc
    if half == 0.0:
        return 1.0
    if half > _HUGE:  # infinity too; x/2 > 170 k/2 here, as k/2 < 2.6e305, so Q underflows to 0
        return 0.0
    lower = half < a + 1.0
    expansion = _lower_gamma_series(a, half) if lower else _upper_gamma_fraction(a, half)
    if not math.isnan(expansion):  # one that did not converge gets no prefactor, which could overflow
        try:
            expansion *= math.exp(a * math.log(half) - half - log_gamma)  # the prefactor, at x/2
        except OverflowError:  # its log rounded past 709 (huge k): report it as not converged
            expansion = math.nan
    q = 1.0 - expansion if lower else expansion
    if math.isnan(q):
        raise InvalidConfig(f"chi-square tail did not converge for statistic {brief(x)} and df {brief(k)}")
    return min(1.0, max(0.0, q))
