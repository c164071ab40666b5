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

The common prefactor x^a e^-x / Gamma(a) is computed in the log domain to
postpone underflow; results are clamped to [0, 1]. Absolute error stays
below 1e-12 for x <= 1e4 and k <= 100.
"""
from __future__ import annotations

import math

from .errors import InvalidConfig, brief, check_int

_EPS = 1e-16
_MAX_ITER = 1000
_TINY = 1e-300


def _log_prefactor(a: float, x: float) -> float:
    return a * math.log(x) - x - math.lgamma(a)


def _lower_gamma_series(a: float, x: float) -> float:
    """P(a, x) by the series  x^a e^-x / Gamma(a) * sum x^n / (a(a+1)..(a+n))."""
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(_log_prefactor(a, x))


def _upper_gamma_fraction(a: float, x: float) -> float:
    """Q(a, x) by the continued fraction, modified Lentz evaluation."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
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
            break
    return math.exp(_log_prefactor(a, x)) * h


def chi2_sf(x: float, k: int) -> float:
    """Upper-tail probability P(X > x) for a chi-square with k degrees of freedom.

    Raises InvalidConfig unless x is an int or float (never a bool) that fits
    in a float and is >= 0 (so NaN fails), and k is an integer of at least 1.
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
    a, x = k / 2.0, half  # sf(x; k) = Q(k/2, x/2)
    if x == 0.0:
        return 1.0
    q = 1.0 - _lower_gamma_series(a, x) if x < a + 1.0 else _upper_gamma_fraction(a, x)
    return min(1.0, max(0.0, q))
