"""Statistics primitives: correlation, chance-corrected agreement, effect
sizes, and two-sample t tests.

Two-sided Student t p-values are the regularized incomplete beta
I_x(df/2, 1/2) at x = df/(df + t^2). It is evaluated in pure Python as the
continued fraction of Numerical Recipes (Press et al., 3rd ed., section 6.4)
by the modified Lentz method, with the log-gamma ratio from the Gamma
recurrence and its asymptotic series. Against ``2 * scipy.special.stdtr(df,
-t)`` the relative error is tested to 1e-12 for 1 <= df <= 1e4 and to 1e-10
for df <= 1e6, for 1e-4 <= t <= 1e3 wherever the p-value is at least 1e-300.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Sequence

import numpy as np

_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_LOG_SMALLEST_NORMAL = math.log(sys.float_info.min)


def _log_gamma_half_ratio(a: float) -> float:
    """log Gamma(a + 1/2) - log Gamma(a): the recurrence Gamma(a + 1/2) /
    Gamma(a) = a / (a + 1/2) * Gamma(a + 3/2) / Gamma(a + 1) up to a >= 100,
    then the asymptotic series, whose next term is below 2e-17 there."""
    ratio = 1.0
    while a < 100.0:
        ratio *= a / (a + 0.5)
        a += 1.0
    r = 1.0 / a
    series = r * (0.125 - r * r * (1.0 / 192.0 - r * r / 640.0))
    return math.log(ratio) + 0.5 * math.log(a) - series


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """The continued fraction of I_x(a, b) by the modified Lentz method, for
    y = 1 - x and x < (a + 1) / (a + b + 2). An even step's 1 - K x is formed
    as (1 - K) + K y wherever 1 - K >= 0, and d - 1 and c - 1 are carried
    through each odd step, so nothing cancels for x near 1; the odd term is
    scaled by a + 2m so that it does not underflow for a huge a."""
    if b <= 1.0:
        h = d = (a + 1.0) / ((1.0 - b) + (a + b) * y)
    else:
        h = d = 1.0 / (1.0 - (a + b) / (a + 1.0) * x)
    c = 1.0
    for m in range(1, 1000):
        m2 = 2 * m
        odd = m * (b - m) * x / (a + m2 - 1.0)  # the odd coefficient times a + 2m
        odd_d = odd * (d / (a + m2))
        d = 1.0 / (1.0 + odd_d)
        d_minus_1 = -odd_d * d
        c_minus_1 = odd / (c * (a + m2))
        c = 1.0 + c_minus_1
        h *= d * c
        k = (a + m) / (a + m2) * ((a + b + m) / (a + m2 + 1.0))  # the even coefficient is -k x
        n = (m2 + 1.0 - b) * (a / (a + m2)) + m * (3.0 * m + 2.0 - b) / (a + m2)
        one_minus_kx = n / (a + m2 + 1.0) + k * y if n >= 0.0 else 1.0 - k * x
        d = 1.0 / (one_minus_kx - k * x * d_minus_1)
        c = (one_minus_kx + c_minus_1) / c
        step = d * c
        h *= step
        if abs(step - 1.0) < 3e-16:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge (a={a}, b={b}, x={x})")


def student_t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= t) for T ~ Student t with df degrees of freedom.

    df <= 0 raises; an infinite t gives 0.0; a NaN t or df, or an infinite
    df, gives NaN. With u = t^2/df, x = 1/(1 + u) and 1 - x = u/(1 + u)
    are formed without a subtraction, and a small p is always the fraction
    itself, never 1 minus it. A p whose prefix x^a (1 - x)^(1/2) / B(a, 1/2)
    is below the smallest normal double is 0.0.
    """
    t, df = float(t), float(df)
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if math.isinf(t):
        return 0.0
    u = t * t / df
    if math.isnan(u) or math.isinf(df):
        return math.nan
    if u == 0.0:
        return 1.0
    if math.isinf(u):  # t^2/df overflows: x is 0 and 1 - x is 1 to double precision
        log_u = log1p_u = 2.0 * math.log(abs(t)) - math.log(df)
        x, y = 0.0, 1.0
    else:
        log_u, log1p_u = math.log(u), math.log1p(u)
        x, y = 1.0 / (1.0 + u), u / (1.0 + u)
    a = 0.5 * df
    # log of x^a (1 - x)^(1/2) / B(a, 1/2), B(a, 1/2) = Gamma(a) Gamma(1/2) / Gamma(a + 1/2)
    log_front = (0.5 * (log_u - log1p_u) - a * log1p_u
                 + _log_gamma_half_ratio(a) - _LOG_SQRT_PI)
    if (a + 1.0) * u > 1.5:  # x < (a + 1) / (a + 5/2)
        if log_front < _LOG_SMALLEST_NORMAL:  # p is 0, as scipy's betainc gave it
            return 0.0
        return min(1.0, math.exp(log_front) * _beta_fraction(a, 0.5, x, y) / a)
    return 1.0 - math.exp(log_front) * _beta_fraction(0.5, a, y, x) * 2.0


def pearson_r(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Sample Pearson correlation and its two-sided p-value.

    The p-value uses the transform t = r * sqrt((n - 2) / (1 - r^2))
    against Student t with n - 2 degrees of freedom.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be 1-d vectors of equal length")
    n = len(x)
    if n < 3:
        raise ValueError("need at least 3 pairs")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(np.dot(dx, dx))
    syy = float(np.dot(dy, dy))
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("zero variance input")
    r = float(np.dot(dx, dy) / math.sqrt(sxx * syy))
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return r, 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return r, student_t_two_sided_p(abs(t), n - 2)


def kappa_weights(n_categories: int, weighting: str) -> np.ndarray:
    """Disagreement weight matrix on a 1..n ordinal scale."""
    span = n_categories - 1
    idx = np.arange(n_categories, dtype=np.float64)
    delta = np.abs(idx[:, None] - idx[None, :]) / span
    if weighting == "linear":
        return delta
    if weighting == "quadratic":
        return delta**2
    raise ValueError(f"unknown kappa weighting: {weighting!r}")


def weighted_kappa(
    x: Sequence[int],
    y: Sequence[int],
    weighting: str = "linear",
    n_categories: int = 9,
) -> float:
    """Weighted Cohen kappa over two raters' 1..n_categories scores.

    kappa = 1 - sum(w * observed) / sum(w * expected), with expected cell
    counts from the marginal products. When the expected disagreement is
    zero (both raters constant and equal) the observed disagreement is
    zero too and kappa is 1 by convention.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 1:
        raise ValueError("inputs must be equal-length nonempty vectors")
    if x.min() < 1 or x.max() > n_categories or y.min() < 1 or y.max() > n_categories:
        raise ValueError(f"scores must lie in 1..{n_categories}")
    observed = np.zeros((n_categories, n_categories), dtype=np.float64)
    np.add.at(observed, (x - 1, y - 1), 1.0)
    n = observed.sum()
    expected = np.outer(observed.sum(axis=1), observed.sum(axis=0)) / n
    weights = kappa_weights(n_categories, weighting)
    expected_disagreement = float(np.sum(weights * expected))
    if expected_disagreement == 0.0:
        return 1.0
    return 1.0 - float(np.sum(weights * observed)) / expected_disagreement


class Moments(NamedTuple):
    """Size, mean and unbiased (ddof=1) variance of one sample."""

    n: int
    mean: float
    var: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "Moments":
        values = np.asarray(values, dtype=np.float64)
        if len(values) < 2:
            raise ValueError("need at least 2 observations per group")
        return cls(len(values), float(values.mean()), float(values.var(ddof=1)))


def _pooled_var(a: Moments, b: Moments) -> float:
    return ((a.n - 1) * a.var + (b.n - 1) * b.var) / (a.n + b.n - 2)


def cohens_d_moments(a: Moments, b: Moments) -> float:
    """Standardized mean difference with the pooled standard deviation.

    d = (mean(a) - mean(b)) / s_p,
    s_p = sqrt(((n_a - 1) s_a^2 + (n_b - 1) s_b^2) / (n_a + n_b - 2)).
    """
    pooled = _pooled_var(a, b)
    if pooled == 0.0:
        raise ValueError("zero pooled standard deviation")
    return (a.mean - b.mean) / math.sqrt(pooled)


def welch_t_moments(a: Moments, b: Moments) -> tuple[float, float, float]:
    """Welch two-sample t test: (t, Welch-Satterthwaite df, two-sided p)."""
    qa, qb = a.var / a.n, b.var / b.n
    spread = qa**2 / (a.n - 1) + qb**2 / (b.n - 1)
    if spread == 0.0:  # also when the variances are too small to square
        raise ValueError("both groups have zero variance")
    t = (a.mean - b.mean) / math.sqrt(qa + qb)
    df = (qa + qb) ** 2 / spread
    return t, df, student_t_two_sided_p(abs(t), df)


def pooled_t_moments(a: Moments, b: Moments) -> tuple[float, float, float]:
    """Classic equal-variance two-sample t test, for sensitivity checks."""
    pooled = _pooled_var(a, b)
    if pooled == 0.0:
        raise ValueError("zero pooled variance")
    t = (a.mean - b.mean) / math.sqrt(pooled * (1.0 / a.n + 1.0 / b.n))
    df = float(a.n + b.n - 2)
    return t, df, student_t_two_sided_p(abs(t), df)


def cohens_d(a: Sequence[float], b: Sequence[float]) -> float:
    """``cohens_d_moments`` of two groups of at least 2 observations each."""
    return cohens_d_moments(Moments.of(a), Moments.of(b))


def welch_t_test(
    a: Sequence[float], b: Sequence[float]
) -> tuple[float, float, float]:
    """``welch_t_moments`` of two groups of at least 2 observations each."""
    return welch_t_moments(Moments.of(a), Moments.of(b))
