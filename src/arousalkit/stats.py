"""Statistics primitives: correlation, chance-corrected agreement, effect
sizes, and two-sample t tests.

p-values come from the Student t survival function evaluated through the
regularized incomplete beta function.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import betainc


def student_t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= t) for T ~ Student t with df degrees of freedom."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if math.isinf(t):
        return 0.0
    x = df / (df + t * t)
    return float(betainc(df / 2.0, 0.5, x))


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


def _two_groups(a: Sequence[float], b: Sequence[float]):
    """(mean(a) - mean(b), n_a, n_b, s_a^2, s_b^2, pooled variance) of two
    groups of at least 2 observations each."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        raise ValueError("need at least 2 observations per group")
    va = float(a.var(ddof=1))
    vb = float(b.var(ddof=1))
    pooled = ((na - 1) * va + (nb - 1) * vb) / (na + nb - 2)
    return a.mean() - b.mean(), na, nb, va, vb, pooled


def cohens_d(a: Sequence[float], b: Sequence[float]) -> float:
    """Standardized mean difference with the pooled standard deviation.

    d = (mean(a) - mean(b)) / s_p,
    s_p = sqrt(((n_a - 1) s_a^2 + (n_b - 1) s_b^2) / (n_a + n_b - 2)).
    """
    diff, _, _, _, _, pooled = _two_groups(a, b)
    if pooled == 0.0:
        raise ValueError("zero pooled standard deviation")
    return float(diff / math.sqrt(pooled))


def welch_t_test(
    a: Sequence[float], b: Sequence[float]
) -> tuple[float, float, float]:
    """Welch two-sample t test: (t, Welch-Satterthwaite df, two-sided p)."""
    diff, na, nb, va, vb, _ = _two_groups(a, b)
    qa, qb = va / na, vb / nb
    spread = qa**2 / (na - 1) + qb**2 / (nb - 1)
    if spread == 0.0:  # also when the variances are too small to square
        raise ValueError("both groups have zero variance")
    t = float(diff / math.sqrt(qa + qb))
    df = (qa + qb) ** 2 / spread
    return t, df, student_t_two_sided_p(abs(t), df)


def pooled_t_test(
    a: Sequence[float], b: Sequence[float]
) -> tuple[float, float, float]:
    """Classic equal-variance two-sample t test, for sensitivity checks."""
    diff, na, nb, _, _, pooled = _two_groups(a, b)
    if pooled == 0.0:
        raise ValueError("zero pooled variance")
    t = float(diff / math.sqrt(pooled * (1.0 / na + 1.0 / nb)))
    df = float(na + nb - 2)
    return t, df, student_t_two_sided_p(abs(t), df)
