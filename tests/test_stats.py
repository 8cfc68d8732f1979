import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import stdtr

from arousalkit.stats import (
    Moments,
    cohens_d,
    kappa_weights,
    pearson_r,
    pooled_t_moments,
    student_t_two_sided_p,
    weighted_kappa,
    welch_t_test,
)


def t_density(x, df):
    log_c = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) \
        - 0.5 * math.log(df * math.pi)
    return math.exp(log_c - (df + 1) / 2 * math.log1p(x * x / df))


def two_sided_p_by_quadrature(t, df):
    tail, _ = quad(t_density, abs(t), np.inf, args=(df,), limit=200)
    return 2 * tail


def kappa_by_confusion_matrix(x, y, weighting, n_categories=9):
    """Independent route: explicit observed/expected matrices and loops."""
    n = len(x)
    observed = [[0.0] * n_categories for _ in range(n_categories)]
    for xi, yi in zip(x, y):
        observed[xi - 1][yi - 1] += 1
    row = [sum(observed[i]) for i in range(n_categories)]
    col = [sum(observed[i][j] for i in range(n_categories)) for j in range(n_categories)]
    num = den = 0.0
    for i in range(n_categories):
        for j in range(n_categories):
            if weighting == "linear":
                w = abs(i - j) / (n_categories - 1)
            else:
                w = ((i - j) / (n_categories - 1)) ** 2
            num += w * observed[i][j]
            den += w * row[i] * col[j] / n
    if den == 0.0:
        return 1.0
    return 1.0 - num / den


class TestStudentTSurvival:
    @pytest.mark.parametrize("t,df", [(0.0, 5), (1.3, 2), (2.7, 18.4), (7.5, 426)])
    def test_matches_quadrature(self, t, df):
        assert student_t_two_sided_p(t, df) == pytest.approx(
            two_sided_p_by_quadrature(t, df), abs=1e-9
        )

    def test_monotone_decreasing_in_t(self):
        ps = [student_t_two_sided_p(t, 12.0) for t in np.linspace(0, 8, 30)]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_zero_t_gives_one(self):
        assert student_t_two_sided_p(0.0, 9) == pytest.approx(1.0)


class TestIncompleteBeta:
    """``student_t_two_sided_p`` against ``2 * stdtr(df, -t)``. The oracle is
    not ``betainc`` at x = df/(df + t^2): rounding that x already costs up
    to about 2e-9 relative near x = 1."""

    @settings(max_examples=400, deadline=None)
    @given(st.floats(0.0, 6.0), st.floats(-4.0, 3.0))
    @example(6.0, 3.0)
    @example(0.0, -4.0)
    @example(math.log10(879_608.0), math.log10(0.00108))
    def test_relative_error_against_stdtr(self, log_df, log_t):
        df, t = 10.0**log_df, 10.0**log_t
        oracle = 2.0 * float(stdtr(df, -t))
        if oracle >= 1e-300:
            rel = abs(student_t_two_sided_p(t, df) - oracle) / oracle
            assert rel <= (1e-12 if df <= 1e4 else 1e-10), (t, df)

    def test_near_x_one_keeps_the_digits_a_rounded_x_loses(self):
        # 1 - df/(df + t^2) here is 1.3e-12, of which a rounded x keeps 4 digits
        assert student_t_two_sided_p(0.00108, 879_608.0) == pytest.approx(
            0.999138285086765, rel=1e-14)

    @pytest.mark.parametrize("df", [0.0, -1.0, -math.inf])
    def test_nonpositive_df_raises(self, df):
        with pytest.raises(ValueError, match="degrees of freedom"):
            student_t_two_sided_p(1.0, df)

    @pytest.mark.parametrize("t", [math.inf, -math.inf])
    @pytest.mark.parametrize("df", [1.0, 30.0, math.inf, math.nan])
    def test_infinite_t_gives_zero(self, t, df):
        assert student_t_two_sided_p(t, df) == 0.0

    @pytest.mark.parametrize("df", [1e-3, 1.0, 7.5, 1e6, 1e300])
    def test_zero_t_gives_exactly_one(self, df):
        assert student_t_two_sided_p(0.0, df) == 1.0

    @pytest.mark.parametrize("t,df", [(math.nan, 5.0), (1.0, math.nan), (1.0, math.inf),
                                      (0.0, math.inf)])
    def test_nan_t_or_df_or_infinite_df_gives_nan(self, t, df):
        assert math.isnan(student_t_two_sided_p(t, df))

    def test_p_below_the_smallest_normal_prefix_is_zero(self):
        # as scipy's betainc gave it: a subnormal p survives only while the
        # prefix x^a (1 - x)^(1/2) / B(a, 1/2) is still a normal double
        assert student_t_two_sided_p(60.0, 1000.0) == 0.0
        assert student_t_two_sided_p(1e160, 2.0) == 0.0
        assert student_t_two_sided_p(56.0, 1000.0) == pytest.approx(
            2.0 * float(stdtr(1000.0, -56.0)), rel=1e-9)
        assert 0.0 < student_t_two_sided_p(56.0, 1000.0) < sys.float_info.min

    def test_sign_of_t_does_not_matter(self):
        assert student_t_two_sided_p(-2.5, 11.0) == student_t_two_sided_p(2.5, 11.0)

    @pytest.mark.parametrize("df", [1e-300, 1e-12, 0.3, 1e20, 1e300])
    @pytest.mark.parametrize("t", [1e-160, 1e-5, 1.2, 40.0, 1e150])
    def test_extreme_df_stays_a_probability(self, t, df):
        p = student_t_two_sided_p(t, df)
        assert 0.0 <= p <= 1.0
        if 1e-12 <= df <= 1e20:
            assert p == pytest.approx(2.0 * float(stdtr(df, -t)), rel=1e-9, abs=1e-300)


class TestPearson:
    def test_perfect_correlation(self):
        x = [1.0, 2.0, 4.0, 8.0]
        r, p = pearson_r(x, x)
        assert r == pytest.approx(1.0)
        assert p == pytest.approx(0.0, abs=1e-12)

    def test_perfect_anticorrelation(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        r, _ = pearson_r(x, -x)
        assert r == pytest.approx(-1.0)

    def test_twenty_pair_fixture_matches_closed_formulas(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=20)
        y = 0.4 * x + rng.normal(size=20)
        r, p = pearson_r(x, y)
        n = 20
        sx, sy = x.sum(), y.sum()
        sxy = float((x * y).sum())
        sxx = float((x * x).sum())
        syy = float((y * y).sum())
        r_expected = (n * sxy - sx * sy) / math.sqrt(
            (n * sxx - sx * sx) * (n * syy - sy * sy)
        )
        t = r_expected * math.sqrt((n - 2) / (1 - r_expected**2))
        assert r == pytest.approx(r_expected, abs=1e-12)
        assert p == pytest.approx(two_sided_p_by_quadrature(t, n - 2), abs=1e-9)

    def test_zero_variance_is_an_error(self):
        with pytest.raises(ValueError):
            pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short_is_an_error(self):
        with pytest.raises(ValueError):
            pearson_r([1.0, 2.0], [2.0, 1.0])


class TestWeightedKappa:
    def test_perfect_agreement(self):
        x = [1, 3, 5, 7, 9, 2]
        assert weighted_kappa(x, x) == pytest.approx(1.0)

    def test_three_category_hand_computation(self):
        # observed pairs: (1,1) (1,2) (2,2) (3,3) (3,2) (3,3)
        x = [1, 1, 2, 3, 3, 3]
        y = [1, 2, 2, 3, 2, 3]
        assert weighted_kappa(x, y, "linear", n_categories=3) == pytest.approx(0.625)
        assert weighted_kappa(x, y, "quadratic", n_categories=3) == pytest.approx(17 / 23)

    def test_constant_equal_raters_give_one_by_convention(self):
        assert weighted_kappa([4, 4, 4], [4, 4, 4]) == 1.0

    @pytest.mark.parametrize("weighting", ["linear", "quadratic"])
    def test_matches_confusion_matrix_oracle(self, weighting):
        rng = np.random.default_rng(17)
        x = rng.integers(1, 10, size=100).tolist()
        y = np.clip(np.array(x) + rng.integers(-2, 3, size=100), 1, 9).tolist()
        assert weighted_kappa(x, y, weighting) == pytest.approx(
            kappa_by_confusion_matrix(x, y, weighting), abs=1e-12
        )

    @given(
        st.lists(st.integers(1, 9), min_size=2, max_size=60),
        st.integers(0, 2**32 - 1),
    )
    def test_symmetric_and_at_most_one(self, x, shuffle_seed):
        rng = np.random.default_rng(shuffle_seed)
        y = list(rng.permutation(x))
        assert weighted_kappa(x, y) == pytest.approx(weighted_kappa(y, x), abs=1e-12)
        assert weighted_kappa(x, y) <= 1.0 + 1e-12

    def test_out_of_range_score_is_an_error(self):
        with pytest.raises(ValueError):
            weighted_kappa([0, 5], [1, 5])

    def test_unknown_weighting_is_an_error(self):
        with pytest.raises(ValueError):
            kappa_weights(9, "cubic")


class TestCohensD:
    def test_equal_groups_give_zero(self):
        a = [1.0, 2.0, 5.0]
        assert cohens_d(a, a) == pytest.approx(0.0)

    def test_antisymmetry(self):
        a = [1.0, 2.0, 3.5]
        b = [2.0, 4.0, 4.5]
        assert cohens_d(a, b) == pytest.approx(-cohens_d(b, a))

    def test_hand_formula_fixture(self):
        assert cohens_d([1.0, 2.0, 3.0], [2.0, 3.0, 4.0]) == pytest.approx(-1.0)

    def test_zero_pooled_sd_is_an_error(self):
        with pytest.raises(ValueError):
            cohens_d([2.0, 2.0], [3.0, 3.0])

    def test_group_size_minimum(self):
        with pytest.raises(ValueError):
            cohens_d([1.0], [1.0, 2.0])

    @given(
        st.floats(-100.0, 100.0),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_shift_invariant_and_scale_invariant(self, c, scale):
        rng = np.random.default_rng(1)
        a = rng.normal(size=12)
        b = rng.normal(loc=0.6, size=15)
        base = cohens_d(a, b)
        assert cohens_d(a + c, b + c) == pytest.approx(base, abs=1e-12)
        assert cohens_d(a * scale, b * scale) == pytest.approx(base, rel=1e-12)


class TestWelch:
    def test_identical_groups(self):
        a = [1.0, 2.0, 3.0, 4.0]
        t, df, p = welch_t_test(a, a)
        assert t == 0.0
        assert p == pytest.approx(1.0)
        assert df == pytest.approx(6.0)

    def test_swap_negates_t_preserves_p(self):
        a = [1.0, 2.0, 3.0, 4.0]
        b = [2.5, 3.5, 5.0, 6.0, 7.0]
        t1, df1, p1 = welch_t_test(a, b)
        t2, df2, p2 = welch_t_test(b, a)
        assert t1 == pytest.approx(-t2)
        assert df1 == pytest.approx(df2)
        assert p1 == pytest.approx(p2)

    def test_ten_vs_ten_fixture_matches_quadrature_oracle(self):
        rng = np.random.default_rng(8)
        a = rng.normal(loc=0.0, scale=1.0, size=10)
        b = rng.normal(loc=1.0, scale=2.0, size=10)
        t, df, p = welch_t_test(a, b)
        va, vb = a.var(ddof=1), b.var(ddof=1)
        qa, qb = va / 10, vb / 10
        t_expected = (a.mean() - b.mean()) / math.sqrt(qa + qb)
        df_expected = (qa + qb) ** 2 / (qa**2 / 9 + qb**2 / 9)
        assert t == pytest.approx(t_expected, abs=1e-12)
        assert df == pytest.approx(df_expected, abs=1e-12)
        assert p == pytest.approx(two_sided_p_by_quadrature(t_expected, df_expected), abs=1e-9)

    def test_both_zero_variance_is_an_error(self):
        with pytest.raises(ValueError):
            welch_t_test([3.0, 3.0], [4.0, 4.0])

    def test_one_zero_variance_is_fine(self):
        t, df, p = welch_t_test([3.0, 3.0, 3.0], [4.0, 5.0, 6.0])
        assert math.isfinite(t) and math.isfinite(p)

    def test_variances_too_small_to_square_raise_value_error(self):
        # the Welch df squares the variances; 1e-238 squared underflows to 0
        with pytest.raises(ValueError, match="zero variance"):
            welch_t_test([0.0, 2.76e-119], [1.0, 1.0])


class TestPooledT:
    def test_matches_welch_for_equal_variances_sizes(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=30)
        b = rng.normal(loc=0.5, size=30)
        tp, dfp, pp = pooled_t_moments(Moments.of(a), Moments.of(b))
        tw, _, _ = welch_t_test(a, b)
        assert dfp == 58.0
        assert tp == pytest.approx(tw, rel=1e-6)

    def test_fixture_against_quadrature(self):
        a = [1.0, 2.0, 3.0]
        b = [2.0, 3.0, 4.0]
        t, df, p = pooled_t_moments(Moments.of(a), Moments.of(b))
        # d = -1 fixture: t = d / sqrt(1/3 + 1/3)
        assert t == pytest.approx(-1.0 / math.sqrt(2.0 / 3.0), abs=1e-12)
        assert df == 4.0
        assert p == pytest.approx(two_sided_p_by_quadrature(t, 4.0), abs=1e-9)
