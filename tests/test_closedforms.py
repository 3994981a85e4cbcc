"""Closed-form conditionals, attenuation, and the naive IRLS fit."""

import math

import numpy as np
import pytest
from scipy import optimize, stats
from scipy.special import expit

from meglm.closedforms import (
    DiagonalGaussian,
    attenuation_factor,
    meb_conditional,
    mec_conditional,
    mec_marginal_w,
    mec_scaled_conditional,
    naive_glm_fit,
)
from meglm.errors import DataError, NumericError, SpecError


def quadrature_posterior_moments(w, alpha0, tau_x, tau_u, d):
    """Brute-force 1-D posterior of x given one proxy observation."""
    sd_x = 1.0 / math.sqrt(tau_x)
    sd_w = 1.0 / math.sqrt(tau_u * d)
    lo = min(alpha0 - 10 * sd_x, w - 10 * sd_w)
    hi = max(alpha0 + 10 * sd_x, w + 10 * sd_w)
    x = np.linspace(lo, hi, 20_001)
    f = stats.norm.pdf(x, alpha0, sd_x) * stats.norm.pdf(w, x, sd_w)
    mass = np.trapezoid(f, x)
    mean = np.trapezoid(x * f, x) / mass
    var = np.trapezoid((x - mean) ** 2 * f, x) / mass
    return mean, var


class TestMecConditional:
    def test_worked_example_against_quadrature(self):
        got = mec_conditional(w=4.0, alpha0=1.0, tau_x=2.0, tau_u=3.0, d=1.0)
        mean, var = quadrature_posterior_moments(4.0, 1.0, 2.0, 3.0, 1.0)
        assert mean == pytest.approx(2.8, abs=1.0e-8)
        assert 1.0 / var == pytest.approx(5.0, rel=1.0e-6)
        assert got.mean[0] == pytest.approx(2.8, abs=1.0e-12)
        assert got.precision_diag[0] == pytest.approx(5.0, abs=1.0e-12)

    def test_returns_the_shared_diagonal_type(self):
        got = mec_conditional(w=4.0, alpha0=1.0, tau_x=2.0, tau_u=3.0, d=1.0)
        assert type(got) is DiagonalGaussian
        assert type(got) is type(mec_marginal_w(1.0, 2.0, 3.0, 1.0))

    def test_agreement_case(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            alpha0 = rng.normal()
            d = rng.uniform(0.2, 3.0, size=4)
            got = mec_conditional(
                np.full(4, alpha0), alpha0, rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0), d
            )
            assert np.max(np.abs(got.mean - alpha0)) < 1.0e-12

    def test_error_free_limit(self):
        w = np.array([0.3, -1.1, 2.2])
        got = mec_conditional(w, alpha0=5.0, tau_x=1.0, tau_u=1.0e12, d=1.0)
        assert np.max(np.abs(got.mean - w)) < 1.0e-4

    def test_mean_is_convex_combination(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            w = rng.normal(size=6)
            alpha0 = rng.normal()
            d = rng.uniform(0.1, 5.0, size=6)
            got = mec_conditional(w, alpha0, rng.uniform(0.1, 9.0), rng.uniform(0.1, 9.0), d)
            lo = np.minimum(w, alpha0)
            hi = np.maximum(w, alpha0)
            assert np.all(got.mean >= lo - 1.0e-12)
            assert np.all(got.mean <= hi + 1.0e-12)
            assert np.all(got.precision_diag > 0.0)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(SpecError):
            mec_conditional(1.0, 0.0, tau_x=-1.0, tau_u=1.0, d=1.0)
        with pytest.raises(SpecError):
            mec_conditional(1.0, 0.0, tau_x=1.0, tau_u=0.0, d=1.0)
        with pytest.raises(SpecError):
            mec_conditional(1.0, 0.0, tau_x=1.0, tau_u=1.0, d=np.array([1.0, -2.0]))

    def test_factorization_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = 5
            alpha0 = rng.normal()
            tau_x = rng.uniform(0.3, 5.0)
            tau_u = rng.uniform(0.3, 5.0)
            d = rng.uniform(0.2, 4.0, size=n)
            w = rng.normal(size=n)
            x = rng.normal(size=n)
            cond = mec_conditional(w, alpha0, tau_x, tau_u, d)
            marg = mec_marginal_w(alpha0, tau_x, tau_u, d)
            lhs = np.sum(
                stats.norm.logpdf(x, alpha0, 1.0 / math.sqrt(tau_x))
                + stats.norm.logpdf(w, x, 1.0 / np.sqrt(tau_u * d))
            )
            rhs = np.sum(
                stats.norm.logpdf(x, cond.mean, 1.0 / np.sqrt(cond.precision_diag))
                + stats.norm.logpdf(w, marg.mean, 1.0 / np.sqrt(marg.precision_diag))
            )
            assert lhs == pytest.approx(rhs, abs=1.0e-10)


class TestMecMarginal:
    def test_equal_variance_sum(self):
        got = mec_marginal_w(alpha0=0.0, tau_x=2.0, tau_u=2.0, d=1.0)
        assert 1.0 / got.precision_diag[0] == pytest.approx(1.0, abs=1.0e-12)

    def test_variance_relation_exact(self):
        rng = np.random.default_rng(3)
        tau_x, tau_u = 1.7, 0.9
        d = rng.uniform(0.3, 2.5, size=8)
        got = mec_marginal_w(0.5, tau_x, tau_u, d)
        assert np.max(
            np.abs(1.0 / got.precision_diag - (1.0 / tau_x + 1.0 / (tau_u * d)))
        ) < 1.0e-14

    def test_simulated_variance_within_mc_tolerance(self):
        rng = np.random.default_rng(19)
        n = 100_000
        tau_x, tau_u, alpha0 = 1.3, 2.1, 0.4
        x = rng.normal(alpha0, 1.0 / math.sqrt(tau_x), size=n)
        w = x + rng.normal(0.0, 1.0 / math.sqrt(tau_u), size=n)
        target = 1.0 / tau_x + 1.0 / tau_u
        mc_sd = target * math.sqrt(2.0 / (n - 1))
        assert abs(np.var(w, ddof=1) - target) < 3.0 * mc_sd


class TestMecScaled:
    def test_unit_scaling_matches_base(self):
        w = np.array([0.2, 1.5])
        base = mec_conditional(w, 0.3, 1.1, 2.2, 1.0)
        scaled = mec_scaled_conditional(w, 0.3, 1.1, 2.2, 1.0, beta_x=1.0)
        assert np.max(np.abs(scaled.mean - base.mean)) == 0.0
        assert np.max(np.abs(scaled.precision_diag - base.precision_diag)) == 0.0

    def test_doubling_shrinks_precision_fourfold(self):
        w = np.array([0.2, 1.5])
        base = mec_conditional(w, 0.3, 1.1, 2.2, 1.0)
        scaled = mec_scaled_conditional(w, 0.3, 1.1, 2.2, 1.0, beta_x=2.0)
        assert np.max(np.abs(scaled.mean - 2.0 * base.mean)) < 1.0e-14
        assert np.max(np.abs(scaled.precision_diag - base.precision_diag / 4.0)) < 1.0e-14

    def test_sampled_moments(self):
        rng = np.random.default_rng(5)
        w, alpha0, tau_x, tau_u, d, beta_x = 1.2, 0.1, 2.0, 3.0, 1.5, -1.7
        base = mec_conditional(w, alpha0, tau_x, tau_u, d)
        scaled = mec_scaled_conditional(w, alpha0, tau_x, tau_u, d, beta_x)
        n = 200_000
        draws = beta_x * rng.normal(
            base.mean[0], 1.0 / math.sqrt(base.precision_diag[0]), size=n
        )
        sd = 1.0 / math.sqrt(scaled.precision_diag[0])
        assert abs(np.mean(draws) - scaled.mean[0]) < 3.0 * sd / math.sqrt(n)
        assert abs(np.std(draws, ddof=1) - sd) < 3.0 * sd * math.sqrt(0.5 / (n - 1))

    def test_zero_beta_rejected(self):
        with pytest.raises(SpecError):
            mec_scaled_conditional(1.0, 0.0, 1.0, 1.0, 1.0, beta_x=0.0)


class TestMebConditional:
    def test_worked_example(self):
        got = meb_conditional(w=1.0, tau_u=4.0, d=1.0, beta_x=2.0)
        assert got.mean[0] == pytest.approx(2.0, abs=1.0e-14)
        assert got.precision_diag[0] == pytest.approx(1.0, abs=1.0e-14)

    def test_unit_beta_is_exposure_law(self):
        w = np.array([0.4, -0.9, 1.3])
        d = np.array([1.0, 2.0, 0.5])
        got = meb_conditional(w, tau_u=3.0, d=d, beta_x=1.0)
        assert np.max(np.abs(got.mean - w)) == 0.0
        assert np.max(np.abs(got.precision_diag - 3.0 * d)) == 0.0

    def test_berkson_variance_identity(self):
        rng = np.random.default_rng(29)
        n = 100_000
        tau_w, tau_u = 1.8, 2.4
        w = rng.normal(0.0, 1.0 / math.sqrt(tau_w), size=n)
        x = w + rng.normal(0.0, 1.0 / math.sqrt(tau_u), size=n)
        target = 1.0 / tau_w + 1.0 / tau_u
        mc_sd = target * math.sqrt(2.0 / (n - 1))
        assert abs(np.var(x, ddof=1) - target) < 3.0 * mc_sd

    def test_zero_beta_rejected(self):
        with pytest.raises(SpecError):
            meb_conditional(1.0, 1.0, 1.0, beta_x=0.0)


class TestAttenuation:
    def test_no_error_limit(self):
        assert attenuation_factor(1.0, 1.0e12) == pytest.approx(1.0, abs=1.0e-10)

    def test_equal_precisions(self):
        assert attenuation_factor(3.3, 3.3) == pytest.approx(0.5, abs=1.0e-15)

    def test_simulated_ols_attenuates_by_half(self):
        rng = np.random.default_rng(41)
        n = 5000
        x = rng.normal(size=n)
        w = x + rng.normal(size=n)
        y = x + rng.normal(0.0, 0.5, size=n)
        fit = naive_glm_fit(y, w, family="gaussian")
        slope = fit.coefficient("beta_x")
        se = fit.standard_errors[1]
        assert abs(slope - 0.5) < 3.0 * se

    def test_rejects_nonpositive(self):
        with pytest.raises(SpecError):
            attenuation_factor(0.0, 1.0)
        with pytest.raises(SpecError):
            attenuation_factor(1.0, -2.0)


def poisson_neg_loglik(coef, X, y):
    eta = X @ coef
    return float(np.sum(np.exp(eta)) - y @ eta)


class TestNaiveGlm:
    def test_linear_matches_normal_equations(self):
        rng = np.random.default_rng(13)
        n = 40
        w = rng.normal(size=n)
        z = rng.normal(size=(n, 2))
        y = 0.5 + 1.2 * w + z @ np.array([0.3, -0.7]) + rng.normal(0.0, 0.4, size=n)
        fit = naive_glm_fit(y, w, z, family="gaussian")
        X = np.column_stack([np.ones(n), w, z])
        expected = np.linalg.solve(X.T @ X, X.T @ y)
        assert np.max(np.abs(fit.coefficients - expected)) < 1.0e-10
        resid = y - X @ expected
        scale = resid @ resid / (n - 4)
        se = np.sqrt(np.diag(scale * np.linalg.inv(X.T @ X)))
        assert np.max(np.abs(fit.standard_errors - se)) < 1.0e-10

    def test_separated_logistic_reports_divergence(self):
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        w = np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])
        with pytest.raises(NumericError):
            naive_glm_fit(y, w, family="binomial")

    def test_poisson_matches_quasi_newton_oracle(self):
        w = np.linspace(-1.0, 0.8, 40)
        y = np.round(np.exp(1.0 + 2.0 * w))
        fit = naive_glm_fit(y, w, family="poisson")
        X = np.column_stack([np.ones(w.size), w])
        res = optimize.minimize(
            poisson_neg_loglik, np.zeros(2), args=(X, y), method="BFGS",
            options={"gtol": 1.0e-10},
        )
        assert np.max(np.abs(fit.coefficients - res.x)) < 1.0e-6
        assert fit.coefficients[0] == pytest.approx(1.0, abs=0.05)
        assert fit.coefficients[1] == pytest.approx(2.0, abs=0.05)

    def test_logistic_against_reference_values(self):
        rng = np.random.default_rng(17)
        n = 400
        w = rng.normal(size=n)
        p = expit(-0.3 + 0.9 * w)
        y = (rng.uniform(size=n) < p).astype(float)
        fit = naive_glm_fit(y, w, family="binomial")
        X = np.column_stack([np.ones(n), w])

        def neg_loglik(coef):
            eta = X @ coef
            return float(np.sum(np.logaddexp(0.0, eta)) - y @ eta)

        res = optimize.minimize(neg_loglik, np.zeros(2), method="BFGS",
                                options={"gtol": 1.0e-10})
        assert np.max(np.abs(fit.coefficients - res.x)) < 1.0e-6

    def test_rank_deficiency(self):
        y = np.array([1.0, 2.0, 3.0])
        w = np.ones(3)
        with pytest.raises(DataError):
            naive_glm_fit(y, w, family="gaussian")

    def test_berkson_linear_slope_is_unbiased(self):
        rng = np.random.default_rng(53)
        n = 5000
        w = rng.normal(size=n)
        x = w + rng.normal(0.0, 1.0, size=n)
        y = 1.0 + 1.0 * x + rng.normal(0.0, 0.3, size=n)
        fit = naive_glm_fit(y, w, family="gaussian")
        assert abs(fit.coefficient("beta_x") - 1.0) < 3.0 * fit.standard_errors[1]

    def test_naive_residual_variance_is_inflated(self):
        rng = np.random.default_rng(59)
        n = 4000
        x = rng.normal(size=n)
        w = x + rng.normal(size=n)
        y = 0.5 + 1.0 * x + rng.normal(0.0, 0.5, size=n)
        naive = naive_glm_fit(y, w, family="gaussian")
        true_fit = naive_glm_fit(y, x, family="gaussian")
        assert naive.deviance / (n - 2) > true_fit.deviance / (n - 2)

    def test_unknown_family(self):
        with pytest.raises(SpecError):
            naive_glm_fit(np.zeros(3), np.arange(3.0), family="gamma")

    @pytest.mark.parametrize(
        "family, y, trials",
        [
            ("poisson", [0.0, 0.5, 2.0, 1.0], None),
            ("poisson", [0.0, -1.0, 2.0, 1.0], None),
            ("binomial", [0.0, 1.0, 4.0, 1.0], [1.0, 2.0, 3.0, 2.0]),
            ("binomial", [0.0, 1.0, 0.5, 1.0], [1.0, 2.0, 3.0, 2.0]),
        ],
    )
    def test_invalid_counts_are_data_errors(self, family, y, trials):
        # without the check these either fit silently (non-integer counts)
        # or run out of iterations and blame separated data
        with pytest.raises(DataError):
            naive_glm_fit(np.array(y), np.array([-1.0, 0.0, 0.5, 1.0]), family=family, trials=trials)

    @pytest.mark.parametrize(
        "y, w, z, trials",
        [
            ([0.0, 1.0, 1.0, 0.0], [-1.0, 0.0, 0.5], None, None),
            ([0.0, 1.0, 1.0, 0.0], [-1.0, 0.0, 0.5, 1.0], [[0.1], [0.2], [0.3]], None),
            ([0.0, 1.0, 1.0, 0.0], [-1.0, 0.0, 0.5, 1.0], None, [1.0, 2.0]),
            ([0.0, 1.0, np.nan, 0.0], [-1.0, 0.0, 0.5, 1.0], None, None),
            ([0.0, 1.0, 1.0, 0.0], [-1.0, np.nan, 0.5, 1.0], None, None),
            ([0.0, 1.0, 1.0, 0.0], [-1.0, 0.0, 0.5, 1.0], [0.1, np.inf, 0.3, 0.2], None),
        ],
        ids=["short-w", "short-z", "short-trials", "nan-y", "nan-w", "inf-z"],
    )
    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_mismatched_or_non_finite_inputs_are_data_errors(self, family, y, w, z, trials):
        z = None if z is None else np.array(z)
        with pytest.raises(DataError):
            naive_glm_fit(np.array(y), np.array(w), z, family=family, trials=trials)
