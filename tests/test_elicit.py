"""Prior elicitation: quantile fits and range-to-precision conversions."""
import math

import numpy as np
import pytest
from scipy import special, stats

from meglm import elicit
from meglm.errors import NumericError, SpecError


class TestIncompleteGamma:
    def test_matches_scipy_over_wide_range(self):
        """Local P(a, x) agrees with scipy.special.gammainc to 1e-12."""
        rng = np.random.default_rng(42)
        for _ in range(500):
            a = float(10 ** rng.uniform(-2.5, 2.5))
            x = float(10 ** rng.uniform(-3.0, 2.8))
            assert elicit.regularized_gamma_p(a, x) == pytest.approx(
                float(special.gammainc(a, x)), abs=1e-12
            )

    def test_edges(self):
        assert elicit.regularized_gamma_p(2.0, 0.0) == 0.0
        with pytest.raises(SpecError):
            elicit.regularized_gamma_p(-1.0, 1.0)
        with pytest.raises(SpecError):
            elicit.regularized_gamma_p(1.0, -1.0)


class TestGammaFromQuantiles:
    def test_bias_interval_half_to_two(self):
        """A (0.5, 2.0) central 95% interval lands near the hand-rounded
        Gamma(8.5, 7.5) used in practice; the exact fit is (8.4748, 7.5309)."""
        fit = elicit.gamma_from_quantiles(0.5, 2.0)
        np.testing.assert_allclose(fit.shape, 8.4748159660, rtol=1e-6)
        np.testing.assert_allclose(fit.rate, 7.5308712016, rtol=1e-6)
        assert abs(fit.shape - 8.5) / 8.5 < 0.15
        assert abs(fit.rate - 7.5) / 7.5 < 0.15

    def test_precision_bounds_from_uniform_widths(self):
        """Fitting the (12/0.45^2, 4800) precision bounds reproduces both
        target probabilities exactly; the independent check is scipy's CDF."""
        q_lo = elicit.precision_from_uniform_range(0.45)
        fit = elicit.gamma_from_quantiles(q_lo, 4800.0)
        np.testing.assert_allclose(fit.shape, 1.1944549794406, rtol=1e-5)
        np.testing.assert_allclose(fit.rate, 8.513203975934e-4, rtol=1e-5)
        assert stats.gamma.cdf(q_lo, fit.shape, scale=1.0 / fit.rate) == pytest.approx(
            0.025, abs=1e-8
        )
        assert stats.gamma.cdf(4800.0, fit.shape, scale=1.0 / fit.rate) == pytest.approx(
            0.975, abs=1e-8
        )

    def test_roundtrip_property(self):
        """Re-evaluating the CDF at the targets reproduces the probabilities
        to 1e-8 for random admissible targets."""
        rng = np.random.default_rng(7)
        for _ in range(25):
            q_lo = float(10 ** rng.uniform(-2, 1))
            q_hi = q_lo * float(10 ** rng.uniform(0.2, 2.0))
            p_lo = float(rng.uniform(0.01, 0.2))
            p_hi = float(rng.uniform(0.8, 0.99))
            fit = elicit.gamma_from_quantiles(q_lo, q_hi, p_lo, p_hi)
            assert elicit.regularized_gamma_p(fit.shape, fit.rate * q_lo) == pytest.approx(p_lo, abs=1e-8)
            assert elicit.regularized_gamma_p(fit.shape, fit.rate * q_hi) == pytest.approx(p_hi, abs=1e-8)

    def test_scaling_both_targets_scales_rate_only(self):
        """Scaling (q_lo, q_hi) by c > 0 leaves the shape unchanged and
        divides the rate by c."""
        base = elicit.gamma_from_quantiles(0.5, 2.0)
        for c in (0.1, 3.0, 40.0):
            scaled = elicit.gamma_from_quantiles(0.5 * c, 2.0 * c)
            np.testing.assert_allclose(scaled.shape, base.shape, rtol=1e-9)
            np.testing.assert_allclose(scaled.rate, base.rate / c, rtol=1e-9)

    def test_rejects_bad_targets(self):
        with pytest.raises(SpecError):
            elicit.gamma_from_quantiles(2.0, 0.5)
        with pytest.raises(SpecError):
            elicit.gamma_from_quantiles(0.5, 2.0, 0.9, 0.1)
        with pytest.raises(NumericError):
            # ratio barely above 1 needs a shape beyond the bracket
            elicit.gamma_from_quantiles(1.0, 1.0 + 1e-9)

    def test_rejects_non_finite_targets(self):
        for q_lo, q_hi in ((1.0, math.inf), (1.0, math.nan), (math.nan, 2.0)):
            with pytest.raises(SpecError):
                elicit.gamma_from_quantiles(q_lo, q_hi)


class TestLogNormalFromQuantiles:
    def test_symmetric_closed_form(self):
        """Symmetric probabilities give mu = (ln q_lo + ln q_hi)/2 and
        sigma = (ln q_hi - ln q_lo) / (2 z)."""
        fit = elicit.lognormal_from_quantiles(math.e, math.e**3)
        np.testing.assert_allclose(fit.mu, 2.0, atol=1e-12)
        np.testing.assert_allclose(fit.sigma, 1.0 / 1.959964, rtol=1e-6)

    def test_blood_pressure_range(self):
        """The (40, 130) range yields mu ~= 4.278 and sigma^2 ~= 0.090."""
        fit = elicit.lognormal_from_quantiles(40.0, 130.0)
        np.testing.assert_allclose(fit.mu, 4.27820695, rtol=1e-7)
        np.testing.assert_allclose(fit.sigma2, 0.09041016, rtol=1e-6)

    def test_quantiles_reproduced(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            q_lo = float(10 ** rng.uniform(-1, 2))
            q_hi = q_lo * float(10 ** rng.uniform(0.1, 1.5))
            fit = elicit.lognormal_from_quantiles(q_lo, q_hi, 0.05, 0.9)
            assert stats.lognorm.cdf(q_lo, fit.sigma, scale=math.exp(fit.mu)) == pytest.approx(0.05, abs=1e-9)
            assert stats.lognorm.cdf(q_hi, fit.sigma, scale=math.exp(fit.mu)) == pytest.approx(0.9, abs=1e-9)

    def test_rejects_bad_targets(self):
        for q_lo, q_hi in ((130.0, 40.0), (40.0, math.inf), (40.0, math.nan), (math.nan, 130.0)):
            with pytest.raises(SpecError):
                elicit.lognormal_from_quantiles(q_lo, q_hi)
        with pytest.raises(SpecError):
            elicit.lognormal_from_quantiles(40.0, 130.0, 0.9, math.nan)


class TestRangeConversions:
    def test_uniform_precision_values(self):
        """Width 0.45 gives 12/0.45^2 = 59.26; width 0.05 gives exactly 4800."""
        np.testing.assert_allclose(
            elicit.precision_from_uniform_range(0.45), 12.0 / 0.45**2, rtol=1e-12
        )
        assert elicit.precision_from_uniform_range(0.05) == pytest.approx(4800.0, rel=1e-12)

    def test_uniform_precision_matches_sampled_variance(self):
        """12 / w^2 equals the reciprocal sample variance of a wide uniform draw."""
        rng = np.random.default_rng(11)
        w = 0.8
        draws = rng.uniform(-w / 2, w / 2, size=400_000)
        assert 1.0 / np.var(draws) == pytest.approx(
            elicit.precision_from_uniform_range(w), rel=0.01
        )

    def test_berkson_interval(self):
        """A +/-1.42 interval at z = 1.96 gives precision ~1.9 (1.93 when the
        intermediate sigma is rounded to 0.72), and scales by 100 when the
        interval shrinks tenfold."""
        prec = elicit.berkson_sigma_from_interval(1.42, 1.96)
        np.testing.assert_allclose(prec, (1.96 / 1.42) ** 2, rtol=1e-12)
        assert abs(prec - 1.93) < 0.03
        np.testing.assert_allclose(
            elicit.berkson_sigma_from_interval(0.142, 1.96), 100.0 * prec, rtol=1e-12
        )

    def test_gamma_mean_equal_variance(self):
        """mean 10 -> Gamma(10, 1); the construction pins variance = mean."""
        fit = elicit.gamma_from_mean_equal_variance(10.0)
        assert (fit.shape, fit.rate) == (10.0, 1.0)
        for m in (0.3, 2.0, 57.0):
            f = elicit.gamma_from_mean_equal_variance(m)
            assert f.shape / f.rate == pytest.approx(m)
            assert f.shape / f.rate**2 == pytest.approx(m)

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(SpecError):
                elicit.precision_from_uniform_range(bad)
            with pytest.raises(SpecError):
                elicit.berkson_sigma_from_interval(bad)
