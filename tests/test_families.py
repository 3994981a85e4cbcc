"""Binomial and Poisson likelihood pieces against scipy and finite differences."""

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit

from meglm import families
from meglm.errors import DataError, SpecError

FD_STEP = 1.0e-4


def draw(family, seed=0, n=60):
    """Random eta with a tail of large |eta|, and valid counts for the family."""
    rng = np.random.default_rng(seed)
    eta = np.concatenate([rng.normal(0.0, 3.0, n - 6), [-40.0, -30.0, -12.0, 12.0, 30.0, 40.0]])
    if family == "binomial":
        trials = rng.integers(1, 21, size=n).astype(float)
        y = np.floor(rng.uniform(size=n) * (trials + 1.0))
    else:
        trials = np.ones(n)
        y = rng.integers(0, 50, size=n).astype(float)
    return y, trials, eta


def scipy_logpmf(family, y, trials, eta):
    if family == "poisson":
        return stats.poisson.logpmf(y, np.exp(eta))
    # scipy takes p, which rounds to 1 for large eta and loses log(1 - p);
    # mirror those rows, log C(n, y) p^y q^(n-y) = log C(n, n-y) q^(n-y) p^y
    up = eta > 0.0
    k = np.where(up, trials - y, y)
    return stats.binom.logpmf(k, trials, expit(np.where(up, -eta, eta)))


@pytest.mark.parametrize("family", ["binomial", "poisson"])
class TestFamily:
    def test_loglik_plus_normalizer_is_scipy_logpmf(self, family):
        y, trials, eta = draw(family)
        expected = scipy_logpmf(family, y, trials, eta)
        rows = families.loglik(family, y, trials, eta)
        for i in range(y.size):
            one = slice(i, i + 1)
            got = rows[i] + families.log_normalizer(family, y[one], trials[one])
            assert got == pytest.approx(expected[i], rel=1.0e-12, abs=1.0e-10)
        total = float(np.sum(rows)) + families.log_normalizer(family, y, trials)
        assert total == pytest.approx(float(np.sum(expected)), rel=1.0e-12)

    def test_score_and_weight_match_central_differences(self, family):
        y, trials, eta = draw(family, seed=1)

        def ll(e):
            return families.loglik(family, y, trials, e)

        score, weight = families.score_weight(family, y, trials, eta)
        up, mid, down = ll(eta + FD_STEP), ll(eta), ll(eta - FD_STEP)
        np.testing.assert_allclose(score, (up - down) / (2.0 * FD_STEP), rtol=1.0e-6, atol=1.0e-6)
        np.testing.assert_allclose(
            weight, -(up - 2.0 * mid + down) / FD_STEP**2, rtol=1.0e-4, atol=1.0e-3
        )
        assert np.all(weight >= 0.0)

    def test_deviance_is_zero_at_the_saturated_fit(self, family):
        y, trials, _ = draw(family, seed=2)
        keep = (y > 0) & (y < trials) if family == "binomial" else y > 0
        y, trials = y[keep], trials[keep]
        mean = y / trials if family == "binomial" else y
        eta = np.log(mean / (1.0 - mean)) if family == "binomial" else np.log(mean)
        assert families.deviance(family, y, trials, eta) == pytest.approx(0.0, abs=1.0e-9)
        assert families.deviance(family, y, trials, eta + 0.5) > 0.0

    def test_accepts_valid_counts(self, family):
        y, trials, _ = draw(family, seed=3)
        families.check_response(family, y, trials)

    @pytest.mark.parametrize("bad", [0.5, -1.0, np.nan, np.inf])
    def test_rejects_bad_response(self, family, bad):
        y = np.array([0.0, 1.0, bad])
        with pytest.raises(DataError):
            families.check_response(family, y, np.full(3, 2.0))


def test_binomial_rejects_counts_above_trials():
    with pytest.raises(DataError):
        families.check_response("binomial", np.array([0.0, 4.0]), np.array([5.0, 3.0]))


@pytest.mark.parametrize("trials", [2.5, -1.0, np.nan, np.inf])
def test_binomial_rejects_trials_that_are_not_counts(trials):
    with pytest.raises(DataError, match="binomial trials must be nonnegative integers"):
        families.check_response("binomial", np.array([1.0, 0.0]), np.array([3.0, trials]))


def test_unknown_family_is_a_spec_error():
    eta = np.zeros(2)
    with pytest.raises(SpecError):
        families.check_response("gamma", eta, eta)
    for fn in (families.loglik, families.score_weight, families.deviance):
        with pytest.raises(SpecError):
            fn("gaussian", eta, eta, eta)
    with pytest.raises(SpecError):
        families.log_normalizer("gaussian", eta, eta)
