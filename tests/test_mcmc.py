"""Sampler correctness: conjugate conditionals, kernel invariance, agreement."""

import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import solve_triangular
from scipy.stats import chi2

from meglm.approx import explore_grid, hyper_marginal, latent_marginal
from meglm.data import Dataset, parse_model_config
from meglm import mcmc
from meglm.errors import NumericError, SpecError
from meglm.mcmc import (
    ChainConfig,
    alpha_conditional,
    effective_sample_size,
    gibbs_alpha,
    gibbs_tau_u,
    gibbs_tau_x,
    mh_beta,
    mh_latent_x,
    run_chain,
    tau_u_conditional,
    tau_x_conditional,
    _cholesky_upper,
    _gaussian_block,
    _gibbs_tau_eps,
    _initial_state,
    _lapack,
    _prepare,
)
from meglm.model import build_joint_model, copy_augment
from meglm.priors import GammaPrior
from meglm.studies import FraminghamRecipe, IbexRecipe, simulate_study


def build(config_text: str, dataset: Dataset):
    return build_joint_model(parse_model_config(config_text), dataset)


def inverse_cdf_draws(logpdf, lo, hi, size, rng):
    grid = np.linspace(lo, hi, 4001)
    lp = logpdf(grid)
    pdf = np.exp(lp - lp.max())
    cdf = cumulative_trapezoid(pdf, grid, initial=0.0)
    cdf /= cdf[-1]
    return np.interp(rng.uniform(size=size), cdf, grid)


def equal_probability_chi_square(samples, logpdf, lo, hi, bins=20):
    """Chi-square statistic of samples against 'bins' equal-mass bins."""
    grid = np.linspace(lo, hi, 4001)
    lp = logpdf(grid)
    pdf = np.exp(lp - lp.max())
    cdf = cumulative_trapezoid(pdf, grid, initial=0.0)
    cdf /= cdf[-1]
    edges = np.interp(np.linspace(0.0, 1.0, bins + 1), cdf, grid)
    edges[0], edges[-1] = -np.inf, np.inf
    counts, _ = np.histogram(samples, edges)
    expected = samples.size / bins
    return float(np.sum((counts - expected) ** 2 / expected))


class TestChainConfig:
    def test_reference_defaults_validate(self):
        cfg = ChainConfig(seed=1)
        assert (cfg.iterations, cfg.burn_in, cfg.thin) == (100_000, 10_000, 10)
        assert cfg.kept == 9000

    def test_invalid_settings(self):
        with pytest.raises(SpecError):
            ChainConfig(iterations=100, burn_in=100, seed=1)
        with pytest.raises(SpecError):
            ChainConfig(thin=0, seed=1)
        with pytest.raises(SpecError):
            ChainConfig()
        with pytest.raises(SpecError):
            ChainConfig(seed=-3)


class TestTauXConditional:
    def test_unit_residuals(self):
        shape, rate = tau_x_conditional(
            np.array([1.0, 1.0]), np.zeros(2), GammaPrior(1.0, 1.0)
        )
        assert (shape, rate) == (2.0, 2.0)

    def test_zero_residuals_shift_shape_only(self):
        x = np.array([0.3, -0.7, 1.1])
        shape, rate = tau_x_conditional(x, x, GammaPrior(2.5, 4.0))
        assert (shape, rate) == (2.5 + 1.5, 4.0)

    def test_matches_reference_formula_on_random_states(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            x = rng.normal(size=n)
            mean = rng.normal(size=n)
            prior = GammaPrior(rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0))
            shape, rate = tau_x_conditional(x, mean, prior)
            resid = x - mean
            assert shape == prior.shape + n / 2.0
            assert rate == prior.rate + 0.5 * float(resid @ resid)

    def test_million_draw_mean(self):
        shape, rate = tau_x_conditional(
            np.array([1.2, -0.4, 0.9]), np.zeros(3), GammaPrior(2.0, 1.5)
        )
        rng = np.random.default_rng(5)
        draws = rng.gamma(shape, 1.0 / rate, size=1_000_000)
        mean = shape / rate
        mc_sd = math.sqrt(shape) / rate / 1000.0
        assert abs(draws.mean() - mean) < 3.0 * mc_sd


class TestTauUConditional:
    def test_two_replicates_identity_weights(self):
        rng = np.random.default_rng(3)
        n = 12
        x = rng.normal(size=n)
        w1 = rng.normal(size=n)
        w2 = rng.normal(size=n)
        prior = GammaPrior(3.0, 2.0)
        shape, rate = tau_u_conditional(
            np.concatenate([w1, w2]),
            np.concatenate([x, x]),
            np.ones(2 * n),
            prior,
        )
        assert shape == prior.shape + n
        expected_rate = (
            prior.rate + 0.5 * float((w1 - x) @ (w1 - x)) + 0.5 * float((w2 - x) @ (w2 - x))
        )
        assert rate == pytest.approx(expected_rate, abs=1.0e-14)

    def test_error_free_single_replicate(self):
        x = np.array([0.5, 1.5, -2.0])
        shape, rate = tau_u_conditional(x, x, np.ones(3), GammaPrior(2.0, 7.0))
        assert (shape, rate) == (2.0 + 1.5, 7.0)

    def test_heteroscedastic_mean_against_quadrature(self):
        rng = np.random.default_rng(11)
        n = 8
        x = rng.normal(size=n)
        w = x + rng.normal(size=n) * 0.5
        d = rng.uniform(0.3, 2.5, size=n)
        prior = GammaPrior(2.0, 1.0)
        shape, rate = tau_u_conditional(w, x, d, prior)

        tau = np.linspace(1.0e-6, 40.0, 40_001)
        resid = w - x
        loglik = 0.5 * n * np.log(tau) - 0.5 * tau * float((d * resid) @ resid)
        logprior = (prior.shape - 1.0) * np.log(tau) - prior.rate * tau
        dens = np.exp(loglik + logprior - (loglik + logprior).max())
        quad_mean = np.trapezoid(tau * dens, tau) / np.trapezoid(dens, tau)
        assert shape / rate == pytest.approx(quad_mean, rel=1.0e-6)

        draws = np.random.default_rng(12).gamma(shape, 1.0 / rate, size=1_000_000)
        mc_sd = math.sqrt(shape) / rate / 1000.0
        assert abs(draws.mean() - shape / rate) < 3.0 * mc_sd


class TestAlphaConditional:
    def test_no_data_limit_recovers_prior(self):
        rng = np.random.default_rng(7)
        design = rng.normal(size=(10, 2))
        mu = np.array([0.4, -1.1])
        r = np.array([2.0, 5.0])
        mean, precision = alpha_conditional(rng.normal(size=10), design, 1.0e-14, mu, r)
        assert np.max(np.abs(mean - mu)) < 1.0e-10
        assert np.max(np.abs(precision - np.diag(r))) < 1.0e-10

    def test_scalar_conjugate_update(self):
        x = np.array([1.0, 3.0, 2.0, 2.0])
        design = np.ones((4, 1))
        mean, precision = alpha_conditional(x, design, 1.0, np.array([0.0]), np.array([1.0]))
        assert precision[0, 0] == pytest.approx(5.0, abs=1.0e-14)
        assert mean[0] == pytest.approx(8.0 / 5.0, abs=1.0e-14)

    def test_random_instance_against_density_substitution(self):
        rng = np.random.default_rng(19)
        n, q = 30, 3
        design = np.column_stack([np.ones(n), rng.normal(size=(n, q))])
        x = rng.normal(size=n)
        tau_x = 1.7
        mu = rng.normal(size=q + 1)
        r = rng.uniform(0.5, 3.0, size=q + 1)
        mean, precision = alpha_conditional(x, design, tau_x, mu, r)

        def target_logpdf(alpha):
            resid = x - design @ alpha
            return -0.5 * tau_x * resid @ resid - 0.5 * (alpha - mu) @ (r * (alpha - mu))

        def gaussian_logpdf(alpha):
            diff = alpha - mean
            return -0.5 * diff @ precision @ diff

        points = rng.normal(size=(50, q + 1))
        gaps = np.array([target_logpdf(a) - gaussian_logpdf(a) for a in points])
        assert np.max(np.abs(gaps - gaps[0])) < 1.0e-9

    def test_singular_conditional(self):
        with pytest.raises(NumericError, match="singular"):
            alpha_conditional(
                np.zeros(4), np.zeros((4, 2)), 1.0, np.zeros(2), np.zeros(2)
            )


def ibex_sampler_state():
    """Sampler and initial state of a Gaussian classical-error model (ibex)."""
    sim = simulate_study(IbexRecipe(seed=1))
    model = build(sim.model_config, sim.dataset)
    sampler = _prepare(model)
    return model, sampler, _initial_state(sampler)


class TestConjugateBlocks:
    def test_triangular_solves_match_scipy_bitwise(self):
        # the block's mean and the draw's noise solve, against
        # np.linalg.cholesky and scipy.linalg.solve_triangular
        rng = np.random.default_rng(23)
        for p in range(1, 7):
            for _ in range(20):
                a = rng.normal(size=(p, p))
                precision = a @ a.T + p * np.eye(p)
                chol = np.linalg.cholesky(precision)
                b = rng.normal(size=p)
                mean, upper = _gaussian_block(precision, b, "test block")
                assert np.array_equal(upper, chol.T)
                half = solve_triangular(chol, b, lower=True)
                assert np.array_equal(mean, solve_triangular(chol.T, half, lower=False))
                noise, info = _lapack().dtrtrs(upper, b, lower=0, trans=0)
                assert info == 0
                assert np.array_equal(noise, solve_triangular(chol.T, b, lower=False))

    def test_factor_matches_numpy_cholesky_bitwise(self):
        rng = np.random.default_rng(29)
        for p in range(1, 7):
            for _ in range(200):
                a = rng.normal(size=(p, p + 2))
                precision = a @ a.T + rng.uniform(0.0, 1.0) * np.eye(p)
                assert np.array_equal(_cholesky_upper(precision, "test block"),
                                      np.linalg.cholesky(precision).T)
        good = np.eye(3) + 0.5
        for bad_entry in (math.nan, math.inf, -math.inf):
            bad = good.copy()
            bad[2, 1] = bad_entry
            with pytest.raises(NumericError, match="test block conditional is not finite"):
                _cholesky_upper(bad, "test block")
        indefinite = good.copy()
        indefinite[2, 2] = -1.0
        for not_pd in (indefinite, np.zeros((2, 2)), np.ones((3, 3))):
            with np.errstate(invalid="ignore"), \
                    pytest.raises(NumericError, match="test block conditional precision is singular"):
                _cholesky_upper(not_pd, "test block")

    def test_one_factorization_per_block_per_sweep(self, monkeypatch):
        # a Gaussian classical-error sweep has two conjugate blocks, the
        # exposure and the regression coefficients, each factored once
        model, _, _ = ibex_sampler_state()
        calls = []

        def counted(precision, block):
            calls.append(block)
            return _cholesky_upper(precision, block)

        monkeypatch.setattr(mcmc, "_cholesky_upper", counted)
        run_chain(model, ChainConfig(iterations=50, burn_in=10, thin=1, seed=3))
        assert len(calls) == 2 * 50

    @pytest.mark.parametrize("beta_x", ["gaussian\nmean = 0\nprecision = 0.0001",
                                        "fixed\nvalue = -1.2"], ids=["free", "fixed"])
    def test_per_chain_caches_match_per_sweep_products(self, beta_x):
        # what is computed once per chain must equal, bit for bit, what a
        # sweep would compute from the current design and values
        sim = simulate_study(IbexRecipe(seed=1))
        config = sim.model_config.replace(
            "[prior.beta_x]\nkind = gaussian\nmean = 0\nprecision = 0.0001",
            "[prior.beta_x]\nkind = " + beta_x)
        sampler = _prepare(build(config, sim.dataset))
        state = _initial_state(sampler)
        alpha, beta = sampler.alpha, sampler.beta
        assert np.array_equal(alpha.fixed_part(state.alpha),
                              alpha.design[:, alpha.fixed] @ state.alpha[alpha.fixed])
        state.x = np.random.default_rng(5).normal(size=sampler.n_x)
        X = sampler.regression_design(state.x)
        free = beta.free_columns()
        assert free.flags.f_contiguous and np.array_equal(free, X[:, beta.free])
        assert np.array_equal(beta.fixed_part(state.beta), X[:, beta.fixed] @ state.beta[beta.fixed])
        if beta.gram is not None:
            assert np.array_equal(beta.gram, free.T @ free)

    def test_non_finite_exposure_block_raises(self):
        _, sampler, state = ibex_sampler_state()
        state.tau_x = math.nan
        with pytest.raises(NumericError, match="exposure coefficients"):
            gibbs_alpha(state, sampler, np.random.default_rng(1))

    def test_infinite_residual_precision_raises(self):
        _, sampler, state = ibex_sampler_state()
        state.tau_eps = math.inf
        with pytest.raises(NumericError, match="regression coefficients"):
            mh_beta(state, sampler, 0.2, np.random.default_rng(1))

    def test_nan_latent_x_raises(self):
        _, sampler, state = ibex_sampler_state()
        state.x[3] = math.nan
        with pytest.raises(NumericError, match="regression coefficients"):
            mh_beta(state, sampler, 0.2, np.random.default_rng(1))


def repeated_rows_dataset(n: int, y: float, w: float, family_cols: dict) -> Dataset:
    cols = {"y": np.full(n, y), "w": np.full(n, w)}
    cols.update({k: np.full(n, v) for k, v in family_cols.items()})
    return Dataset.from_arrays(**cols)


LOGISTIC_SLICE_CONFIG = """
[model]
family = binomial
error = classical
response = y
proxy = w
center = false

[prior.beta_0]
kind = fixed
value = -0.4

[prior.beta_x]
kind = fixed
value = 1.3

[prior.alpha_0]
kind = fixed
value = 0.2

[prior.tau_u]
kind = fixed
value = 4.0

[prior.tau_x]
kind = fixed
value = 2.5
"""


class TestLatentXKernel:
    def make_sampler(self, n=10_000, y=1.0, w=0.6):
        dataset = repeated_rows_dataset(n, y, w, {})
        model = build(LOGISTIC_SLICE_CONFIG, dataset)
        sampler = _prepare(model)
        state = _initial_state(sampler)
        return sampler, state

    def target_logpdf_factory(self, y=1.0, w=0.6):
        beta0, beta_x, alpha0, tau_u, tau_x = -0.4, 1.3, 0.2, 4.0, 2.5

        def logpdf(x):
            eta = beta0 + beta_x * x
            return (
                y * eta
                - np.logaddexp(0.0, eta)
                - 0.5 * tau_u * (w - x) ** 2
                - 0.5 * tau_x * (x - alpha0) ** 2
            )

        return logpdf

    def test_zero_scale_stays_put(self):
        sampler, state = self.make_sampler(n=50)
        new_x, acc = mh_latent_x(state, sampler, 0.0, np.random.default_rng(1))
        assert np.array_equal(new_x, state.x)
        assert acc == 1.0

    def test_one_step_invariance_chi_square(self):
        sampler, state = self.make_sampler()
        logpdf = self.target_logpdf_factory()
        rng = np.random.default_rng(23)
        state.x = inverse_cdf_draws(logpdf, -4.0, 4.0, sampler.n_x, rng)
        new_x, acc = mh_latent_x(state, sampler, 0.6, rng)
        assert 0.1 < acc < 0.95
        stat = equal_probability_chi_square(new_x, logpdf, -4.0, 4.0, bins=20)
        assert stat < chi2.ppf(0.999, 19)

    def test_detects_a_broken_kernel(self):
        # The same chi-square resolves a deliberately skewed move, so the
        # invariance test above has teeth.
        sampler, state = self.make_sampler()
        logpdf = self.target_logpdf_factory()
        rng = np.random.default_rng(29)
        state.x = inverse_cdf_draws(logpdf, -4.0, 4.0, sampler.n_x, rng)
        drifted = state.x + 0.08
        stat = equal_probability_chi_square(drifted, logpdf, -4.0, 4.0, bins=20)
        assert stat > chi2.ppf(0.999, 19)

    def test_error_free_limit_collapses_to_proxy(self):
        config = LOGISTIC_SLICE_CONFIG.replace("value = 4.0", "value = 1.0e12")
        dataset = repeated_rows_dataset(200, 1.0, 0.6, {})
        model = build(config, dataset)
        sampler = _prepare(model)
        state = _initial_state(sampler)
        rng = np.random.default_rng(31)
        for _ in range(50):
            state.x, _ = mh_latent_x(state, sampler, 1.0e-6, rng)
        assert np.max(np.abs(state.x - 0.6)) < 5.0e-6


GAUSSIAN_X_CONFIG = """
[model]
family = gaussian
error = classical
response = y
proxy = w
weights = d
center = false

[prior.beta_0]
kind = fixed
value = 0.5

[prior.beta_x]
kind = fixed
value = -0.8

[prior.alpha_0]
kind = fixed
value = 0.3

[prior.tau_u]
kind = fixed
value = 3.0

[prior.tau_x]
kind = fixed
value = 2.0

[prior.tau_eps]
kind = fixed
value = 5.0
"""


class TestGaussianLatentGibbs:
    def test_million_draw_moments_match_closed_form(self):
        n = 10_000
        y_val, w_val, d_val = 0.9, 1.1, 1.6
        dataset = repeated_rows_dataset(n, y_val, w_val, {"d": d_val})
        model = build(GAUSSIAN_X_CONFIG, dataset)
        sampler = _prepare(model)
        state = _initial_state(sampler)
        beta0, beta_x, alpha0 = 0.5, -0.8, 0.3
        tau_u, tau_x, tau_eps = 3.0, 2.0, 5.0

        prec = tau_x + tau_u * d_val + tau_eps * beta_x**2
        mean = (
            tau_x * alpha0 + tau_u * d_val * w_val + tau_eps * beta_x * (y_val - beta0)
        ) / prec

        rng = np.random.default_rng(37)
        chunks = []
        for _ in range(100):
            draw, acc = mh_latent_x(state, sampler, 0.7, rng)
            assert acc == 1.0
            chunks.append(draw)
        draws = np.concatenate(chunks)
        assert draws.size == 1_000_000
        sd = 1.0 / math.sqrt(prec)
        assert abs(draws.mean() - mean) < 3.0 * sd / 1000.0
        assert abs(draws.std(ddof=1) - sd) < 3.0 * sd * math.sqrt(0.5) / 1000.0


GAMMA_SLICE_CONFIG = """
[model]
family = poisson
error = berkson
response = y
proxy = w
random_effect = iid
center = false

[prior.beta_0]
kind = fixed
value = 1.1

[prior.beta_x]
kind = fixed
value = 0.7

[prior.tau_u]
kind = fixed
value = 6.0

[prior.tau_gamma]
kind = fixed
value = 4.0
"""


class TestGammaKernel:
    def test_one_step_invariance_chi_square(self):
        n = 10_000
        y_val, w_val = 3.0, 0.4
        dataset = repeated_rows_dataset(n, y_val, w_val, {})
        model = build(GAMMA_SLICE_CONFIG, dataset)
        sampler = _prepare(model)
        state = _initial_state(sampler)
        state.x = np.full(sampler.n_x, w_val)
        eta0 = 1.1 + 0.7 * w_val

        def logpdf(g):
            return y_val * (eta0 + g) - np.exp(eta0 + g) - 0.5 * 4.0 * g**2

        rng = np.random.default_rng(41)
        state.gamma = inverse_cdf_draws(logpdf, -4.0, 4.0, n, rng)
        from meglm.mcmc import _update_gamma

        new_gamma, acc = _update_gamma(state, sampler, 0.7, rng)
        assert 0.1 < acc < 0.95
        stat = equal_probability_chi_square(new_gamma, logpdf, -4.0, 4.0, bins=20)
        assert stat < chi2.ppf(0.999, 19)


BETA_SLICE_CONFIG = """
[model]
family = binomial
error = classical
response = y
proxy = w
center = false

[prior.beta_0]
kind = gaussian
mean = 0.0
precision = 0.5

[prior.beta_x]
kind = fixed
value = 1.0

[prior.alpha_0]
kind = fixed
value = 0.0

[prior.tau_u]
kind = fixed
value = 4.0

[prior.tau_x]
kind = fixed
value = 1.0
"""


class TestBetaKernel:
    def build_slice(self):
        rng = np.random.default_rng(43)
        n = 40
        x = rng.normal(size=n)
        w = x + rng.normal(size=n) * 0.5
        y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-x))).astype(float)
        dataset = Dataset.from_arrays(y=y, w=w)
        model = build(BETA_SLICE_CONFIG, dataset)
        sampler = _prepare(model)
        state = _initial_state(sampler)
        state.x = x.copy()

        def logpdf(b0):
            b0 = np.asarray(b0, dtype=float)
            eta = b0[..., None] + x
            terms = y * eta - np.logaddexp(0.0, eta)
            return terms.sum(axis=-1) - 0.5 * 0.5 * b0**2

        return sampler, state, logpdf

    def test_one_step_invariance_chi_square(self):
        sampler, state, logpdf = self.build_slice()
        rng = np.random.default_rng(47)
        starts = inverse_cdf_draws(logpdf, -3.0, 3.0, 20_000, rng)
        finals = np.empty_like(starts)
        accepted = 0
        for k, b0 in enumerate(starts):
            state.beta[0] = b0
            beta_new, acc = mh_beta(state, sampler, 0.6, rng)
            finals[k] = beta_new[0]
            accepted += acc
        assert 0.2 < accepted / starts.size < 0.95
        stat = equal_probability_chi_square(finals, logpdf, -3.0, 3.0, bins=20)
        assert stat < chi2.ppf(0.999, 19)

    def test_prior_only_limit(self):
        # Zero-trial rows carry no likelihood, so the block must sample its
        # Gaussian prior.
        n = 30
        dataset = Dataset.from_arrays(
            y=np.zeros(n), w=np.linspace(-1, 1, n), t=np.zeros(n)
        )
        config = BETA_SLICE_CONFIG.replace(
            "proxy = w\ncenter = false", "proxy = w\ntrials = t\ncenter = false"
        )
        model = build(config, dataset)
        sampler = _prepare(model)
        state = _initial_state(sampler)
        rng = np.random.default_rng(53)
        draws = []
        for k in range(40_000):
            state.beta, _ = mh_beta(state, sampler, 2.5, rng)
            if k >= 2000 and k % 4 == 0:
                draws.append(state.beta[0])
        draws = np.asarray(draws)
        ess = effective_sample_size(draws)
        prior_sd = 1.0 / math.sqrt(0.5)
        assert abs(draws.mean()) < 3.0 * prior_sd / math.sqrt(ess)
        assert abs(draws.std(ddof=1) - prior_sd) < 3.0 * prior_sd * math.sqrt(0.5 / ess)

    def test_quadrature_oracle_two_coefficients(self):
        rng = np.random.default_rng(59)
        n = 50
        x = rng.normal(size=n)
        y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-(0.3 + 0.9 * x)))).astype(float)
        config = BETA_SLICE_CONFIG.replace(
            "[prior.beta_x]\nkind = fixed\nvalue = 1.0",
            "[prior.beta_x]\nkind = gaussian\nmean = 0.0\nprecision = 0.5",
        )
        dataset = Dataset.from_arrays(y=y, w=x)
        model = build(config, dataset)
        sampler = _prepare(model)
        state = _initial_state(sampler)
        state.x = x.copy()

        b0g, b1g = np.meshgrid(
            np.linspace(-2.5, 3.0, 401), np.linspace(-2.0, 4.0, 401), indexing="ij"
        )
        eta = b0g[..., None] + b1g[..., None] * x
        lp = (y * eta - np.logaddexp(0.0, eta)).sum(axis=-1)
        lp -= 0.5 * 0.5 * (b0g**2 + b1g**2)
        dens = np.exp(lp - lp.max())
        mass = dens.sum()
        quad_mean0 = float((b0g * dens).sum() / mass)
        quad_mean1 = float((b1g * dens).sum() / mass)

        rng_chain = np.random.default_rng(61)
        kept0, kept1 = [], []
        for k in range(60_000):
            state.beta, _ = mh_beta(state, sampler, 0.45, rng_chain)
            if k >= 5000 and k % 5 == 0:
                kept0.append(state.beta[0])
                kept1.append(state.beta[1])
        kept0, kept1 = np.asarray(kept0), np.asarray(kept1)
        for kept, target in ((kept0, quad_mean0), (kept1, quad_mean1)):
            ess = effective_sample_size(kept)
            assert abs(kept.mean() - target) < 3.0 * kept.std(ddof=1) / math.sqrt(ess)


ALL_GAUSSIAN_CONFIG = """
[model]
family = gaussian
error = classical
response = y
proxy = w
covariates = z1

[prior.beta]
kind = gaussian
mean = 0.0
precision = 0.5

[prior.beta_x]
kind = gaussian
mean = 0.0
precision = 0.25

[prior.alpha_0]
kind = gaussian
mean = 0.0
precision = 1.0

[prior.alpha_z1]
kind = gaussian
mean = 0.0
precision = 1.0

[prior.tau_x]
kind = gamma
shape = 6.0
rate = 2.0

[prior.tau_u]
kind = fixed
value = 4.0

[prior.tau_eps]
kind = fixed
value = 9.0
"""


def all_gaussian_model():
    rng = np.random.default_rng(67)
    n = 20
    x = rng.normal(size=n) * 0.6
    w = x + rng.normal(size=n) * 0.5
    z1 = rng.normal(size=n)
    y = 0.4 + 0.9 * x - 0.5 * z1 + rng.normal(size=n) / 3.0
    dataset = Dataset.from_arrays(y=y, w=w, z1=z1)
    return build(ALL_GAUSSIAN_CONFIG, dataset)


class TestRunChain:
    def test_chain_is_the_public_block_updates(self):
        # run_chain's sweep is the block updates in order, nothing else: a
        # hand loop over them on the same Philox stream draws the same bits
        model, sampler, state = ibex_sampler_state()
        cfg = ChainConfig(iterations=200, burn_in=50, thin=1, seed=13)
        chain = run_chain(model, cfg)
        assert set(chain.acceptance_rates) == {"x", "beta"}

        rng = np.random.Generator(np.random.Philox(13))
        rows = []
        for it in range(1, cfg.iterations + 1):
            state.tau_x = gibbs_tau_x(state, sampler, rng)
            state.tau_u = gibbs_tau_u(state, sampler, rng)
            state.alpha = gibbs_alpha(state, sampler, rng)
            state.x, acc_x = mh_latent_x(state, sampler, 0.5, rng)
            state.beta, acc_b = mh_beta(state, sampler, 0.2, rng)
            state.tau_eps = _gibbs_tau_eps(state, sampler, rng)
            assert acc_x == acc_b == 1.0
            if it > cfg.burn_in:
                values = dict(zip(sampler.beta.names, state.beta))
                values.update(zip(sampler.alpha.names, state.alpha))
                values.update(tau_x=state.tau_x, tau_u=state.tau_u, tau_eps=state.tau_eps)
                rows.append([values[name] for name in chain.names])
        assert np.array_equal(chain.draws, np.array(rows))
        assert chain.acceptance_rates == {"x": 1.0, "beta": 1.0}

    def test_determinism_bitwise(self):
        sim = simulate_study(FraminghamRecipe(n=40, seed=2))
        model = build(sim.model_config, sim.dataset)
        cfg = ChainConfig(iterations=600, burn_in=100, thin=5, seed=99)
        first = run_chain(model, cfg)
        second = run_chain(model, cfg)
        assert first.names == second.names
        assert np.array_equal(first.draws, second.draws)
        assert first.acceptance_rates == second.acceptance_rates
        third = run_chain(model, ChainConfig(iterations=600, burn_in=100, thin=5, seed=100))
        assert not np.array_equal(first.draws, third.draws)

    def test_draw_count_and_rate_bounds(self):
        sim = simulate_study(FraminghamRecipe(n=40, seed=3))
        model = build(sim.model_config, sim.dataset)
        cfg = ChainConfig(iterations=900, burn_in=300, thin=6, seed=7)
        out = run_chain(model, cfg)
        assert out.draws.shape == ((900 - 300) // 6, len(out.names))
        assert out.names == model.parameter_names()
        for rate in out.acceptance_rates.values():
            assert 0.0 <= rate <= 1.0
        with pytest.raises(SpecError):
            out.column("nope")

    def test_adaptation_reaches_target_band(self):
        sim = simulate_study(FraminghamRecipe(n=60, seed=5))
        model = build(sim.model_config, sim.dataset)
        out = run_chain(model, ChainConfig(iterations=6000, burn_in=3000, thin=3, seed=11))
        assert 0.2 < out.acceptance_rates["beta"] < 0.5
        assert 0.2 < out.acceptance_rates["x"] < 0.5

    def test_unsupported_models(self):
        naive = Dataset.from_arrays(y=np.array([1.0, 2.0]), w=np.array([0.1, 0.2]))
        config = """
[model]
family = gaussian
response = y

[prior.beta_0]
kind = gaussian
precision = 1.0

[prior.tau_eps]
kind = gamma
shape = 1.0
rate = 1.0
"""
        model = build(config, naive)
        with pytest.raises(SpecError):
            run_chain(model, ChainConfig(iterations=10, burn_in=1, thin=1, seed=1))
        augmented = copy_augment(all_gaussian_model())
        with pytest.raises(SpecError):
            run_chain(augmented, ChainConfig(iterations=10, burn_in=1, thin=1, seed=1))

    def test_all_gaussian_against_fine_grid_exact_posterior(self):
        model = all_gaussian_model()
        grid = explore_grid(model, dz=0.15, diff_logdens=12.0)
        beta_x_ref = hyper_marginal(grid, 0)
        beta0_ref = latent_marginal(model, grid, model.layout.slice("beta0").start)

        cfg = ChainConfig(iterations=40_000, burn_in=5000, thin=5, seed=71)
        out = run_chain(model, cfg)

        bx = out.column("beta_x")
        ess_bx = effective_sample_size(bx)
        assert abs(bx.mean() - beta_x_ref.mean) < 3.0 * bx.std(ddof=1) / math.sqrt(ess_bx)
        b0 = out.column("beta_0")
        ess_b0 = effective_sample_size(b0)
        assert abs(b0.mean() - beta0_ref.mean) < 3.0 * b0.std(ddof=1) / math.sqrt(ess_b0)
        assert abs(bx.std(ddof=1) - beta_x_ref.sd) < 0.1 * beta_x_ref.sd


class TestEffectiveSampleSize:
    def test_iid_draws(self):
        rng = np.random.default_rng(73)
        draws = rng.standard_normal(20_000)
        ess = effective_sample_size(draws)
        assert 0.8 * draws.size < ess <= 1.2 * draws.size

    def test_ar1_reduction(self):
        rng = np.random.default_rng(79)
        phi = 0.9
        n = 200_000
        noise = rng.standard_normal(n)
        draws = np.empty(n)
        draws[0] = noise[0]
        for k in range(1, n):
            draws[k] = phi * draws[k - 1] + noise[k]
        expected = n * (1.0 - phi) / (1.0 + phi)
        ess = effective_sample_size(draws)
        assert 0.7 * expected < ess < 1.4 * expected

    def test_too_short(self):
        with pytest.raises(SpecError):
            effective_sample_size(np.arange(5.0))


class TestChainVersusApproximation:
    def test_framingham_small_agreement(self):
        # Moderate event rate: the plain-Gaussian latent strategy is only
        # accurate when the likelihood is not strongly skewed, so the desk
        # comparison uses a ~30% outcome rate rather than a rare outcome.
        sim = simulate_study(FraminghamRecipe(n=80, seed=101, beta_0=-1.0))
        model = build(sim.model_config, sim.dataset)

        grid = explore_grid(copy_augment(model), dz=0.75, diff_logdens=8.0)
        approx_model = copy_augment(model)
        layout = approx_model.layout
        approx = {}
        for name, block in (("beta_0", "beta0"), ("beta_z", "beta_z"),
                            ("alpha_0", "alpha0"), ("alpha_z", "alpha_z")):
            marg = latent_marginal(approx_model, grid, layout.slice(block).start)
            approx[name] = (marg.mean, marg.sd)
        bx = hyper_marginal(grid, 0)
        approx["beta_x"] = (bx.mean, bx.sd)

        out = run_chain(model, ChainConfig(iterations=30_000, burn_in=5000, thin=5, seed=103))
        for name, (ref_mean, ref_sd) in approx.items():
            chain = out.column(name)
            assert abs(chain.mean() - ref_mean) < 0.1 * ref_sd, name
            assert abs(chain.std(ddof=1) - ref_sd) < 0.1 * ref_sd, name
