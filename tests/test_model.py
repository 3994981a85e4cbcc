"""Joint model assembly: layouts, densities, configs, and error paths."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from meglm.data import Dataset, parse_model_config, read_model_config
from meglm.errors import DataError, SpecError
from meglm.mcmc import _initial_state, _prepare, _x_prior_precision_mean
from meglm.model import (
    DEFAULT_COPY_PRECISION,
    ErrorModel,
    ExposureModel,
    ModelSpec,
    ObservationModel,
    block_log_densities,
    build_joint_model,
    copy_augment,
    joint_log_density,
    naive_spec,
    stacked_rows,
)
from meglm.priors import FixedValue, GammaPrior, GaussianPrior
from meglm.studies import make_recipe, simulate_study


def small_classical_spec(center=False, fixed_alpha0=False):
    return ModelSpec(
        observation=ObservationModel(family="gaussian", residual_precision=GammaPrior(1.0, 0.001)),
        error=ErrorModel(kind="classical", tau_u=GammaPrior(8.5, 7.5)),
        exposure=ExposureModel(
            alpha0=FixedValue(0.0) if fixed_alpha0 else GaussianPrior(0.0, 1.0),
            alpha_z=(GaussianPrior(0.0, 0.5),),
            tau_x=GammaPrior(1.0, 0.0009),
        ),
        beta0=GaussianPrior(0.0, 1.0e-4),
        beta_x=GaussianPrior(0.0, 0.01),
        beta_z=(GaussianPrior(1.0, 2.0),),
        response="y",
        proxies=("w1", "w2"),
        covariates=("z",),
        weights="d",
        center=center,
    )


def small_classical_data():
    return Dataset.from_arrays(
        y=[0.3, -1.2, 0.8],
        z=[0.5, 1.5, 3.0],
        w1=[1.1, -0.4, 0.9],
        w2=[0.8, -0.2, 1.3],
        d=[1.0, 2.0, 0.5],
    )


def berkson_poisson_spec():
    return ModelSpec(
        observation=ObservationModel(family="poisson", random_effect=GammaPrior(1.0, 0.005)),
        error=ErrorModel(kind="berkson", tau_u=GammaPrior(1.0, 0.02)),
        exposure=None,
        beta0=GaussianPrior(0.0, 0.001),
        beta_x=GaussianPrior(0.0, 0.001),
        beta_z=(GaussianPrior(0.0, 0.001),),
        response="y",
        proxies=("w",),
        covariates=("z",),
        group="house",
        center=False,
    )


class TestLayout:
    def test_classical_counts(self):
        model = build_joint_model(small_classical_spec(), small_classical_data())
        assert model.block_sizes == (3, 3, 6)
        # beta_0, beta_z, alpha_0, alpha_z, x_1..x_3
        assert model.layout.dim == 7
        assert model.latent_names() == (
            "beta_0", "beta_z", "alpha_0", "alpha_z", "x_1", "x_2", "x_3",
        )
        aug = copy_augment(model)
        assert aug.layout.dim == 10
        assert aug.is_augmented and not model.is_augmented

    def test_latent_name_texture(self):
        model = build_joint_model(small_classical_spec(), small_classical_data())
        names = model.latent_names()
        assert names[0] == "beta_0"
        assert "alpha_0" in names
        assert names[-1] == "x_3"
        assert "beta_z" == names[1] or "beta_z" in names  # column named z

    def test_theta_order_classical_gaussian(self):
        model = build_joint_model(small_classical_spec(), small_classical_data())
        assert model.theta.names == ("beta_x", "tau_u", "tau_x", "tau_eps")
        assert model.theta.scales == ("identity", "log", "log", "log")

    def test_fixed_hypers_leave_theta(self):
        spec = small_classical_spec()
        spec = ModelSpec(
            observation=spec.observation,
            error=ErrorModel(kind="classical", tau_u=FixedValue(2.0)),
            exposure=spec.exposure,
            beta0=spec.beta0,
            beta_x=FixedValue(-1.0),
            beta_z=spec.beta_z,
            response=spec.response,
            proxies=spec.proxies,
            covariates=spec.covariates,
            weights=spec.weights,
            center=False,
        )
        model = build_joint_model(spec, small_classical_data())
        assert model.theta.names == ("tau_x", "tau_eps")
        assert model.theta.named(np.array([1.0, 1.0]))["tau_u"] == 2.0
        assert model.theta.named(np.array([1.0, 1.0]))["beta_x"] == -1.0

    def test_named_lists_fixed_then_free_hypers(self):
        spec = small_classical_spec()
        spec = replace(spec, error=replace(spec.error, tau_u=FixedValue(2.0)))
        model = build_joint_model(spec, small_classical_data())
        theta = np.array([-0.5, 3.0, 4.0])
        assert model.theta.named(theta) == {"tau_u": 2.0, "beta_x": -0.5, "tau_x": 3.0, "tau_eps": 4.0}
        assert model.theta.named(theta)["tau_x"] == 3.0

    def test_berkson_grouped_counts(self):
        data = Dataset.from_arrays(
            y=[1, 3, 0, 2],
            z=[0.0, 0.25, 0.5, 0.75],
            w=[1.2, 1.2, 0.4, 0.4],
            house=[1, 1, 2, 2],
        )
        model = build_joint_model(berkson_poisson_spec(), data)
        assert model.block_sizes == (4, 0, 2)
        # beta_0, beta_z, x_1, x_2, gamma_1..gamma_4
        assert model.layout.dim == 1 + 1 + 2 + 4
        assert model.theta.names == ("beta_x", "tau_u", "tau_gamma")

    def test_missing_response_rows_leave_other_blocks(self):
        data = Dataset.from_arrays(
            y=[0.3, math.nan, 0.8],
            z=[0.5, 1.5, 3.0],
            w1=[1.1, -0.4, 0.9],
            w2=[0.8, -0.2, 1.3],
            d=[1.0, 2.0, 0.5],
        )
        model = build_joint_model(small_classical_spec(), data)
        assert model.block_sizes == (2, 3, 6)

    def test_missing_proxy_replicate_shrinks_proxy_block(self):
        data = Dataset.from_arrays(
            y=[0.3, -1.2, 0.8],
            z=[0.5, 1.5, 3.0],
            w1=[1.1, -0.4, 0.9],
            w2=[0.8, math.nan, 1.3],
            d=[1.0, 2.0, 0.5],
        )
        model = build_joint_model(small_classical_spec(), data)
        assert model.block_sizes == (3, 3, 5)


class TestErrors:
    def test_empty_dataset(self):
        data = Dataset.from_arrays(y=[], z=[], w1=[], w2=[], d=[])
        with pytest.raises(DataError, match="empty dataset"):
            build_joint_model(small_classical_spec(), data)

    def test_zero_error_precision_rejected(self):
        spec = small_classical_spec()
        with pytest.raises(SpecError, match="tau_u"):
            bad = ModelSpec(
                observation=spec.observation,
                error=ErrorModel(kind="classical", tau_u=FixedValue(0.0)),
                exposure=spec.exposure,
                beta0=spec.beta0,
                beta_x=spec.beta_x,
                beta_z=spec.beta_z,
                response=spec.response,
                proxies=spec.proxies,
                covariates=spec.covariates,
                weights=spec.weights,
                center=False,
            )
            build_joint_model(bad, small_classical_data())

    def test_theta_domain_checked(self):
        model = build_joint_model(small_classical_spec(), small_classical_data())
        with pytest.raises(SpecError, match="tau_u"):
            joint_log_density(model, np.zeros(7), np.array([0.5, 0.0, 1.0, 1.0]))

    def test_missing_column(self):
        data = Dataset.from_arrays(y=[1.0], z=[1.0], w1=[1.0], d=[1.0])
        with pytest.raises(DataError, match="w2"):
            build_joint_model(small_classical_spec(), data)

    def test_berkson_proxy_varies_within_group(self):
        data = Dataset.from_arrays(
            y=[1, 3, 0, 2],
            z=[0.0, 0.25, 0.5, 0.75],
            w=[1.2, 1.3, 0.4, 0.4],
            house=[1, 1, 2, 2],
        )
        with pytest.raises(DataError, match="not constant within group"):
            build_joint_model(berkson_poisson_spec(), data)

    def test_interleaved_groups_name_the_first_differing_row(self):
        # house 1 first differs at row 5 and house 2 at row 4, so file
        # order, not group order, picks the row
        data = Dataset.from_arrays(
            y=[1, 3, 0, 2, 1],
            z=[0.0, 0.25, 0.5, 0.75, 1.0],
            w=[1.2, 0.4, 1.2, 0.5, 1.3],
            house=[1, 2, 1, 2, 1],
        )
        with pytest.raises(DataError, match=r"not constant within group \(row 4\)"):
            build_joint_model(berkson_poisson_spec(), data)

    def test_naive_slope_prior_checked(self):
        spec = replace(naive_spec(small_classical_spec()), beta_x=GammaPrior(1.0, 1.0))
        with pytest.raises(SpecError, match="beta_x must be GaussianPrior/FixedValue"):
            build_joint_model(spec, small_classical_data())

    def test_binomial_response_checked(self):
        spec = ModelSpec(
            observation=ObservationModel(family="binomial"),
            error=None,
            exposure=None,
            beta0=GaussianPrior(0.0, 0.01),
            beta_x=GaussianPrior(0.0, 0.01),
            beta_z=(),
            proxies=("w",),
            center=False,
        )
        data = Dataset.from_arrays(y=[0, 2, 1], w=[0.1, 0.2, 0.3])
        with pytest.raises(DataError, match="binomial"):
            build_joint_model(spec, data)

    def test_gaussian_needs_residual_prior(self):
        with pytest.raises(SpecError, match="residual_precision"):
            ObservationModel(family="gaussian")

    def test_unknown_family(self):
        with pytest.raises(SpecError, match="family"):
            ObservationModel(family="student")


class TestJointDensity:
    def test_factorizes_against_direct_computation(self):
        rng = np.random.default_rng(7)
        model = build_joint_model(small_classical_spec(), small_classical_data())
        v = rng.normal(size=7)
        theta = np.array([-1.3, 2.0, 0.7, 1.5])
        beta0, beta_z, alpha0, alpha_z = v[0], v[1], v[2], v[3]
        x = v[4:7]
        beta_x, tau_u, tau_x, tau_eps = theta

        data = small_classical_data()
        y = data.column("y")
        z = data.column("z")
        d = data.column("d")
        eta = beta0 + beta_x * x + beta_z * z
        reg = stats.norm.logpdf(y, eta, math.sqrt(1.0 / tau_eps)).sum()
        exp_mean = -x + alpha0 + alpha_z * z
        expo = stats.norm.logpdf(0.0, exp_mean, np.sqrt(1.0 / tau_x)).sum()
        prox = 0.0
        for col in ("w1", "w2"):
            w = data.column(col)
            prox += stats.norm.logpdf(w, x, np.sqrt(1.0 / (tau_u * d))).sum()
        latent_prior = (
            stats.norm.logpdf(beta0, 0.0, math.sqrt(1.0 / 1.0e-4))
            + stats.norm.logpdf(beta_z, 1.0, math.sqrt(1.0 / 2.0))
            + stats.norm.logpdf(alpha0, 0.0, 1.0)
            + stats.norm.logpdf(alpha_z, 0.0, math.sqrt(1.0 / 0.5))
        )
        hyper_prior = (
            stats.norm.logpdf(beta_x, 0.0, math.sqrt(1.0 / 0.01))
            + stats.gamma.logpdf(tau_u, 8.5, scale=1.0 / 7.5)
            + stats.gamma.logpdf(tau_x, 1.0, scale=1.0 / 0.0009)
            + stats.gamma.logpdf(tau_eps, 1.0, scale=1.0 / 0.001)
        )
        expected = reg + expo + prox + latent_prior + hyper_prior

        got = joint_log_density(model, v, theta)
        assert got == pytest.approx(expected, abs=1e-9)

        blocks = block_log_densities(model, v, theta)
        assert blocks[0] == pytest.approx(reg, abs=1e-9)
        assert blocks[1] == pytest.approx(expo, abs=1e-9)
        assert blocks[2] == pytest.approx(prox, abs=1e-9)

    def test_copy_link_is_exact_at_zero_residual(self):
        rng = np.random.default_rng(11)
        model = build_joint_model(small_classical_spec(), small_classical_data())
        aug = copy_augment(model, copy_precision=1.0e6)
        v = rng.normal(size=7)
        theta = np.array([0.8, 1.1, 0.9, 2.0])
        beta_x = theta[0]
        x = v[4:7]
        v_aug = np.concatenate([v[:4], x, beta_x * x])
        base = joint_log_density(model, v, theta)
        link_const = 3 * 0.5 * (math.log(1.0e6) - math.log(2.0 * math.pi))
        got = joint_log_density(aug, v_aug, theta)
        assert got == pytest.approx(base + link_const, abs=1e-8)

    def test_copy_link_penalizes_mismatch(self):
        model = build_joint_model(small_classical_spec(), small_classical_data())
        aug = copy_augment(model, copy_precision=1.0e6)
        v = np.zeros(7)
        theta = np.array([0.8, 1.1, 0.9, 2.0])
        x = v[4:7]
        exact = np.concatenate([v[:4], x, theta[0] * x])
        off = exact.copy()
        off[7] += 0.01
        drop = joint_log_density(aug, exact, theta) - joint_log_density(aug, off, theta)
        # the nudged copy coordinate moves the first regression mean too
        y1, tau_eps = 0.3, theta[3]
        reg_delta = -0.5 * tau_eps * (y1**2 - (y1 - 0.01) ** 2)
        assert drop == pytest.approx(0.5 * 1.0e6 * 0.01**2 + reg_delta, rel=1e-9)

    def test_poisson_berkson_density(self):
        data = Dataset.from_arrays(
            y=[1, 3, 0, 2],
            z=[0.0, 0.25, 0.5, 0.75],
            w=[1.2, 1.2, 0.4, 0.4],
            house=[1, 1, 2, 2],
        )
        model = build_joint_model(berkson_poisson_spec(), data)
        rng = np.random.default_rng(3)
        v = rng.normal(size=model.layout.dim) * 0.3
        theta = np.array([0.6, 16.0, 20.0])
        beta0, beta_z = v[0], v[1]
        x = v[2:4]
        gam = v[4:8]
        beta_x, tau_u, tau_gamma = theta
        y = data.column("y")
        z = data.column("z")
        w = data.column("w")
        idx = np.array([0, 0, 1, 1])
        eta = beta0 + beta_x * x[idx] + beta_z * z + gam
        reg = stats.poisson.logpmf(y, np.exp(eta)).sum()
        prox = stats.norm.logpdf(-np.array([1.2, 0.4]), -x, math.sqrt(1.0 / tau_u)).sum()
        prior = (
            stats.norm.logpdf(beta0, 0.0, math.sqrt(1.0 / 0.001))
            + stats.norm.logpdf(beta_z, 0.0, math.sqrt(1.0 / 0.001))
            + stats.norm.logpdf(gam, 0.0, math.sqrt(1.0 / tau_gamma)).sum()
            + stats.norm.logpdf(beta_x, 0.0, math.sqrt(1.0 / 0.001))
            + stats.gamma.logpdf(tau_u, 1.0, scale=1.0 / 0.02)
            + stats.gamma.logpdf(tau_gamma, 1.0, scale=1.0 / 0.005)
        )
        expected = reg + prox + prior
        got = joint_log_density(model, v, theta)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_augment_guards(self):
        model = build_joint_model(small_classical_spec(), small_classical_data())
        aug = copy_augment(model)
        assert aug.copy_precision == DEFAULT_COPY_PRECISION
        with pytest.raises(SpecError, match="already"):
            copy_augment(aug)
        with pytest.raises(SpecError, match="> 0"):
            copy_augment(model, copy_precision=0.0)
        naive = build_joint_model(naive_spec(small_classical_spec()), small_classical_data())
        with pytest.raises(SpecError, match="latent covariate"):
            copy_augment(naive)


class TestBerksonWeights:
    """Heteroscedastic Berkson error: one known weight per group scales tau_u."""

    def spec(self):
        return replace(berkson_poisson_spec(), weights="d")

    def data(self, d):
        return Dataset.from_arrays(
            y=[1, 3, 0, 2],
            z=[0.0, 0.25, 0.5, 0.75],
            w=[1.2, 1.2, 0.4, 0.4],
            house=[1, 1, 2, 2],
            d=d,
        )

    def test_weights_must_be_constant_within_group(self):
        with pytest.raises(DataError, match="not constant within group"):
            build_joint_model(self.spec(), self.data([2.0, 3.0, 0.5, 0.5]))

    @pytest.mark.parametrize("d", [[2.0, 2.0, 0.0, 0.0], [-1.0, -1.0, 0.5, 0.5]])
    def test_non_positive_weights_rejected(self, d):
        with pytest.raises(DataError, match="must be positive and complete"):
            build_joint_model(self.spec(), self.data(d))

    def test_absent_weights_rejected(self):
        with pytest.raises(DataError, match="must be positive and complete"):
            build_joint_model(self.spec(), self.data([2.0, 2.0, math.nan, math.nan]))
        no_column = Dataset.from_arrays(
            y=[1, 3], z=[0.0, 0.25], w=[1.2, 1.2], house=[1, 1]
        )
        with pytest.raises(DataError, match="no column named 'd'"):
            build_joint_model(self.spec(), no_column)

    def test_proxy_term_uses_group_weights(self):
        d_group = np.array([2.0, 0.5])
        model = build_joint_model(self.spec(), self.data([2.0, 2.0, 0.5, 0.5]))
        assert np.array_equal(model.proxy_weights, d_group)
        rng = np.random.default_rng(4)
        v = rng.normal(size=model.layout.dim) * 0.3
        theta = np.array([0.6, 16.0, 20.0])
        tau_u = theta[1]
        x = v[2:4]
        reg, expo, prox = block_log_densities(model, v, theta)
        expected = stats.norm.logpdf(
            -np.array([1.2, 0.4]), -x, 1.0 / np.sqrt(tau_u * d_group)
        ).sum()
        assert expo == 0.0
        assert prox == pytest.approx(expected, abs=1.0e-12)
        unweighted = build_joint_model(berkson_poisson_spec(), self.data([2.0, 2.0, 0.5, 0.5]))
        assert block_log_densities(unweighted, v, theta)[0] == pytest.approx(reg, abs=1.0e-12)


def weighted_seedling(seed=3):
    """seedling_like with known proxy weights 0.5 and 2.0 on alternate houses."""
    sim = simulate_study(make_recipe("seedling", seed=seed))
    house = sim.dataset.column("house")
    data = Dataset.from_arrays(**sim.dataset.columns, d=np.where(house % 2 == 0, 2.0, 0.5))
    spec = replace(parse_model_config(sim.model_config), weights="d")
    return build_joint_model(spec, data), data


def per_house(data, column):
    """A column's value in each house, in house order."""
    _, first = np.unique(data.column("house"), return_index=True)
    return data.column(column)[first]


class TestObservationBlockForms:
    """One stored form per block: proxy rows w with mean x, and row
    precisions read off the hyperparameters."""

    @staticmethod
    def row_precisions(model, theta):
        rows = stacked_rows(model, theta)
        h = rows.precision
        return h[rows.reg_slice], h[rows.exp_slice], h[rows.prox_slice], h[rows.copy_slice]

    def test_berkson_proxy_rows_hold_the_centered_group_proxy(self):
        model, data = weighted_seedling()
        w = per_house(data, "w")
        assert np.array_equal(model.proxy_obs, w - float(np.mean(w)))
        assert np.array_equal(model.proxy_weights, per_house(data, "d"))
        assert np.array_equal(model.proxy_x_index, np.arange(model.n_x))

    def test_weighted_ibex(self):
        sim = simulate_study(make_recipe("ibex", n=26, seed=1))
        model = build_joint_model(parse_model_config(sim.model_config), sim.dataset)
        beta_x, tau_u, tau_x, tau_eps = theta = np.array([0.4, 3.0, 0.7, 5.0])
        assert model.theta.names == ("beta_x", "tau_u", "tau_x", "tau_eps")
        reg, exp_, prox, copy = self.row_precisions(model, theta)
        w, d = sim.dataset.column("w"), sim.dataset.column("error.prec")
        assert np.array_equal(reg, np.full(26, tau_eps))
        assert np.array_equal(exp_, np.full(26, tau_x))
        assert np.array_equal(prox, tau_u * d[np.isfinite(w)])
        assert copy.size == 0

    def test_seedling_with_per_house_weights(self):
        model, data = weighted_seedling()
        beta_x, tau_u, tau_gamma = theta = np.array([0.4, 3.0, 6.0])
        assert model.theta.names == ("beta_x", "tau_u", "tau_gamma")
        reg, exp_, prox, copy = self.row_precisions(model, theta)
        assert not reg.any()  # Poisson rows carry no Gaussian precision
        assert exp_.size == 0 and copy.size == 0
        assert np.array_equal(prox, tau_u * per_house(data, "d"))

    def test_classical_with_fixed_tau_x(self):
        spec = small_classical_spec()
        spec = replace(spec, exposure=replace(spec.exposure, tau_x=FixedValue(2.5)))
        model = build_joint_model(spec, small_classical_data())
        beta_x, tau_u, tau_eps = theta = np.array([0.4, 3.0, 5.0])
        assert model.theta.names == ("beta_x", "tau_u", "tau_eps")
        reg, exp_, prox, copy = self.row_precisions(model, theta)
        assert np.array_equal(reg, np.full(3, tau_eps))
        assert np.array_equal(exp_, np.full(3, 2.5))
        # both replicates of every unit are observed, replicate by replicate
        assert np.array_equal(prox, tau_u * np.array([1.0, 2.0, 0.5, 1.0, 2.0, 0.5]))
        assert copy.size == 0

    def test_copy_augmented(self):
        model = copy_augment(build_joint_model(small_classical_spec(), small_classical_data()))
        beta_x, tau_u, tau_x, tau_eps = theta = np.array([0.4, 3.0, 0.7, 5.0])
        reg, exp_, prox, copy = self.row_precisions(model, theta)
        assert np.array_equal(reg, np.full(3, tau_eps))
        assert np.array_equal(exp_, np.full(3, tau_x))
        assert np.array_equal(prox, tau_u * np.array([1.0, 2.0, 0.5, 1.0, 2.0, 0.5]))
        assert np.array_equal(copy, np.full(3, DEFAULT_COPY_PRECISION))

    def test_latent_prior_rows(self):
        model, _ = weighted_seedling()
        rows = stacked_rows(model, np.array([0.4, 3.0, 6.0]))
        free = [c.prior for c in model.coefficients if c.free]
        p, gamma = len(free), model.layout.slice("gamma")
        # after the model's rows: one row per free coefficient observing its
        # prior mean, then one row 0 = gamma_i per random effect
        assert rows.prior_slice == slice(model.n_rows, model.n_rows + p + model.n)
        coef = slice(model.n_rows, model.n_rows + p)
        assert np.array_equal(rows.A[coef], np.eye(p))
        assert np.array_equal(rows.obs[coef], [prior.mean for prior in free])
        assert np.array_equal(rows.precision[coef], [prior.precision for prior in free])
        effects = slice(coef.stop, rows.prior_slice.stop)
        assert not rows.A[effects].any() and not rows.obs[effects].any()
        assert np.array_equal(rows.cols[effects, 0], np.arange(gamma.start, gamma.stop))
        assert np.array_equal(rows.vals[effects, 0], np.ones(model.n))
        assert np.array_equal(rows.precision[effects], np.full(model.n, 6.0))

    def test_weighted_seedling_sampler_x_prior(self):
        model, data = weighted_seedling()
        sampler = _prepare(model)
        state = _initial_state(sampler)
        # no exposure law under Berkson error: no alpha columns and tau_x = 0
        assert sampler.alpha.design.shape == (model.n_x, 0)
        assert state.tau_x == 0.0
        state.tau_u = 3.7
        d = per_house(data, "d")
        w = per_house(data, "w")
        w = w - float(np.mean(w))
        prec, numer = _x_prior_precision_mean(state, sampler)
        assert np.array_equal(prec, 3.7 * d)
        np.testing.assert_allclose(numer, 3.7 * d * w, rtol=1e-15, atol=0.0)


class TestCoefficientTable:
    """Fixed coefficients become offsets, free ones latent columns, on both fitters."""

    def data(self):
        return Dataset.from_arrays(
            y=[0.3, -1.2, math.nan, 0.8],
            z1=[0.5, 1.5, -2.0, 3.0],
            z2=[1.0, -1.0, 0.25, 2.0],
            w=[1.1, -0.4, 0.2, 0.9],
        )

    def classical_spec(self):
        return ModelSpec(
            observation=ObservationModel(family="gaussian", residual_precision=GammaPrior(2.0, 1.0)),
            error=ErrorModel(kind="classical", tau_u=GammaPrior(3.0, 1.0)),
            exposure=ExposureModel(
                alpha0=GaussianPrior(0.5, 1.0),
                alpha_z=(FixedValue(0.3), GaussianPrior(-0.2, 0.5)),
                tau_x=GammaPrior(1.0, 1.0),
            ),
            beta0=FixedValue(0.7),
            beta_x=GaussianPrior(0.1, 0.01),
            beta_z=(FixedValue(-0.4), GaussianPrior(1.0, 2.0)),
            response="y",
            proxies=("w",),
            covariates=("z1", "z2"),
            center=False,
        )

    def test_classical_fixed_and_free_coefficients(self):
        data = self.data()
        z1, z2 = data.column("z1"), data.column("z2")
        rr = np.array([0, 1, 3])
        model = build_joint_model(self.classical_spec(), data)
        assert model.latent_names() == ("beta_z2", "alpha_0", "alpha_z2", "x_1", "x_2", "x_3", "x_4")
        # beta_0 is fixed, so the slope beta_x leads the reported parameters
        assert model.parameter_names() == (
            "beta_x", "beta_z2", "alpha_0", "alpha_z2", "tau_u", "tau_x", "tau_eps")

        rows = stacked_rows(model, model.theta.init_natural())
        reg, exp_, prox, prior = rows.reg_slice, rows.exp_slice, rows.prox_slice, rows.prior_slice
        assert rows.A.shape == (3 + 4 + 4 + 3, 3)
        assert np.array_equal(rows.A[reg], np.column_stack([z2[rr], np.zeros(3), np.zeros(3)]))
        assert np.array_equal(rows.A[exp_], np.column_stack([np.zeros(4), np.ones(4), z2]))
        assert not rows.A[prox].any()
        assert np.allclose(rows.offset[reg], 0.7 - 0.4 * z1[rr], rtol=0.0, atol=1e-15)
        assert np.allclose(rows.offset[exp_], 0.3 * z1, rtol=0.0, atol=1e-15)
        assert not rows.offset[prox].any()
        # one prior row per free coefficient: its mean observed with its precision
        assert np.array_equal(rows.A[prior], np.eye(3))
        assert not rows.vals[prior].any() and not rows.offset[prior].any()
        assert np.array_equal(rows.obs[prior], [1.0, 0.5, -0.2])
        assert np.array_equal(rows.precision[prior], [2.0, 1.0, 0.5])

        sampler = _prepare(model)
        assert sampler.beta.names == ("beta_0", "beta_x", "beta_z1", "beta_z2")
        assert np.array_equal(sampler.beta.mean, [0.7, 0.1, -0.4, 1.0])
        assert np.array_equal(sampler.beta.prec, [math.inf, 0.01, math.inf, 2.0])
        assert np.array_equal(sampler.beta.free, [1, 3])
        assert sampler.alpha.names == ("alpha_0", "alpha_z1", "alpha_z2")
        assert np.array_equal(sampler.alpha.mean, [0.5, 0.3, -0.2])
        assert np.array_equal(sampler.alpha.prec, [1.0, math.inf, 0.5])
        assert np.array_equal(sampler.alpha.free, [0, 2])
        assert np.array_equal(sampler.alpha.design, np.column_stack([np.ones(4), z1, z2]))

    def test_a_flat_prior_gets_no_row(self):
        spec = replace(self.classical_spec(), beta_z=(FixedValue(-0.4), GaussianPrior(1.0, 0.0)))
        model = build_joint_model(spec, self.data())
        rows = stacked_rows(model, model.theta.init_natural())
        # beta_z2 is flat, so only alpha_0 and alpha_z2 observe their means
        assert rows.prior_slice == slice(model.n_rows, model.n_rows + 2)
        assert np.array_equal(rows.A[rows.prior_slice], [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(rows.obs[rows.prior_slice], [0.5, -0.2])

    def test_naive_fixed_beta_x(self):
        data = self.data()
        z1, z2, w = data.column("z1"), data.column("z2"), data.column("w")
        rr = np.array([0, 1, 3])
        spec = replace(self.classical_spec(), beta0=GaussianPrior(0.0, 1.0e-4), beta_x=FixedValue(0.8))
        model = build_joint_model(naive_spec(spec), data)
        assert model.latent_names() == ("beta_0", "beta_z2")
        assert model.theta.names == ("tau_eps",)
        assert model.parameter_names() == ("beta_0", "beta_z2", "tau_eps")

        rows = stacked_rows(model, model.theta.init_natural())
        reg, prior = rows.reg_slice, rows.prior_slice
        assert rows.A.shape == (3 + 2, 2)
        assert np.array_equal(rows.A[reg], np.column_stack([np.ones(3), z2[rr]]))
        assert np.allclose(rows.offset[reg], 0.8 * w[rr] - 0.4 * z1[rr], rtol=0.0, atol=1e-15)
        assert np.array_equal(rows.A[prior], np.eye(2))
        assert np.array_equal(rows.obs[prior], [0.0, 1.0])
        assert np.array_equal(rows.precision[prior], [1.0e-4, 2.0])

        # under error the same fixed slope is a fixed hyperparameter of the
        # grid model and a fixed regression coefficient of the sampler
        model = build_joint_model(spec, data)
        assert dict(model.theta.fixed)["beta_x"] == 0.8
        assert model.parameter_names() == (
            "beta_0", "beta_z2", "alpha_0", "alpha_z2", "tau_u", "tau_x", "tau_eps")
        sampler = _prepare(model)
        assert np.array_equal(sampler.beta.mean, [0.0, 0.8, -0.4, 1.0])
        assert np.array_equal(sampler.beta.prec, [1.0e-4, math.inf, math.inf, 2.0])
        assert np.array_equal(sampler.beta.free, [0, 3])


class TestNaive:
    def test_naive_model_shape(self):
        spec = naive_spec(small_classical_spec())
        model = build_joint_model(spec, small_classical_data())
        assert model.block_sizes == (3, 0, 0)
        assert model.latent_names() == ("beta_0", "beta_x", "beta_z")
        assert model.theta.names == ("tau_eps",)
        assert model.parameter_names() == ("beta_0", "beta_x", "beta_z", "tau_eps")
        # under error beta_x is a hyperparameter, and still reported second
        model = build_joint_model(small_classical_spec(), small_classical_data())
        assert model.parameter_names() == (
            "beta_0", "beta_x", "beta_z", "alpha_0", "alpha_z", "tau_u", "tau_x", "tau_eps")

    def test_naive_covariate_is_replicate_mean(self):
        spec = naive_spec(small_classical_spec())
        model = build_joint_model(spec, small_classical_data())
        w1 = np.array([1.1, -0.4, 0.9])
        w2 = np.array([0.8, -0.2, 1.3])
        assert np.allclose(model.naive_x, (w1 + w2) / 2.0)

    def test_naive_density_matches_direct(self):
        spec = naive_spec(small_classical_spec())
        model = build_joint_model(spec, small_classical_data())
        v = np.array([0.2, -0.5, 0.7])
        theta = np.array([1.5])
        data = small_classical_data()
        y = data.column("y")
        z = data.column("z")
        xbar = model.naive_x
        eta = v[0] + v[1] * xbar + v[2] * z
        expected = (
            stats.norm.logpdf(y, eta, math.sqrt(1.0 / 1.5)).sum()
            + stats.norm.logpdf(v[0], 0.0, math.sqrt(1.0 / 1.0e-4))
            + stats.norm.logpdf(v[1], 0.0, math.sqrt(1.0 / 0.01))
            + stats.norm.logpdf(v[2], 1.0, math.sqrt(1.0 / 2.0))
            + stats.gamma.logpdf(1.5, 1.0, scale=1.0 / 0.001)
        )
        assert joint_log_density(model, v, theta) == pytest.approx(expected, abs=1e-10)


class TestCentering:
    def test_proxies_and_continuous_covariates_centered(self):
        model = build_joint_model(small_classical_spec(center=True), small_classical_data())
        pooled = np.mean([1.1, -0.4, 0.9, 0.8, -0.2, 1.3])
        assert model.centering["w1+w2"] == pytest.approx(pooled)
        assert model.centering["z"] == pytest.approx(np.mean([0.5, 1.5, 3.0]))
        assert model.proxy_obs.mean() == pytest.approx(0.0, abs=1e-12)
        assert model.Z[:, 0].mean() == pytest.approx(0.0, abs=1e-12)

    def test_binary_covariate_not_centered(self):
        data = Dataset.from_arrays(
            y=[0.3, -1.2, 0.8],
            z=[0.0, 1.0, 0.0],
            w1=[1.1, -0.4, 0.9],
            w2=[0.8, -0.2, 1.3],
            d=[1.0, 2.0, 0.5],
        )
        model = build_joint_model(small_classical_spec(center=True), data)
        assert "z" not in model.centering
        assert np.allclose(model.Z[:, 0], [0.0, 1.0, 0.0])


class TestThetaLayout:
    def test_internal_scale_roundtrip(self):
        model = build_joint_model(small_classical_spec(), small_classical_data())
        theta = np.array([-0.7, 2.0, 0.3, 5.0])
        lam = model.theta.to_internal(theta)
        assert lam[0] == pytest.approx(-0.7)
        assert np.allclose(lam[1:], np.log(theta[1:]))
        back = model.theta.to_natural(lam)
        assert np.allclose(back, theta)
        assert model.theta.internal_log_jacobian(lam) == pytest.approx(np.sum(lam[1:]))

    def test_init_natural_uses_prior_means(self):
        model = build_joint_model(small_classical_spec(), small_classical_data())
        init = model.theta.init_natural()
        assert init[0] == pytest.approx(0.0)
        assert init[1] == pytest.approx(8.5 / 7.5)
        assert init[2] == pytest.approx(1.0 / 0.0009)
        assert init[3] == pytest.approx(1.0 / 0.001)


CONFIG_TEXT = """
[model]
family = gaussian
error = classical
response = y
proxy = w1, w2
covariates = z
weights = d
center = false

[prior.beta]
kind = gaussian
mean = 0
precision = 1e-4

[prior.beta_z]
kind = gaussian
mean = 1
precision = 2

[prior.beta_x]
kind = gaussian
precision = 0.01

[prior.alpha_0]
kind = gaussian
mean = 0
precision = 1

[prior.alpha_z]
kind = gaussian
precision = 0.5

[prior.tau_x]
kind = gamma
shape = 1
rate = 0.0009

[prior.tau_u]
kind = gamma
shape = 8.5
rate = 7.5

[prior.tau_eps]
kind = gamma
shape = 1
rate = 0.001
"""


BERKSON_CONFIG = """
[model]
family = poisson
error = berkson
response = y
proxy = w
covariates = z
group = house
random_effect = iid
center = false

[prior.beta]
kind = gaussian
precision = 0.001

[prior.beta_x]
kind = gaussian
precision = 0.001

[prior.tau_u]
kind = gamma
shape = 1
rate = 0.02

[prior.tau_gamma]
kind = gamma
shape = 1
rate = 0.005
"""

PLAIN_CONFIG = """
[model]
family = gaussian
proxy = w1
covariates = z
%s

[prior.beta]
kind = gaussian
precision = 0.01

[prior.tau_eps]
kind = gamma
shape = 1
rate = 1
"""

IGNORED_OR_DOUBLED = [
    pytest.param(CONFIG_TEXT.replace("proxy = w1, w2", "proxy = w1, w1"), "proxy 'w1' is listed twice",
                 id="proxy-twice"),
    pytest.param(CONFIG_TEXT.replace("proxy = w1, w2", "proxy = w1, z"),
                 "column 'z' is both a proxy and a covariate", id="proxy-and-covariate"),
    pytest.param(CONFIG_TEXT.replace("proxy = w1, w2", "proxy = w1, y"),
                 "response 'y' is also listed as a proxy", id="response-as-proxy"),
    pytest.param(CONFIG_TEXT.replace("response = y", "response = z"),
                 "response 'z' is also listed as a covariate", id="response-as-covariate"),
    pytest.param(CONFIG_TEXT.replace("center = false", "center = false\ntrials = n"),
                 "trials column 'n' only applies to the binomial family, not gaussian", id="trials-gaussian"),
    pytest.param(BERKSON_CONFIG.replace("center = false", "center = false\ntrials = n"),
                 "trials column 'n' only applies to the binomial family, not poisson", id="trials-poisson"),
    pytest.param(PLAIN_CONFIG % "weights = d", "weights column 'd' requires a measurement error model",
                 id="weights-without-error"),
    pytest.param(PLAIN_CONFIG % "group = house", "group column 'house' requires a measurement error model",
                 id="group-without-error"),
]


class TestConfigParsing:
    def test_full_config(self):
        spec = parse_model_config(CONFIG_TEXT)
        assert spec.observation.family == "gaussian"
        assert spec.error.kind == "classical"
        assert spec.proxies == ("w1", "w2")
        assert spec.covariates == ("z",)
        assert spec.weights == "d"
        assert not spec.center
        assert spec.beta_z[0].mean == 1.0
        assert spec.exposure.tau_x.rate == pytest.approx(0.0009)
        model = build_joint_model(spec, small_classical_data())
        assert model.block_sizes == (3, 3, 6)

    def test_config_matches_handwritten_spec(self):
        spec = parse_model_config(CONFIG_TEXT)
        assert spec == small_classical_spec(center=False)

    def test_alpha0_must_be_explicit(self):
        text = CONFIG_TEXT.replace("[prior.alpha_0]\nkind = gaussian\nmean = 0\nprecision = 1\n", "")
        with pytest.raises(SpecError, match="alpha_0"):
            parse_model_config(text)

    def test_config_file_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "model.ini"
        path.write_bytes(b"\xef\xbb\xbf" + CONFIG_TEXT.encode("utf-8"))
        assert read_model_config(path) == parse_model_config(CONFIG_TEXT)

    def test_unknown_section_and_key(self):
        with pytest.raises(SpecError, match="unknown section.*model2"):
            parse_model_config(CONFIG_TEXT + "\n[model2]\n", label="x")
        bad = CONFIG_TEXT.replace("weights = d", "weighting = d")
        with pytest.raises(SpecError, match="weighting"):
            parse_model_config(bad)

    def test_bad_error_kind(self):
        bad = CONFIG_TEXT.replace("error = classical", "error = diffuse")
        with pytest.raises(SpecError, match="diffuse"):
            parse_model_config(bad)

    def test_fixed_value_prior(self):
        text = CONFIG_TEXT.replace(
            "[prior.alpha_0]\nkind = gaussian\nmean = 0\nprecision = 1",
            "[prior.alpha_0]\nkind = fixed\nvalue = 0",
        )
        spec = parse_model_config(text)
        assert spec.exposure.alpha0 == FixedValue(0.0)
        model = build_joint_model(spec, small_classical_data())
        assert "alpha_0" not in model.latent_names()

    def test_berkson_config(self):
        assert parse_model_config(BERKSON_CONFIG) == berkson_poisson_spec()

    @pytest.mark.parametrize("text, message", IGNORED_OR_DOUBLED)
    def test_config_refuses_ignored_or_doubled_columns(self, text, message):
        # each column would otherwise be ignored or, for a repeated proxy,
        # counted as a second replicate
        with pytest.raises(SpecError, match=message):
            parse_model_config(text)


COLLIDING_COVARIATES = [
    (("0",), "covariate '0' would share its coefficient names with the intercept beta_0"),
    (("x",), "covariate 'x' would share its coefficient names with the slope beta_x"),
    (("z", "z"), "covariate 'z' is listed twice"),
]

COLLISION_CONFIG = """
[model]
family = gaussian
error = classical
proxy = w1
covariates = %s

[prior.beta]
kind = gaussian
precision = 0.01

[prior.beta_x]
kind = gaussian
precision = 0.01

[prior.alpha]
kind = gaussian
precision = 0.5

[prior.tau_x]
kind = gamma
shape = 1
rate = 1

[prior.tau_u]
kind = gamma
shape = 1
rate = 1

[prior.tau_eps]
kind = gamma
shape = 1
rate = 1
"""


class TestCoefficientNames:
    """A covariate whose coefficient names repeat a name of the parameter
    table is refused, in a spec and in a configuration."""

    @pytest.mark.parametrize("covariates, message", COLLIDING_COVARIATES)
    def test_spec_refuses_colliding_covariate(self, covariates, message):
        base = small_classical_spec()
        k = len(covariates)
        spec = replace(base, covariates=covariates, beta_z=base.beta_z * k,
                       exposure=replace(base.exposure, alpha_z=base.exposure.alpha_z * k))
        with pytest.raises(SpecError, match=message):
            spec.validate()

    @pytest.mark.parametrize("covariates, message", COLLIDING_COVARIATES)
    def test_config_refuses_colliding_covariate(self, covariates, message):
        with pytest.raises(SpecError, match=message):
            parse_model_config(COLLISION_CONFIG % ", ".join(covariates))

    def test_covariate_x_is_allowed_without_proxies(self):
        # a plain regression has no beta_x of its own
        spec = ModelSpec(
            observation=ObservationModel(family="gaussian", residual_precision=GammaPrior(1.0, 1.0)),
            error=None, exposure=None, beta0=GaussianPrior(0.0, 0.01),
            beta_x=GaussianPrior(0.0, 0.0), beta_z=(GaussianPrior(0.0, 0.01),), covariates=("x",))
        model = build_joint_model(spec, Dataset.from_arrays(y=[0.5, 1.0, 2.0], x=[0.0, 1.0, 3.0]))
        assert model.parameter_names() == ("beta_0", "beta_x", "tau_eps")


class TestDatasetIO:
    def test_csv_na_tokens(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,w\n1.5,NA\nNA,2.5\n")
        ds = Dataset.from_csv(path)
        assert ds.n_rows == 2
        assert math.isnan(ds.column("w")[0])
        assert ds.column("w")[1] == 2.5

    def test_csv_bad_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,w\n1.5,abc\n")
        with pytest.raises(DataError, match="line 2.*'w'.*'abc'"):
            Dataset.from_csv(path)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "NaN", "1e999", "Infinity"])
    def test_csv_non_finite_cell_is_refused(self, tmp_path, cell):
        # NA is the only absent token: a non-finite number is an error, not a gap
        path = tmp_path / "d.csv"
        path.write_text("y,w\n1.5,2.0\n0.5,%s\n" % cell)
        with pytest.raises(DataError, match="line 3, column 'w': '%s' is not a finite number" % cell):
            Dataset.from_csv(path)

    def test_csv_with_a_byte_order_mark(self, tmp_path):
        # some spreadsheets save UTF-8 with a leading byte-order mark, which
        # must not become part of the first column's name
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbfy,w\n1.5,2.5\n")
        ds = Dataset.from_csv(path)
        assert ds.names == ("y", "w")
        assert ds.column("y")[0] == 1.5

    def test_csv_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,w\n1.5\n")
        with pytest.raises(DataError, match="expected 2 fields"):
            Dataset.from_csv(path)

    def test_roundtrip(self, tmp_path):
        # what from_arrays accepts, to_csv writes and from_csv reads back
        # bit for bit, NaN as NA
        ds = Dataset.from_arrays(y=[1.0, math.nan, 1e308], w=[0.25, -3.5, -5e-324])
        path = tmp_path / "out.csv"
        ds.to_csv(path)
        back = Dataset.from_csv(path)
        assert back.names == ds.names
        for name in ds.names:
            np.testing.assert_array_equal(back.column(name), ds.column(name))

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_from_arrays_refuses_an_infinity(self, value):
        # to_csv would write it as a cell that from_csv refuses
        with pytest.raises(DataError, match="column 'w' holds an infinite value"):
            Dataset.from_arrays(y=[1.0, math.nan], w=[0.5, value])
