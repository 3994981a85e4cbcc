"""Hyperparameter grid exploration and finite-mixture posterior marginals."""

import inspect
import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit

import meglm.approx
import meglm.gaussian
import meglm.model
from meglm.approx import (
    GRID_POINT_CAP,
    MARGINAL_GRID_SIZE,
    IntegrationGrid,
    _explore_lattice,
    explore_grid,
    hyper_marginal,
    latent_marginal,
    latent_marginals,
    log_hyperposterior,
    mixture_marginal,
)
from meglm.data import Dataset, parse_model_config
from meglm.errors import NumericError, SpecError
from meglm.gaussian import exact_linear_gaussian_posterior, latent_gaussian_approx
from meglm.model import (
    ErrorModel,
    ExposureModel,
    ModelSpec,
    ObservationModel,
    ThetaEntry,
    ThetaLayout,
    build_joint_model,
    copy_augment,
    joint_log_density,
)
from meglm.priors import LOG_2PI, FixedValue, GammaPrior, GaussianPrior
from meglm.report import laplace_marginals
from meglm.studies import make_recipe, simulate_study


def linear_two_free_model():
    """Linear classical-error model with free (tau_u, tau_eps), rest fixed."""
    spec = ModelSpec(
        observation=ObservationModel(
            family="gaussian", residual_precision=GammaPrior(4.0, 2.0)
        ),
        error=ErrorModel(kind="classical", tau_u=GammaPrior(8.5, 7.5)),
        exposure=ExposureModel(
            alpha0=GaussianPrior(0.0, 1.0), alpha_z=(), tau_x=FixedValue(1.2)
        ),
        beta0=GaussianPrior(0.0, 0.5),
        beta_x=FixedValue(0.8),
        beta_z=(),
        proxies=("w",),
        center=False,
    )
    data = Dataset.from_arrays(y=[0.5, -0.3, 0.9], w=[1.0, -0.6, 1.4])
    return build_joint_model(spec, data)


def linear_marginal_logpdf(theta_nat):
    """Exact evidence for linear_two_free_model by joint-normal marginalization.

    With all latents integrated out, (y, w) is multivariate normal; the
    latent order never enters. Hyperparameters arrive in natural scale as
    (tau_u, tau_eps).
    """
    tau_u, tau_eps = float(theta_nat[0]), float(theta_nat[1])
    beta_x, tau_x = 0.8, 1.2
    p_beta0, p_alpha0 = 0.5, 1.0
    y = np.array([0.5, -0.3, 0.9])
    w = np.array([1.0, -0.6, 1.4])
    n = y.size
    J = np.ones((n, n))
    eye = np.eye(n)
    cov_x = J / p_alpha0 + eye / tau_x
    cov = np.block(
        [
            [J / p_beta0 + beta_x ** 2 * cov_x + eye / tau_eps, beta_x * cov_x],
            [beta_x * cov_x, cov_x + eye / tau_u],
        ]
    )
    mean = np.zeros(2 * n)
    like = stats.multivariate_normal.logpdf(np.concatenate([y, w]), mean=mean, cov=cov)
    prior = GammaPrior(8.5, 7.5).log_density(tau_u) + GammaPrior(4.0, 2.0).log_density(
        tau_eps
    )
    return float(like) + float(prior)


def bernoulli_toy_model():
    """One Bernoulli observation, one latent exposure, beta_x free."""
    spec = ModelSpec(
        observation=ObservationModel(family="binomial"),
        error=ErrorModel(kind="classical", tau_u=FixedValue(9.0)),
        exposure=ExposureModel(
            alpha0=FixedValue(0.0), alpha_z=(), tau_x=FixedValue(9.0)
        ),
        beta0=FixedValue(0.2),
        beta_x=GaussianPrior(0.5, 1.0),
        beta_z=(),
        proxies=("w",),
        center=False,
    )
    data = Dataset.from_arrays(y=[1.0], w=[0.5])
    return build_joint_model(spec, data)


def bernoulli_quadrature_logpost(beta_x):
    """Dense 10,000-point quadrature over the single latent exposure."""
    x = np.linspace(-6.0, 6.0, 10_000)
    sd = 1.0 / 3.0
    f = (
        expit(0.2 + beta_x * x)
        * stats.norm.pdf(x, 0.0, sd)
        * stats.norm.pdf(0.5, x, sd)
    )
    evid = float(np.log(np.trapezoid(f, x)))
    return evid + float(stats.norm.logpdf(beta_x, 0.5, 1.0))


def conjugate_fixed_model():
    """All hyperparameters fixed, so the grid is a single point."""
    spec = ModelSpec(
        observation=ObservationModel(
            family="gaussian", residual_precision=FixedValue(1.0)
        ),
        error=ErrorModel(kind="classical", tau_u=FixedValue(1.0)),
        exposure=ExposureModel(
            alpha0=FixedValue(0.0), alpha_z=(), tau_x=FixedValue(1.0)
        ),
        beta0=GaussianPrior(0.0, 1.0),
        beta_x=FixedValue(0.0),
        beta_z=(),
        proxies=("w",),
        center=False,
    )
    data = Dataset.from_arrays(y=[0.0], w=[2.0])
    return build_joint_model(spec, data)


def symmetric_beta_model():
    """Zero data and even priors make the beta_x posterior exactly even."""
    spec = ModelSpec(
        observation=ObservationModel(
            family="gaussian", residual_precision=FixedValue(2.0)
        ),
        error=ErrorModel(kind="classical", tau_u=FixedValue(3.0)),
        exposure=ExposureModel(
            alpha0=GaussianPrior(0.0, 1.0), alpha_z=(), tau_x=FixedValue(2.5)
        ),
        beta0=GaussianPrior(0.0, 1.0),
        beta_x=GaussianPrior(0.0, 1.0),
        beta_z=(),
        proxies=("w",),
        center=False,
    )
    data = Dataset.from_arrays(y=[0.0, 0.0], w=[0.0, 0.0])
    return build_joint_model(spec, data)


@dataclass(frozen=True)
class ShiftedGaussian(GaussianPrior):
    shift: float = 0.0

    def log_density(self, value):
        return GaussianPrior.log_density(self, value) + self.shift


def with_shifted_priors(model, shift):
    entries = tuple(
        ThetaEntry(e.name, e.scale, ShiftedGaussian(e.prior.mean, e.prior.precision, shift))
        for e in model.theta.entries
    )
    layout = ThetaLayout(entries=entries, fixed=model.theta.fixed)
    return replace(model, theta=layout)


class TestLogHyperposterior:
    def test_all_gaussian_differences_match_marginalized(self):
        model = linear_two_free_model()
        thetas = [
            np.array([1.0, 2.0]),
            np.array([0.6, 1.1]),
            np.array([1.8, 3.5]),
            np.array([1.13, 0.4]),
        ]
        lps = [log_hyperposterior(model, t) for t in thetas]
        oracle = [linear_marginal_logpdf(t) for t in thetas]
        for i in range(1, len(thetas)):
            got = lps[i] - lps[0]
            want = oracle[i] - oracle[0]
            assert got == pytest.approx(want, abs=1.0e-8)

    def test_prior_constant_shift(self):
        model = bernoulli_toy_model()
        shifted = with_shifted_priors(model, 1.7)
        theta = np.array([0.9])
        base = log_hyperposterior(model, theta)
        moved = log_hyperposterior(shifted, theta)
        assert moved - base == pytest.approx(1.7, abs=1.0e-12)

    def test_bernoulli_matches_dense_quadrature(self):
        model = bernoulli_toy_model()
        betas = [0.0, 0.5, 1.0, 2.0, -1.0]
        lps = [log_hyperposterior(model, np.array([b])) for b in betas]
        oracle = [bernoulli_quadrature_logpost(b) for b in betas]
        for i in range(1, len(betas)):
            got = lps[i] - lps[0]
            want = oracle[i] - oracle[0]
            assert got == pytest.approx(want, abs=1.0e-3)

    def test_one_assembly_per_evaluation(self, monkeypatch):
        calls = []

        def counting(fn):
            def wrapped(*args, **kwargs):
                calls.append(args)
                return fn(*args, **kwargs)

            return wrapped

        # joint_log_density assembles through the model-module binding,
        # the Newton solve through the gaussian-module one
        monkeypatch.setattr(
            meglm.model, "assemble_conditional", counting(meglm.model.assemble_conditional)
        )
        monkeypatch.setattr(
            meglm.gaussian, "assemble_conditional", counting(meglm.gaussian.assemble_conditional)
        )
        for model, theta in (
            (bernoulli_toy_model(), np.array([0.9])),
            (copy_augment(linear_two_free_model()), np.array([1.0, 2.0])),
        ):
            calls.clear()
            log_hyperposterior(model, theta)
            assert len(calls) == 1

    def test_equals_joint_density_formula(self):
        # the value is read off the solve; it must be the same float as the
        # joint density re-evaluated at the mode, minus the Gaussian's own
        # log density there, plus the internal-scale Jacobian
        for model in (linear_two_free_model(), copy_augment(linear_two_free_model())):
            layout = model.theta
            for lam in (np.log([1.0, 2.0]), np.log([0.6, 1.1]), np.log([1.8, 3.5])):
                theta = layout.to_natural(lam)
                approx = latent_gaussian_approx(model, theta)
                plain = (
                    joint_log_density(model, approx.mode, theta)
                    - 0.5 * approx.log_det_precision
                    + 0.5 * approx.dim * LOG_2PI
                )
                assert log_hyperposterior(model, theta) == plain
                internal = plain + layout.internal_log_jacobian(lam)
                assert log_hyperposterior(model, lam, internal=True) == internal

    def test_invalid_theta_rejected(self):
        model = linear_two_free_model()
        with pytest.raises(SpecError):
            log_hyperposterior(model, np.array([-1.0, 2.0]))
        with pytest.raises(SpecError):
            log_hyperposterior(model, np.array([1.0]))
        # the internal scale is checked the same way before it is mapped back
        with pytest.raises(SpecError, match="theta has shape"):
            log_hyperposterior(model, np.array([0.5]), internal=True)


class TestExploreGrid:
    def test_default_step_and_cutoff(self):
        sig = inspect.signature(explore_grid)
        assert sig.parameters["dz"].default == 0.5
        assert sig.parameters["diff_logdens"].default == 20.0

    def test_quadratic_cutoff_span(self):
        center, scale = 1.3, 0.7

        def lp(keys, lams):
            return -0.5 * ((lams[:, 0] - center) / scale) ** 2

        curvature = np.array([[1.0 / scale ** 2]])
        _, thetas, log_post, _, truncated = _explore_lattice(
            lp, np.array([center]), curvature, 0.0, dz=0.5, diff_logdens=20.0
        )
        z = (thetas[:, 0] - center) / scale
        span = math.sqrt(2.0 * 20.0)
        assert not truncated
        assert np.max(np.abs(z)) <= span + 1.0e-9
        assert np.max(np.abs(z)) >= span - 0.5 - 1.0e-9
        assert thetas.shape[0] == 25
        assert np.max(log_post) == pytest.approx(0.0, abs=1.0e-12)

    def test_symmetric_posterior_has_symmetric_weights(self):
        model = symmetric_beta_model()
        grid = explore_grid(model)
        order = np.argsort(grid.thetas[:, 0])
        w = grid.weights[order]
        assert np.max(np.abs(w - w[::-1])) < 1.0e-8
        assert np.sum(grid.weights) == pytest.approx(1.0, abs=1.0e-12)

    def test_cap_truncates_with_flag(self):
        model = bernoulli_toy_model()
        grid = explore_grid(model, dz=0.05, cap=15)
        assert grid.truncated
        assert grid.size == 15
        assert np.sum(grid.weights) == pytest.approx(1.0, abs=1.0e-12)

    def test_failed_solves_are_skipped_and_counted(self, monkeypatch):
        model = bernoulli_toy_model()
        full = explore_grid(model, dz=0.5, diff_logdens=6.0)
        mode = meglm.approx._find_hyper_mode(model)
        real_assemble = meglm.gaussian.assemble_conditional

        def fail_above_mode(model, thetas):
            # negative row precisions make every point above the mode's
            # local block non-positive-definite, so its solve fails
            cond = real_assemble(model, thetas)
            lams = np.array([model.theta.to_internal(t) for t in np.atleast_2d(thetas)])
            cond.gauss_hess[lams[:, 0] > mode[0][0]] *= -1.0
            return cond

        # the walk sees the same mode, then every point above it fails
        monkeypatch.setattr(meglm.approx, "_find_hyper_mode", lambda m, tally=None: mode)
        monkeypatch.setattr(meglm.gaussian, "assemble_conditional", fail_above_mode)
        grid = explore_grid(model, dz=0.5, diff_logdens=6.0)
        assert full.skipped == 0
        assert grid.skipped == 1
        assert not grid.truncated
        below = full.thetas[:, 0] <= mode[0][0]
        np.testing.assert_array_equal(grid.thetas, full.thetas[below])
        np.testing.assert_array_equal(grid.log_post, full.log_post[below])

    def test_fixed_hyperparameters_give_single_point(self):
        model = conjugate_fixed_model()
        grid = explore_grid(model)
        assert grid.size == 1
        assert not grid.truncated
        assert grid.weights[0] == 1.0
        assert (grid.solves, grid.newton_iters, grid.skipped) == (1, 1, 0)
        solo = latent_gaussian_approx(model, np.zeros(0))
        np.testing.assert_array_equal(grid.latent_mean, solo.mode[None])
        np.testing.assert_array_equal(grid.latent_sd, solo.marginal_sd()[None])

    @pytest.fixture
    @staticmethod
    def not_pd(monkeypatch):
        """Make every conditional precision non-positive-definite."""
        real_assemble = meglm.gaussian.assemble_conditional

        def not_pd(model, thetas):
            cond = real_assemble(model, thetas)
            cond.gauss_hess *= -1.0
            return cond

        monkeypatch.setattr(meglm.gaussian, "assemble_conditional", not_pd)

    def test_fixed_hyperparameters_failed_solve_raises_its_error(self, not_pd):
        with pytest.raises(NumericError, match="conditional precision is not positive definite"):
            explore_grid(conjugate_fixed_model())

    def test_failed_start_point_solve_names_the_start_point(self, not_pd):
        with pytest.raises(NumericError) as info:
            explore_grid(bernoulli_toy_model())
        assert "mode search's start point" in str(info.value)
        assert "conditional precision is not positive definite" in str(info.value)

    def test_prior_rescaling_leaves_weights_unchanged(self):
        model = bernoulli_toy_model()
        shifted = with_shifted_priors(model, -2.4)
        g1 = explore_grid(model)
        # exact claim: on the same support the shift cancels in normalization
        lp2 = np.array(
            [log_hyperposterior(shifted, t, internal=True) for t in g1.thetas]
        )
        w2 = np.exp(lp2 - np.max(lp2))
        w2 /= np.sum(w2)
        assert np.max(np.abs(w2 - g1.weights)) < 1.0e-12
        assert np.max(np.abs((lp2 - g1.log_post) + 2.4)) < 1.0e-9
        # end to end the mode search sees the same surface up to
        # finite-difference roundoff, so the grids agree only closely
        g2 = explore_grid(shifted)
        assert g1.size == g2.size
        assert np.max(np.abs(g1.thetas - g2.thetas)) < 1.0e-5
        assert np.max(np.abs(g1.weights - g2.weights)) < 1.0e-6

    def test_mode_search_solve_count(self, monkeypatch):
        calls = []
        real_solve = meglm.approx.latent_gaussian_approx
        real_batches = meglm.approx.latent_gaussian_batches

        def counting(*args, **kwargs):
            calls.append(args)
            return real_solve(*args, **kwargs)

        def counting_batches(model, thetas, init=None):
            # one entry per hyperparameter point of the batch
            calls.extend(np.atleast_2d(thetas))
            return real_batches(model, thetas, init)

        monkeypatch.setattr(meglm.approx, "latent_gaussian_approx", counting)
        monkeypatch.setattr(meglm.approx, "latent_gaussian_batches", counting_batches)
        mode, curvature, _, _ = meglm.approx._find_hyper_mode(bernoulli_toy_model())
        # one solve at the prior point, then three two-point stencils with an
        # accepted step between them
        assert len(calls) <= 9
        assert mode[0] == pytest.approx(0.6005616365, abs=1.0e-8)
        assert curvature[0, 0] > 0.0

    def test_retention_cutoff_holds(self):
        model = bernoulli_toy_model()
        grid = explore_grid(model, dz=0.5, diff_logdens=6.0)
        top = float(np.max(grid.log_post))
        assert np.all(grid.log_post >= top - 6.0)

    def test_bad_arguments(self):
        model = bernoulli_toy_model()
        with pytest.raises(SpecError):
            explore_grid(model, dz=0.0)
        with pytest.raises(SpecError):
            explore_grid(model, diff_logdens=-1.0)

    @pytest.mark.parametrize("setting", ["dz", "diff_logdens"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_settings_are_rejected(self, setting, value):
        with pytest.raises(SpecError, match="%s must be finite and positive" % setting):
            explore_grid(bernoulli_toy_model(), **{setting: value})


def fifo_walk(lp, mode, axes, dz, diff_logdens, cap):
    """The one-point-at-a-time breadth-first walk the batched walk must equal.

    Returns the retained keys in retention order, the keys in evaluation
    order, and the truncation flag.
    """
    m = mode.size
    origin = (0,) * m
    lp0 = lp(mode + axes @ (dz * np.zeros(m)))
    retained, visited, queue = {origin: lp0}, {origin}, deque([origin])
    evaluated = [origin]
    truncated = False
    while queue and not truncated:
        base = queue.popleft()
        for j in range(m):
            if truncated:
                break
            for sign in (1, -1):
                if len(retained) >= cap:
                    truncated = True
                    break
                key = base[:j] + (base[j] + sign,) + base[j + 1:]
                if key in visited:
                    continue
                visited.add(key)
                evaluated.append(key)
                val = lp(mode + axes @ (dz * np.asarray(key, dtype=float)))
                if np.isfinite(val) and val >= lp0 - diff_logdens:
                    retained[key] = val
                    queue.append(key)
    return list(retained), evaluated, truncated


class TestBatchedWalk:
    """The level-synchronous walk and the batched solves behind it."""

    @staticmethod
    def surface(lam):
        # an anisotropic, skewed log posterior with a hole where it cannot
        # be evaluated
        if lam[0] > 1.6 and lam[1] < -0.2:
            return -np.inf
        return (-0.5 * (lam[0] ** 2 + 2.0 * lam[1] ** 2 + 0.8 * lam[0] * lam[1])
                + 0.3 * lam[0] ** 3 - 0.2 * lam[0] ** 4)

    @pytest.mark.parametrize("cap", [GRID_POINT_CAP, 122, 40, 41, 7])
    def test_shells_retain_what_the_fifo_walk_retains(self, cap):
        mode = np.zeros(2)
        curvature = np.array([[1.0, 0.4], [0.4, 2.0]])
        calls = []

        def lp(keys, lams):
            calls.append(np.array(lams))
            return np.array([self.surface(lam) for lam in lams])

        keys, thetas, log_post, axes, truncated = _explore_lattice(
            lp, mode, curvature, self.surface(mode), dz=0.4, diff_logdens=5.0, cap=cap
        )
        order, evaluated, fifo_truncated = fifo_walk(self.surface, mode, axes, 0.4, 5.0, cap)
        assert truncated == fifo_truncated == (cap < GRID_POINT_CAP)
        assert keys == sorted(order)
        assert log_post.tolist() == [self.surface(t) for t in thetas]
        # the shells evaluate the FIFO walk's points after its origin, whose
        # value the walk is given, in its order; a capped walk may also
        # evaluate the rest of its last shell
        solved = np.concatenate(calls)
        points = np.array([mode + axes @ (0.4 * np.asarray(k, dtype=float)) for k in evaluated[1:]])
        assert np.array_equal(solved[:len(points)], points)
        assert len(solved) == len(points) or truncated
        assert len(calls) < len(points)

    @pytest.mark.parametrize("make", [linear_two_free_model, bernoulli_toy_model])
    def test_one_point_batches_give_the_same_grid(self, make, monkeypatch):
        model = make()
        grid = explore_grid(model, dz=0.5, diff_logdens=6.0)
        monkeypatch.setattr(meglm.gaussian, "BATCH_ELEMENTS", 1)
        single = explore_grid(model, dz=0.5, diff_logdens=6.0)
        for name in ("thetas", "log_post", "weights", "mode", "axes", "latent_mean", "latent_sd"):
            assert np.array_equal(getattr(grid, name), getattr(single, name)), name
        assert (grid.solves, grid.newton_iters, grid.skipped) == (
            single.solves, single.newton_iters, single.skipped)

    def test_study_grid_does_not_depend_on_batch_size(self, monkeypatch):
        sim = simulate_study(make_recipe("framingham_like", n=60, beta_0=-1.4, seed=42))
        model = build_joint_model(parse_model_config(sim.model_config), sim.dataset)
        grid = explore_grid(model, dz=1.0, diff_logdens=3.0)
        monkeypatch.setattr(meglm.gaussian, "BATCH_ELEMENTS", 3 * model.n_rows)
        small = explore_grid(model, dz=1.0, diff_logdens=3.0)
        assert grid.size > 10
        for name in ("thetas", "log_post", "latent_mean", "latent_sd"):
            assert np.array_equal(getattr(grid, name), getattr(small, name)), name

    def test_each_stencil_and_shell_is_one_newton_call(self, monkeypatch):
        # the laplace_framingham benchmark design: 242 solves, whose shells
        # of new points hold up to 62 of them
        sim = simulate_study(make_recipe("framingham_like", n=140, beta_0=-1.4, seed=42))
        model = build_joint_model(parse_model_config(sim.model_config), sim.dataset)
        sizes = []
        real_newton = meglm.gaussian._newton

        def counting(cond, init):
            sizes.append(cond.gauss_hess.shape[0])
            return real_newton(cond, init)

        monkeypatch.setattr(meglm.gaussian, "_newton", counting)
        grid = explore_grid(model, dz=1.0, diff_logdens=4.0)
        assert sum(sizes) == grid.solves
        assert len(sizes) <= 13
        assert 62 in sizes

    def test_solve_counts_cover_mode_search_and_walk(self, monkeypatch):
        calls = []
        real_solve = meglm.approx.latent_gaussian_approx
        real_batches = meglm.approx.latent_gaussian_batches

        def counting(*args, **kwargs):
            approx = real_solve(*args, **kwargs)
            calls.append(approx.converged_in)
            return approx

        def counting_batches(model, thetas, init=None):
            for batch in real_batches(model, thetas, init):
                calls.extend(batch.converged_in)
                yield batch

        monkeypatch.setattr(meglm.approx, "latent_gaussian_approx", counting)
        monkeypatch.setattr(meglm.approx, "latent_gaussian_batches", counting_batches)
        grid = explore_grid(linear_two_free_model(), dz=0.5, diff_logdens=6.0)
        assert grid.solves == len(calls) > grid.size
        assert grid.newton_iters == sum(calls) > 0


class TestLatentMarginal:
    def test_single_point_is_exact_gaussian(self):
        model = conjugate_fixed_model()
        grid = explore_grid(model)
        marg = latent_marginal(model, grid, 1)
        sd = 1.0 / math.sqrt(2.0)
        assert marg.values.size == 75
        assert marg.values[0] == pytest.approx(1.0 - 5.0 * sd, rel=1.0e-6)
        expected = stats.norm.pdf(marg.values, 1.0, sd)
        # the stored density is renormalized over the five-sd window, so
        # normalize the oracle the same way before comparing pointwise
        expected = expected / np.trapezoid(expected, marg.values)
        assert np.max(np.abs(marg.density - expected)) < 1.0e-10
        assert marg.mean == pytest.approx(1.0, abs=1.0e-9)
        assert marg.sd == pytest.approx(sd, rel=1.0e-4)
        assert np.trapezoid(marg.density, marg.values) == pytest.approx(1.0, abs=1.0e-3)
        assert marg.q025 < marg.q50 < marg.q975

    def test_all_gaussian_mixture_matches_exact_oracle(self):
        model = linear_two_free_model()
        grid = explore_grid(model)
        x1 = 2  # latent order: beta_0, alpha_0, x_1, x_2, x_3
        assert model.layout.slice("x").start == x1
        marg = latent_marginal(model, grid, x1)
        density = np.zeros_like(marg.values)
        for k in range(grid.size):
            theta_nat = model.theta.to_natural(grid.thetas[k])
            exact = exact_linear_gaussian_posterior(model, theta_nat)
            m = exact.mode[x1]
            s = exact.marginal_sd(x1)[0]
            density += grid.weights[k] * stats.norm.pdf(marg.values, m, s)
        normalized = density / np.trapezoid(density, marg.values)
        assert np.max(np.abs(marg.density - normalized)) < 1.0e-6
        mass = np.trapezoid(density, marg.values)
        mean = np.trapezoid(marg.values * density, marg.values) / mass
        var = np.trapezoid((marg.values - mean) ** 2 * density, marg.values) / mass
        assert marg.mean == pytest.approx(mean, abs=1.0e-6)
        assert marg.sd == pytest.approx(math.sqrt(var), abs=1.0e-6)
        assert np.trapezoid(marg.density, marg.values) == pytest.approx(1.0, abs=1.0e-3)

    def test_two_point_mixture_is_bimodal_with_half_mass(self):
        marg = mixture_marginal(
            np.array([-1.0, 1.0]), np.array([0.2, 0.2]), np.array([0.5, 0.5])
        )
        total = np.trapezoid(marg.density, marg.values)
        left = marg.values <= 0.0
        left_mass = np.trapezoid(marg.density[left], marg.values[left])
        assert left_mass / total == pytest.approx(0.5, abs=1.0e-9)
        interior = marg.density[1:-1]
        peaks = np.flatnonzero(
            (interior > marg.density[:-2]) & (interior > marg.density[2:])
        )
        assert peaks.size == 2
        locs = np.sort(marg.values[peaks + 1])
        assert locs[0] == pytest.approx(-1.0, abs=0.15)
        assert locs[1] == pytest.approx(1.0, abs=0.15)
        assert np.all(marg.density >= 0.0)

    def test_index_out_of_range(self):
        model = conjugate_fixed_model()
        grid = explore_grid(model)
        with pytest.raises(SpecError):
            latent_marginal(model, grid, 2)
        with pytest.raises(SpecError):
            latent_marginal(model, grid, -1)

    def test_grid_row_order_does_not_matter(self):
        model = linear_two_free_model()
        grid = explore_grid(model)
        rng = np.random.default_rng(3)
        perm = rng.permutation(grid.size)
        shuffled = IntegrationGrid(
            thetas=grid.thetas[perm],
            log_post=grid.log_post[perm],
            weights=grid.weights[perm],
            mode=grid.mode,
            scales=grid.scales,
            names=grid.names,
            axes=grid.axes,
            dz=grid.dz,
            diff_logdens=grid.diff_logdens,
            latent_mean=grid.latent_mean[perm],
            latent_sd=grid.latent_sd[perm],
        )
        a = latent_marginal(model, grid, 0)
        b = latent_marginal(model, shuffled, 0)
        assert np.max(np.abs(a.values - b.values)) < 1.0e-12
        assert np.max(np.abs(a.density - b.density)) < 1.0e-12

    def test_batch_matches_single(self):
        model = linear_two_free_model()
        grid = explore_grid(model)
        batch = latent_marginals(model, grid, [0, 2])
        single = latent_marginal(model, grid, 2)
        assert np.max(np.abs(batch[1].density - single.density)) < 1.0e-14
        assert batch[0].mean == pytest.approx(latent_marginal(model, grid, 0).mean)

    @pytest.mark.parametrize(
        "make", [bernoulli_toy_model, linear_two_free_model, conjugate_fixed_model]
    )
    def test_marginals_reuse_the_walk_solves(self, make, monkeypatch):
        model = make()
        grid = explore_grid(model)
        d = model.layout.dim
        assert grid.latent_mean.shape == grid.latent_sd.shape == (grid.size, d)
        # every stored row is the solve at that point from the mode's latent mean
        if grid.mode.size:
            init = latent_gaussian_approx(model, model.theta.to_natural(grid.mode)).mode
        else:
            init = None
        for k in range(grid.size):
            fresh = latent_gaussian_approx(
                model, model.theta.to_natural(grid.thetas[k]), init=init
            )
            assert np.max(np.abs(grid.latent_mean[k] - fresh.mode)) < 1.0e-9
            assert np.max(np.abs(grid.latent_sd[k] - fresh.marginal_sd())) < 1.0e-9
        calls = []

        def no_solve(*args, **kwargs):
            calls.append(args)
            return latent_gaussian_approx(*args, **kwargs)

        monkeypatch.setattr(meglm.approx, "latent_gaussian_approx", no_solve)
        margs = latent_marginals(model, grid, range(d))
        assert calls == []
        assert [m.mean for m in margs] == pytest.approx(
            list(grid.weights @ grid.latent_mean), abs=1.0e-3
        )

    def test_hand_built_grid_without_moments_is_rejected(self):
        model = linear_two_free_model()
        grid = explore_grid(model)
        bare = replace(grid, latent_mean=np.zeros((0, 0)), latent_sd=np.zeros((0, 0)))
        with pytest.raises(SpecError):
            latent_marginal(model, bare, 0)


def handmade_grid(center, scale, scale_kind, steps=12, dz=0.5):
    """1-D lattice with an exactly quadratic internal log posterior."""
    k = np.arange(-steps, steps + 1, dtype=float)
    lam = center + scale * dz * k
    log_post = -0.5 * (dz * k) ** 2
    w = np.exp(log_post - np.max(log_post))
    return IntegrationGrid(
        thetas=lam[:, None],
        log_post=log_post,
        weights=w / np.sum(w),
        mode=np.array([center]),
        scales=(scale_kind,),
        names=("theta_0",),
        axes=np.array([[scale]]),
        dz=dz,
        diff_logdens=20.0,
    )


def rotated_grid():
    """2-D lattice of a Gaussian posterior on rotated, unequal axes."""
    angle = math.pi / 6.0
    rot = np.array(
        [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
    )
    axes = rot @ np.diag([0.8, 1.5])
    dz = 0.5
    ks = np.arange(-8, 9)
    k1, k2 = np.meshgrid(ks, ks, indexing="ij")
    z = np.stack([k1.ravel(), k2.ravel()], axis=1) * dz
    mode = np.array([0.5, -0.3])
    lam = mode + z @ axes.T
    log_post = -0.5 * np.sum(z * z, axis=1)
    w = np.exp(log_post - np.max(log_post))
    return IntegrationGrid(
        thetas=lam,
        log_post=log_post,
        weights=w / np.sum(w),
        mode=mode,
        scales=("identity", "identity"),
        names=("a", "b"),
        axes=axes,
        dz=dz,
        diff_logdens=20.0,
    )


def hyper_moves_across_newton_tol(monkeypatch, dz, diff_logdens):
    """Every hyperparameter summary of the three studies moves by under
    0.005 posterior sd when the latent Newton tolerance goes from 1e-8 to
    1e-12, which perturbs the mode search's curvature and so the lattice."""
    designs = [("ibex", {"n": 26}), ("framingham", {"n": 200}), ("seedling", {})]
    for study, overrides in designs:
        sim = simulate_study(make_recipe(study, seed=1, **overrides))
        spec = parse_model_config(sim.model_config)
        fits = []
        for tol in (1.0e-8, 1.0e-12):
            monkeypatch.setattr(meglm.gaussian, "NEWTON_TOL", tol)
            fits.append(laplace_marginals(spec, sim.dataset, dz=dz, diff_logdens=diff_logdens))
        (a, grid), (b, _) = fits
        for name in grid.names:
            for stat in ("mean", "sd", "q025", "q975"):
                move = abs(getattr(a[name], stat) - getattr(b[name], stat)) / a[name].sd
                assert move < 0.005, (study, name, stat, move)


class TestHyperMarginal:
    def test_identity_scale_matches_normal_density(self):
        grid = handmade_grid(1.3, 0.7, "identity")
        marg = hyper_marginal(grid, 0)
        expected = stats.norm.pdf(marg.values, 1.3, 0.7)
        assert np.max(np.abs(marg.density - expected)) < 1.0e-6
        assert marg.mean == pytest.approx(1.3, abs=1.0e-6)
        assert marg.sd == pytest.approx(0.7, abs=1.0e-4)
        assert marg.q50 == pytest.approx(1.3, abs=1.0e-4)
        assert marg.q025 == pytest.approx(1.3 - 1.959964 * 0.7, abs=0.01)
        assert np.trapezoid(marg.density, marg.values) == pytest.approx(1.0, abs=1.0e-3)

    def test_log_scale_applies_jacobian(self):
        grid = handmade_grid(math.log(2.0), 0.25, "log")
        marg = hyper_marginal(grid, 0)
        expected = stats.lognorm.pdf(marg.values, s=0.25, scale=2.0)
        assert np.max(np.abs(marg.density - expected)) < 1.0e-6
        assert marg.mean == pytest.approx(2.0 * math.exp(0.25 ** 2 / 2.0), abs=1.0e-3)
        assert np.trapezoid(marg.density, marg.values) == pytest.approx(1.0, abs=1.0e-3)
        assert np.all(marg.density >= 0.0)

    def test_single_free_hyperparameter_from_model_grid(self):
        model = bernoulli_toy_model()
        grid = explore_grid(model)
        marg = hyper_marginal(grid, 0)
        # normalized grid density itself: compare against the grid's own
        # exponentiated log posterior at the retained support points
        order = np.argsort(grid.thetas[:, 0])
        lam = grid.thetas[order, 0]
        ref = np.exp(grid.log_post[order] - np.max(grid.log_post))
        ref = ref / np.trapezoid(ref, lam)
        got = np.interp(lam, marg.values, marg.density)
        assert np.max(np.abs(got - ref)) < 5.0e-3
        assert marg.mean == pytest.approx(float(np.trapezoid(lam * ref, lam)), abs=5.0e-3)

    def test_two_point_lattice_gives_a_full_marginal(self):
        grid = IntegrationGrid(
            thetas=np.array([[-1.0], [1.0]]),
            log_post=np.zeros(2),
            weights=np.array([0.5, 0.5]),
            mode=np.zeros(1),
            scales=("identity",),
            names=("theta_0",),
            axes=np.array([[1.0]]),
            dz=1.0,
            diff_logdens=20.0,
        )
        marg = hyper_marginal(grid, 0)
        assert marg.values.size == MARGINAL_GRID_SIZE
        # the mixture keeps the lattice's mean 0 and sd 1, so its grid spans
        # 0 plus/minus five sds
        assert marg.values[0] == pytest.approx(-5.0, abs=1.0e-12)
        assert marg.values[-1] == pytest.approx(5.0, abs=1.0e-12)
        assert marg.mean == pytest.approx(0.0, abs=1.0e-12)
        # the five-sd window leaves out 2.7e-6 of the sd
        assert marg.sd == pytest.approx(1.0, abs=1.0e-5)
        assert marg.q50 == pytest.approx(0.0, abs=1.0e-12)

    def test_one_point_lattice_gives_the_kernel(self):
        grid = handmade_grid(0.4, 0.3, "identity", steps=0)
        marg = hyper_marginal(grid, 0)
        h = meglm.approx.HYPER_KERNEL_FACTOR * grid.dz * 0.3
        expected = stats.norm.pdf(marg.values, 0.4, h)
        assert np.max(np.abs(marg.density - expected)) < 1.0e-5 * np.max(expected)
        assert marg.mean == pytest.approx(0.4, abs=1.0e-12)
        assert np.isfinite([marg.q025, marg.q50, marg.q975]).all()

    @pytest.mark.parametrize("source", ["rotated", "seedling"])
    def test_mixture_keeps_lattice_mean_and_variance(self, source, monkeypatch):
        if source == "rotated":
            grid = rotated_grid()
        else:
            sim = simulate_study(make_recipe("seedling", seed=1))
            model = build_joint_model(parse_model_config(sim.model_config), sim.dataset)
            grid = explore_grid(model, dz=0.75, diff_logdens=8.0)
        seen = []
        real = meglm.approx._mixture_density

        def spy(at, means, sds, weights):
            seen.append((means, float(sds), weights))
            return real(at, means, sds, weights)

        monkeypatch.setattr(meglm.approx, "_mixture_density", spy)
        m = grid.thetas.shape[1]
        for j in range(m):
            seen.clear()
            hyper_marginal(grid, j)
            (means, h, weights), = seen
            lam, w = grid.thetas[:, j], grid.weights
            mu = float(w @ lam)
            var = float(w @ (lam - mu) ** 2)
            sigma = math.sqrt(float((grid.axes @ grid.axes.T)[j, j]))
            assert h == pytest.approx(0.9 * grid.dz * sigma / math.sqrt(m), rel=1.0e-14)
            assert var >= h * h
            assert np.array_equal(weights, w)
            mix_mean = float(w @ means)
            mix_var = float(w @ (means - mix_mean) ** 2) + h * h
            assert abs(mix_mean - mu) <= 1.0e-12 * math.sqrt(var)
            assert abs(mix_var - var) <= 1.0e-12 * var

    def test_stable_across_newton_tolerance(self, monkeypatch):
        hyper_moves_across_newton_tol(monkeypatch, dz=0.75, diff_logdens=8.0)

    @pytest.mark.slow
    def test_stable_across_newton_tolerance_fine_grid(self, monkeypatch):
        hyper_moves_across_newton_tol(monkeypatch, dz=0.5, diff_logdens=20.0)

    def test_two_dimensional_grid_aggregates_along_axis(self):
        grid = rotated_grid()
        marg = hyper_marginal(grid, 0)
        sd0 = math.sqrt(float((grid.axes @ grid.axes.T)[0, 0]))
        assert marg.mean == pytest.approx(0.5, abs=0.02 * sd0)
        assert marg.sd == pytest.approx(sd0, rel=0.05)
        assert np.all(marg.density >= 0.0)
        assert np.trapezoid(marg.density, marg.values) == pytest.approx(1.0, abs=1.0e-3)

    def test_index_out_of_range(self):
        grid = handmade_grid(0.0, 1.0, "identity")
        with pytest.raises(SpecError):
            hyper_marginal(grid, 1)


class TestRefinement:
    def test_halving_dz_is_stable_for_bernoulli_toy(self):
        model = bernoulli_toy_model()
        coarse = explore_grid(model, dz=0.5)
        fine = explore_grid(model, dz=0.25)
        a = latent_marginal(model, coarse, 0)
        b = latent_marginal(model, fine, 0)
        assert abs(a.mean - b.mean) < 0.02 * b.sd

    def test_halving_dz_is_stable_for_linear_model(self):
        model = linear_two_free_model()
        coarse = explore_grid(model, dz=0.5)
        fine = explore_grid(model, dz=0.25)
        for i in range(model.layout.dim):
            a = latent_marginal(model, coarse, i)
            b = latent_marginal(model, fine, i)
            assert abs(a.mean - b.mean) < 0.02 * b.sd
