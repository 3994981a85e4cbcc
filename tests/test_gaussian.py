"""Gaussian engine: Newton mode finding, Cholesky densities, exact posteriors."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import linalg, optimize, stats

import meglm.gaussian
from meglm import families
from meglm.data import Dataset, parse_model_config
from meglm.errors import NumericError, SpecError
from meglm.gaussian import (
    RIDGE,
    GaussianApprox,
    _factor,
    _grad_hess,
    _newton,
    exact_linear_gaussian_posterior,
    latent_gaussian_approx,
    latent_gaussian_batches,
)
from meglm.model import (
    ErrorModel,
    ExposureModel,
    ModelSpec,
    ObservationModel,
    assemble_conditional,
    build_joint_model,
    copy_augment,
    joint_log_density,
    naive_spec,
    stacked_rows,
)
from meglm.priors import LOG_2PI, FixedValue, GammaPrior, GaussianPrior
from meglm.studies import make_recipe, simulate_study


def linear_gaussian_model():
    spec = ModelSpec(
        observation=ObservationModel(family="gaussian", residual_precision=GammaPrior(1.0, 0.001)),
        error=ErrorModel(kind="classical", tau_u=GammaPrior(8.5, 7.5)),
        exposure=ExposureModel(alpha0=GaussianPrior(0.0, 1.0), alpha_z=(), tau_x=GammaPrior(1.0, 0.0009)),
        beta0=GaussianPrior(0.0, 1.0e-4),
        beta_x=GaussianPrior(0.0, 0.01),
        beta_z=(),
        proxies=("w",),
        center=False,
    )
    data = Dataset.from_arrays(y=[0.5, -0.3], w=[1.0, -0.6])
    return build_joint_model(spec, data)


def hand_built_normal_equations(theta):
    """Stacked normal equations for linear_gaussian_model, assembled by hand.

    Latent order: (beta_0, alpha_0, x_1, x_2).
    """
    beta_x, tau_u, tau_x, tau_eps = theta
    y = np.array([0.5, -0.3])
    w = np.array([1.0, -0.6])
    A_reg = np.array([[1.0, 0.0, beta_x, 0.0], [1.0, 0.0, 0.0, beta_x]])
    A_exp = np.array([[0.0, 1.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
    A_prox = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    Q = (
        tau_eps * A_reg.T @ A_reg
        + tau_x * A_exp.T @ A_exp
        + tau_u * A_prox.T @ A_prox
        + np.diag([1.0e-4, 1.0, 0.0, 0.0])
    )
    b = tau_eps * A_reg.T @ y + tau_u * A_prox.T @ w
    return Q, b


class TestLinearGaussian:
    theta = np.array([0.7, 1.3, 0.9, 2.0])

    def test_one_step_convergence_and_normal_equations(self):
        model = linear_gaussian_model()
        approx = latent_gaussian_approx(model, self.theta)
        assert approx.converged_in == 1
        Q, b = hand_built_normal_equations(self.theta)
        mean = np.linalg.solve(Q, b)
        assert np.max(np.abs(approx.mode - mean)) < 1.0e-10

    def test_exact_posterior_matches_newton(self):
        model = linear_gaussian_model()
        exact = exact_linear_gaussian_posterior(model, self.theta)
        approx = latent_gaussian_approx(model, self.theta)
        assert np.max(np.abs(exact.mode - approx.mode)) < 1.0e-10
        assert exact.log_det_precision == pytest.approx(approx.log_det_precision, abs=1.0e-10)
        assert np.max(np.abs(exact.marginal_sd() - approx.marginal_sd())) < 1.0e-10

    def test_marginal_sd_against_dense_inverse(self):
        model = linear_gaussian_model()
        approx = latent_gaussian_approx(model, self.theta)
        Q, _ = hand_built_normal_equations(self.theta)
        sd = np.sqrt(np.diag(np.linalg.inv(Q)))
        assert np.max(np.abs(approx.marginal_sd() - sd)) < 1.0e-10
        one = approx.marginal_sd(2)
        assert one[0] == pytest.approx(sd[2], abs=1.0e-12)

    def test_logpdf_matches_scipy(self):
        model = linear_gaussian_model()
        approx = latent_gaussian_approx(model, self.theta)
        Q, b = hand_built_normal_equations(self.theta)
        cov = np.linalg.inv(Q)
        rng = np.random.default_rng(5)
        x = approx.mode + rng.normal(size=4) * 0.3
        expected = stats.multivariate_normal.logpdf(x, mean=np.linalg.solve(Q, b), cov=cov)
        assert approx.logpdf(x) == pytest.approx(expected, abs=1.0e-10)

    def test_warm_start_at_mode(self):
        model = linear_gaussian_model()
        approx = latent_gaussian_approx(model, self.theta)
        again = latent_gaussian_approx(model, self.theta, init=approx.mode)
        assert again.converged_in == 0

    def test_sampling_moments(self):
        model = linear_gaussian_model()
        approx = latent_gaussian_approx(model, self.theta)
        rng = np.random.default_rng(42)
        draws = approx.sample(rng, size=200_000)
        assert draws.shape == (4, 200_000)
        err = np.abs(draws.mean(axis=1) - approx.mode) / approx.marginal_sd()
        assert np.max(err) < 0.02
        sd_ratio = draws.std(axis=1) / approx.marginal_sd()
        assert np.max(np.abs(sd_ratio - 1.0)) < 0.02


class TestCholeskyLogDet:
    def test_matches_lu_determinant_on_random_precisions(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            M = rng.normal(size=(10, 10))
            Q = M @ M.T + 10.0 * np.eye(10)
            L = np.linalg.cholesky(Q)
            chol_logdet = 2.0 * np.sum(np.log(np.diag(L)))
            sign, lu_logdet = np.linalg.slogdet(Q)
            assert sign == 1.0
            assert chol_logdet == pytest.approx(lu_logdet, rel=1.0e-8)


class TestNonGaussianModes:
    def test_balanced_symmetric_bernoulli_mode_is_zero(self):
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
        data = Dataset.from_arrays(y=[1, 0, 1, 0], w=[1.0, 1.0, -1.0, -1.0])
        model = build_joint_model(spec, data)
        approx = latent_gaussian_approx(model, np.array([]))
        assert approx.converged_in == 0
        assert np.all(approx.mode == 0.0)

    def poisson_desk_model(self):
        spec = ModelSpec(
            observation=ObservationModel(family="poisson"),
            error=ErrorModel(kind="berkson", tau_u=GammaPrior(1.0, 0.02)),
            exposure=None,
            beta0=GaussianPrior(0.0, 0.001),
            beta_x=GaussianPrior(0.0, 0.001),
            beta_z=(),
            proxies=("w",),
            center=False,
        )
        data = Dataset.from_arrays(
            y=[1, 3, 0, 2, 4],
            w=[0.2, 0.6, -0.1, 0.4, 0.8],
        )
        return build_joint_model(spec, data)

    def test_poisson_mode_matches_independent_optimizer(self):
        model = self.poisson_desk_model()
        theta = np.array([0.6, 4.0])
        approx = latent_gaussian_approx(model, theta)

        def negdens(v):
            return -joint_log_density(model, v, theta)

        res = optimize.minimize(negdens, np.zeros(model.layout.dim), method="BFGS",
                                options={"gtol": 1.0e-9, "maxiter": 500})
        # restart once; BFGS may flag precision loss near the optimum
        res = optimize.minimize(negdens, res.x, method="BFGS",
                                options={"gtol": 1.0e-9, "maxiter": 500})
        assert np.max(np.abs(approx.mode - res.x)) < 1.0e-6

    def test_fd_gradient_vanishes_at_mode(self):
        model = self.poisson_desk_model()
        theta = np.array([0.6, 4.0])
        for m in (model, copy_augment(model)):
            approx = latent_gaussian_approx(m, theta)
            v = approx.mode
            h = 1.0e-6
            for k in range(m.layout.dim):
                e = np.zeros(m.layout.dim)
                e[k] = h
                fd = (joint_log_density(m, v + e, theta) - joint_log_density(m, v - e, theta)) / (2 * h)
                assert abs(fd) < 1.0e-4

    def test_exact_posterior_rejects_non_gaussian(self):
        model = self.poisson_desk_model()
        with pytest.raises(SpecError, match="gaussian"):
            exact_linear_gaussian_posterior(model, np.array([0.6, 4.0]))


class TestDegenerateLimits:
    def test_vanishing_error_pins_latent_to_proxies(self):
        model = linear_gaussian_model()
        theta = np.array([0.7, 1.0e12, 0.9, 2.0])
        exact = exact_linear_gaussian_posterior(model, theta)
        w = np.array([1.0, -0.6])
        x_mode = exact.mode[2:4]
        assert np.max(np.abs(x_mode - w)) < 1.0e-4

    def test_conjugate_one_dim_update(self):
        spec = ModelSpec(
            observation=ObservationModel(family="gaussian", residual_precision=FixedValue(1.0)),
            error=ErrorModel(kind="classical", tau_u=FixedValue(1.0)),
            exposure=ExposureModel(alpha0=FixedValue(0.0), alpha_z=(), tau_x=FixedValue(1.0)),
            beta0=GaussianPrior(0.0, 1.0),
            beta_x=FixedValue(0.0),
            beta_z=(),
            proxies=("w",),
            center=False,
        )
        data = Dataset.from_arrays(y=[0.0], w=[2.0])
        model = build_joint_model(spec, data)
        assert model.theta.dim == 0
        exact = exact_linear_gaussian_posterior(model, np.array([]))
        # latent order: (beta_0, x_1); prior N(0,1) on x via the exposure row
        assert exact.mode[1] == pytest.approx(1.0, abs=1.0e-12)
        assert exact.marginal_sd(1)[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1.0e-12)
        approx = latent_gaussian_approx(model, np.array([]))
        assert np.max(np.abs(approx.mode - exact.mode)) < 1.0e-10


def study_model(study, augmented, naive=False):
    """A shipped study's model, copy-augmented or naive on request.

    "random-effect" is ibex_like with an iid Gaussian effect on every
    regression row: a gaussian response whose rows carry beta_x x_k and
    gamma_k.
    """
    recipe = {"ibex": ("ibex", {"n": 26, "seed": 1}),
              "random-effect": ("ibex", {"n": 26, "seed": 1}),
              "framingham": ("framingham", {"n": 60, "beta_0": -1.4, "seed": 42}),
              "seedling": ("seedling", {"seed": 7})}[study]
    sim = simulate_study(make_recipe(recipe[0], **recipe[1]))
    spec = parse_model_config(sim.model_config)
    if study == "random-effect":
        spec = replace(spec, observation=replace(spec.observation, random_effect=GammaPrior(2.0, 1.0)))
    model = build_joint_model(naive_spec(spec) if naive else spec, sim.dataset)
    return copy_augment(model) if augmented else model


def study_theta(model, perturbed):
    theta = model.theta.init_natural()
    if not perturbed:
        return theta
    lam = model.theta.to_internal(theta) + 0.3 * np.sin(np.arange(theta.size) + 1.0)
    return model.theta.to_natural(lam)


def dense_from_blocks(blocks, H):
    """The d x d matrix, in latent order, of one block-arrowhead matrix stored flat (n_hess)."""
    gg, lg, _ = blocks.split(H)
    p = blocks.p
    work = np.zeros((p + blocks.m, p + blocks.m))
    work[:p, :p] = gg
    work[p:, :p] = lg
    work[:p, p:] = lg.T
    for slots, mats in blocks.local_groups(blocks.split(H[None])[2]):
        s = mats.shape[-1]
        for j in range(mats.shape[1]):
            k = p + slots.start + j * s
            work[k:k + s, k:k + s] = mats[0, j]
    dense = np.empty_like(work)
    dense[np.ix_(blocks.perm, blocks.perm)] = work
    return dense


def dense_design(rows, dim):
    """The N x dim design matrix of a model's stacked rows (`stacked_rows`)."""
    N, p = rows.A.shape
    A = np.zeros((N, dim))
    A[:, :p] = rows.A
    for j in range(rows.cols.shape[1]):
        np.add.at(A, (np.arange(N), rows.cols[:, j]), rows.vals[:, j])
    return A


def log_density_0(cond, v):
    """cond.log_density of point 0 at latent vector v."""
    return float(cond.log_density(v[None])[0])


def dense_gradient_and_hessian(model, theta, v):
    """Gradient and negative Hessian of the log density at one point theta,
    row by row from the stacked rows (the latent prior's included), with
    dense algebra."""
    rows = stacked_rows(model, theta)
    A = dense_design(rows, model.layout.dim)
    eta = A @ v + rows.offset
    score = rows.precision * (rows.obs - eta)
    w = rows.precision.copy()
    if rows.trials is not None:
        reg = rows.reg_slice
        s, W = families.score_weight(rows.family, rows.obs[reg], rows.trials, eta[reg])
        score[reg] += s
        w[reg] = W
    return A.T @ score, (A.T * w) @ A


def dense_mode(model, theta):
    """Newton with step halving on the dense gradient and Hessian at theta."""
    cond = assemble_conditional(model, theta)
    v = np.zeros(cond.dim)
    f = log_density_0(cond, v)
    for _ in range(100):
        g, H = dense_gradient_and_hessian(model, theta, v)
        step = np.linalg.solve(H, g)
        if np.max(np.abs(step)) <= 1.0e-13 * (1.0 + np.max(np.abs(v))):
            return v
        t = 1.0
        while log_density_0(cond, v + t * step) < f - 1.0e-9 * (1.0 + abs(f)) and t > 1.0e-6:
            t *= 0.5
        v = v + t * step
        f = log_density_0(cond, v)
    raise AssertionError("dense Newton did not converge")


def rel_gap(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), 1.0e-300))


class TestArrowheadAgainstDense:
    """The block-arrowhead engine against dense algebra on the shipped studies."""

    @pytest.mark.parametrize("perturbed", [False, True])
    @pytest.mark.parametrize("augmented", [False, True])
    @pytest.mark.parametrize("study", ["ibex", "framingham", "seedling"])
    def test_matches_dense_solve(self, study, augmented, perturbed):
        model = study_model(study, augmented)
        theta = study_theta(model, perturbed)
        cond = assemble_conditional(model, theta)
        approx = latent_gaussian_approx(model, theta)

        # the blocks hold exactly the dense Hessian of the stacked rows
        _, blocks_H = _grad_hess(cond, approx.mode[None])
        dense_H = dense_from_blocks(cond.blocks, blocks_H[0])
        _, ref_H = dense_gradient_and_hessian(model, theta, approx.mode)
        assert rel_gap(dense_H, ref_H) < 1.0e-12

        mode = dense_mode(model, theta)
        _, H = dense_gradient_and_hessian(model, theta, mode)
        assert rel_gap(approx.mode, mode) < 1.0e-9
        sign, log_det = np.linalg.slogdet(H)
        assert sign == 1.0
        assert rel_gap(approx.log_det_precision, log_det) < 1.0e-9
        assert rel_gap(approx.log_density_at_mode, log_density_0(cond, mode)) < 1.0e-9
        sd = np.sqrt(np.diag(np.linalg.inv(H)))
        # with the 1e9 copy link both this dense inverse and the engine's
        # SDs sit about 5e-10 from a 40-digit inverse of the same matrix
        sd_tol = 1.0e-8 if augmented else 1.0e-9
        assert np.max(np.abs(approx.marginal_sd() / sd - 1.0)) < sd_tol
        x = mode + 0.5 * sd * np.cos(np.arange(model.layout.dim))
        dx = x - mode
        logpdf = -0.5 * dx.size * math.log(2.0 * math.pi) + 0.5 * log_det - 0.5 * float(dx @ H @ dx)
        assert rel_gap(approx.logpdf(x), logpdf) < 1.0e-9

    def test_block_sizes_follow_the_layout(self):
        # seedling: x_k and the gamma_i of the rows in group k share a block,
        # and copy augmentation adds x_star_k to it
        for augmented in (False, True):
            model = study_model("seedling", augmented)
            blocks = assemble_conditional(model, model.theta.init_natural()).blocks
            rows_per_group = np.bincount(model.x_index)
            sizes = {s: count for s, count, _, _ in blocks.groups}
            expected = np.bincount(rows_per_group + 1 + int(augmented))
            assert sizes == {s: int(c) for s, c in enumerate(expected) if c}
            assert blocks.p + blocks.m == model.layout.dim


class TestScatter:
    """`LatentBlocks.scatter` sums K points' weights into their own bins
    through one K-offset index, kept between calls."""

    @pytest.mark.parametrize("name", ["slots", "hess_index"])
    @pytest.mark.parametrize("study, augmented, q", [("framingham", False, 1), ("seedling", False, 2),
                                                     ("framingham", True, 2)])
    def test_scatter_matches_per_point_bincount(self, study, augmented, q, name):
        model = study_model(study, augmented)
        blocks = assemble_conditional(model, model.theta.init_natural()).blocks
        assert blocks.slots.shape[0] == q
        n_bins = {"slots": blocks.m, "hess_index": blocks.n_hess}[name]
        base = getattr(blocks, name)
        rng = np.random.default_rng(4)
        kept = []
        for K in (7, 3, 9):
            weights = rng.standard_normal((K,) + base.shape)
            sums = blocks.scatter(name, weights)
            expected = np.array([np.bincount(base.ravel(), weights=weights[k].ravel(), minlength=n_bins)
                                 for k in range(K)])
            assert sums.shape == (K, n_bins)
            assert np.array_equal(sums, expected)
            kept.append(blocks._batched[name])
        # the index built for 7 points serves 3 as a prefix, and 9 rebuild it
        assert kept[1] is kept[0] and kept[0].size == 7 * base.size
        assert kept[2].size == 9 * base.size
        # an index passed in is used once and not kept
        assert np.array_equal(blocks.scatter(name, weights[:2], index=base), expected[:2])
        assert blocks._batched[name] is kept[2]

    def test_hess_index_holds_border_then_pairs(self):
        # entry j's product with global column c sits in H_lg at (slot, c),
        # which stands for both triangles, and its pair with entry k at
        # row slot_j, column slot_k of the local block that holds both
        model = study_model("seedling", False)
        blocks = assemble_conditional(model, model.theta.init_natural()).blocks
        p, (q, _, n) = blocks.p, blocks.hess_index.shape
        assert blocks.hess_index.shape == (q, p + q, n)
        for j in range(q):
            for c in range(p + q):
                weights = np.zeros((1,) + blocks.hess_index.shape)
                weights[0, j, c, 0] = 1.0
                H = dense_from_blocks(blocks, blocks.scatter("hess_index", weights)[0])
                a = blocks.perm[p + blocks.slots[j, 0]]
                b = c if c < p else blocks.perm[p + blocks.slots[c - p, 0]]
                assert H[a, b] == 1.0
                assert np.count_nonzero(H) == (2 if c < p else 1)

    def test_an_empty_index_sums_to_float_zeros(self):
        # naive framingham_like has no local entry (q = 0); numpy's bincount
        # counts an empty index in integers even when given weights
        model = study_model("framingham", False, naive=True)
        blocks = assemble_conditional(model, model.theta.init_natural()).blocks
        assert blocks.hess_index.shape[0] == 0
        sums = blocks.scatter("hess_index", np.zeros((3,) + blocks.hess_index.shape))
        assert sums.dtype == float and sums.shape == (3, blocks.n_hess) and not sums.any()


def per_row_log_density(model, theta, v):
    """The log density at v, row by row from the stacked rows (the latent
    prior's included)."""
    rows = stacked_rows(model, theta)
    tau, res = rows.precision, rows.obs - rows.eta(v)
    gauss = tau > 0.0
    f = float(np.sum(-0.5 * tau[gauss] * res[gauss] ** 2 + 0.5 * (np.log(tau[gauss]) - LOG_2PI)))
    if rows.trials is not None:
        reg = rows.reg_slice
        f += float(np.sum(families.loglik(rows.family, rows.obs[reg], rows.trials, rows.eta(v)[reg])))
        f += families.log_normalizer(rows.family, rows.obs[reg], rows.trials)
    return f


class TestBlockForm:
    """The Gaussian rows in block form against the same rows one by one."""

    @pytest.mark.parametrize("perturbed", [False, True])
    @pytest.mark.parametrize("study", [name + form for name in ("ibex", "framingham", "seedling", "random-effect")
                                       for form in ("", "/augmented", "/naive")])
    def test_matches_the_rows(self, study, perturbed):
        # the model as specified, copy-augmented or naive; naive
        # framingham_like has no local entry at all (q = 0)
        study, _, form = study.partition("/")
        model = study_model(study, form == "augmented", naive=form == "naive")
        theta = study_theta(model, perturbed)
        v = 0.3 * np.cos(1.3 * np.arange(model.layout.dim))
        cond = assemble_conditional(model, theta)
        g, H = _grad_hess(cond, v[None])
        ref_g, ref_H = dense_gradient_and_hessian(model, theta, v)
        assert rel_gap(cond.blocks.to_latent(g)[0], ref_g) < 1.0e-12
        assert rel_gap(dense_from_blocks(cond.blocks, H[0]), ref_H) < 1.0e-12
        assert rel_gap(log_density_0(cond, v), per_row_log_density(model, theta, v)) < 1.0e-12

    def test_a_gaussian_response_leaves_no_row_to_evaluate(self):
        # ibex_like has a gaussian response and no copy links
        model = study_model("ibex", False)
        cond = assemble_conditional(model, model.theta.init_natural())
        assert cond.obs.size == 0 and cond.trials_ng is None


class TestRidgeAndFailure:
    theta = np.array([0.7, 1.3, 0.9, 2.0])

    def test_ridge_rescues_a_singular_block(self):
        cond = assemble_conditional(linear_gaussian_model(), self.theta)
        H = _grad_hess(cond, np.zeros((1, cond.dim)))[1].copy()
        blocks = cond.blocks
        blocks.split(H)[1][0, 0] = 0.0
        H[0, blocks.diag[blocks.p]] = 0.0
        F, ok = _factor(blocks, H)
        assert ok[0]
        ridged = dense_from_blocks(blocks, H[0]) + RIDGE * np.eye(cond.dim)
        assert F.log_det[0] == pytest.approx(np.linalg.slogdet(ridged)[1], rel=1.0e-12)

    @pytest.mark.parametrize("augmented", [False, True])
    def test_non_pd_local_blocks_raise(self, augmented):
        model = linear_gaussian_model()
        if augmented:
            model = copy_augment(model)
        cond = assemble_conditional(model, self.theta)
        cond.gauss_hess = -cond.gauss_hess
        with pytest.raises(NumericError, match="not positive definite"):
            _newton(cond, None).approx(0)

    def test_non_pd_schur_complement_raises(self):
        cond = assemble_conditional(linear_gaussian_model(), self.theta)
        p = cond.blocks.p
        cond.gauss_hess[:, :p * p:p + 1] -= 1.0e6
        with pytest.raises(NumericError, match="not positive definite"):
            _newton(cond, None).approx(0)


class TestMemory:
    def test_cold_solve_stays_compact(self):
        # d = 2004 latent components: a dense N x d design alone would take
        # 128 MB and the d x d Hessian 32 MB
        sim = simulate_study(make_recipe("framingham", n=2000, beta_0=-1.4, seed=42))
        model = build_joint_model(parse_model_config(sim.model_config), sim.dataset)
        theta = model.theta.init_natural()
        assert model.layout.dim == 2004
        tracemalloc.start()
        try:
            approx = latent_gaussian_approx(model, theta)
            approx.marginal_sd()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def assert_same_solve(a, b):
    """Two solves of one point agree to the last bit."""
    assert np.array_equal(a.mode, b.mode)
    assert a.log_det_precision == b.log_det_precision
    assert a.log_density_at_mode == b.log_density_at_mode
    assert np.array_equal(a.marginal_sd(), b.marginal_sd())
    assert a.converged_in == b.converged_in


def spread_thetas(model, count, seed):
    """count hyperparameter points scattered around the prior-initial point."""
    lam0 = model.theta.to_internal(model.theta.init_natural())
    rng = np.random.default_rng(seed)
    lams = lam0 + 0.5 * rng.standard_normal((count, lam0.size))
    return np.array([model.theta.to_natural(lam) for lam in lams])


class TestBatch:
    """Solves of many hyperparameter points at once."""

    @pytest.mark.parametrize("augmented", [False, True])
    @pytest.mark.parametrize("study", ["ibex", "framingham", "seedling"])
    def test_point_in_a_batch_of_fifty_equals_its_solo_solve(self, study, augmented):
        model = study_model(study, augmented)
        thetas = spread_thetas(model, 50, seed=4)
        init = latent_gaussian_approx(model, model.theta.init_natural()).mode
        batch = _newton(assemble_conditional(model, thetas), init)
        assert all(err is None for err in batch.error)
        for k in (0, 17, 49):
            solo = latent_gaussian_approx(model, thetas[k], init=init)
            assert_same_solve(batch.approx(k), solo)
            assert np.array_equal(batch.marginal_sd([k])[0], solo.marginal_sd())
            # the stored factor too, whatever strides the batch's views have
            assert np.array_equal(batch.factor.inv[k], solo.factor.inv[0])
            assert batch.factor.log_det[k] == solo.factor.log_det[0]

    @pytest.mark.parametrize("augmented", [False, True])
    def test_one_non_pd_point_fails_alone(self, augmented):
        model = study_model("seedling", augmented)
        thetas = spread_thetas(model, 6, seed=2)
        cond = assemble_conditional(model, thetas)
        cond.gauss_hess[3] = -cond.gauss_hess[3]
        batch = _newton(cond, None)
        assert isinstance(batch.error[3], NumericError)
        assert "not positive definite" in str(batch.error[3])
        with pytest.raises(NumericError, match="not positive definite"):
            batch.approx(3)
        for k in (0, 1, 2, 4, 5):
            assert batch.error[k] is None
            assert_same_solve(batch.approx(k), latent_gaussian_approx(model, thetas[k]))

    def test_batches_cover_every_point_in_order(self, monkeypatch):
        model = study_model("framingham", False)
        thetas = spread_thetas(model, 7, seed=3)
        monkeypatch.setattr(meglm.gaussian, "BATCH_ELEMENTS", 3 * model.n_rows)
        batches = list(latent_gaussian_batches(model, thetas))
        assert [b.size for b in batches] == [3, 3, 1]
        modes = np.concatenate([b.mode for b in batches])
        for k in range(7):
            assert np.array_equal(modes[k], latent_gaussian_approx(model, thetas[k]).mode)


class TestBatchMemory:
    def test_two_hundred_point_batch_stays_bounded(self):
        # one unchunked batch of 200 points at N = 8000 stacked rows would
        # hold hundreds of MB of working arrays; the chunks hold a few MB
        sim = simulate_study(make_recipe("framingham", n=2000, beta_0=-1.4, seed=42))
        model = build_joint_model(parse_model_config(sim.model_config), sim.dataset)
        thetas = spread_thetas(model, 200, seed=6)
        init = latent_gaussian_approx(model, model.theta.init_natural()).mode
        tracemalloc.start()
        try:
            solved = 0
            for batch in latent_gaussian_batches(model, thetas, init):
                assert all(err is None for err in batch.error)
                batch.marginal_sd(np.arange(batch.size))
                solved += batch.size
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert solved == 200
        assert peak < 16 * 2**20

    def test_full_seedling_batch_stays_bounded(self):
        # seedling_like's 5 x 5 local blocks make it the costliest design
        # per point x row. One full batch and its SDs peaked at 31.3 MiB
        # with the factor held as per-block-size arrays, and at 29.4 MiB
        # with it stored flat like the precision.
        sim = simulate_study(make_recipe("seedling", seed=1))
        model = build_joint_model(parse_model_config(sim.model_config), sim.dataset)
        per_batch = meglm.gaussian.BATCH_ELEMENTS // model.n_rows
        assert per_batch == 873
        thetas = spread_thetas(model, per_batch, seed=6)
        init = latent_gaussian_approx(model, model.theta.init_natural()).mode
        tracemalloc.start()
        try:
            batch = next(latent_gaussian_batches(model, thetas, init))
            batch.marginal_sd(np.arange(batch.size))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert batch.size == per_batch and all(err is None for err in batch.error)
        assert peak < 30.4 * 2**20
