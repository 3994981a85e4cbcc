"""Acceptance gate: one check per headline criterion, at stated tolerances.

Each test prints one summary line on success, so a verbose run reads as a
pass/fail checklist. Runtime budgets are asserted where a criterion states
one; they are generous on purpose and measured on a single core.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from meglm.approx import (
    explore_grid,
    hyper_marginal,
    latent_marginals,
)
from meglm.closedforms import (
    attenuation_factor,
    meb_conditional,
    mec_conditional,
    naive_glm_fit,
)
from meglm.cli import main as cli_main
from meglm.data import Dataset, parse_model_config
from meglm.elicit import (
    gamma_from_quantiles,
    lognormal_from_quantiles,
    precision_from_uniform_range,
)
from meglm.gaussian import exact_linear_gaussian_posterior, latent_gaussian_approx
from meglm.mcmc import (
    ChainConfig,
    _draw_mvn_from_precision,
    _initial_state,
    _prepare,
    alpha_conditional,
    gibbs_alpha,
    gibbs_tau_u,
    gibbs_tau_x,
    run_chain,
    tau_u_conditional,
    tau_x_conditional,
)
from meglm.model import build_joint_model, copy_augment
from meglm.priors import GammaPrior
from meglm.report import laplace_marginals, naive_marginals
from meglm.studies import make_recipe, simulate_study


def _gaussian_logpdf(x, mean, precision):
    return 0.5 * (np.log(precision) - np.log(2.0 * np.pi)) - 0.5 * precision * (
        x - mean
    ) ** 2


def _quadrature_moments(logdens, lo, hi, points=2001):
    grid = np.linspace(lo, hi, points)
    log_f = logdens(grid)
    f = np.exp(log_f - np.max(log_f))
    mass = np.trapezoid(f, grid)
    mean = np.trapezoid(grid * f, grid) / mass
    var = np.trapezoid((grid - mean) ** 2 * f, grid) / mass
    return mean, var


def _augmented_model(study, **overrides):
    sim = simulate_study(make_recipe(study, **overrides))
    spec = parse_model_config(sim.model_config)
    return copy_augment(build_joint_model(spec, sim.dataset)), sim


def test_criterion_01_gaussian_latent_approx_is_exact():
    start = time.perf_counter()
    model, _ = _augmented_model("ibex", n=26, seed=1)
    theta = np.array([-1.5, 400.0, 59.0, 400.0])
    assert model.theta.names == ("beta_x", "tau_u", "tau_x", "tau_eps")
    approx = latent_gaussian_approx(model, theta)
    exact = exact_linear_gaussian_posterior(model, theta)
    mode_gap = float(np.max(np.abs(approx.mode - exact.mode)))
    sd_gap = float(np.max(np.abs(approx.marginal_sd() - exact.marginal_sd())))
    elapsed = time.perf_counter() - start
    assert mode_gap < 1.0e-10
    assert sd_gap < 1.0e-10
    assert elapsed < 1.0
    print(
        "criterion 1 PASS: mode gap %.2e, sd gap %.2e, %.2fs"
        % (mode_gap, sd_gap, elapsed)
    )


def test_criterion_02_conditional_closed_forms_match_quadrature():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst_mean = worst_var = 0.0
    for _ in range(100):
        alpha0 = float(rng.uniform(-2.0, 2.0))
        tau_x = float(rng.uniform(0.2, 5.0))
        tau_u = float(rng.uniform(0.2, 5.0))
        d = float(rng.uniform(0.3, 3.0))
        w = float(rng.uniform(-3.0, 3.0))
        beta_x = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0))

        mec = mec_conditional(w, alpha0, tau_x, tau_u, d)
        sd = 1.0 / math.sqrt(float(mec.precision_diag[0]))
        center = float(mec.mean[0])
        mean_q, var_q = _quadrature_moments(
            lambda x: _gaussian_logpdf(x, alpha0, tau_x)
            + _gaussian_logpdf(w, x, tau_u * d),
            center - 8.0 * sd,
            center + 8.0 * sd,
        )
        worst_mean = max(worst_mean, abs(center - mean_q))
        worst_var = max(worst_var, abs(1.0 / float(mec.precision_diag[0]) - var_q))

        meb = meb_conditional(w, tau_u, d, beta_x)
        sd_t = 1.0 / math.sqrt(float(meb.precision_diag[0]))
        center_t = float(meb.mean[0])
        mean_q, var_q = _quadrature_moments(
            lambda t: _gaussian_logpdf(t / beta_x, w, tau_u * d),
            center_t - 8.0 * sd_t,
            center_t + 8.0 * sd_t,
        )
        worst_mean = max(worst_mean, abs(center_t - mean_q))
        worst_var = max(worst_var, abs(1.0 / float(meb.precision_diag[0]) - var_q))
    elapsed = time.perf_counter() - start
    assert worst_mean < 1.0e-6
    assert worst_var < 1.0e-6
    assert elapsed < 5.0
    print(
        "criterion 2 PASS: worst mean gap %.2e, worst var gap %.2e, %.2fs"
        % (worst_mean, worst_var, elapsed)
    )


def test_criterion_03_attenuation_law():
    start = time.perf_counter()
    n = 5000
    rng = np.random.default_rng(3)

    x = rng.normal(0.0, 1.0, n)
    w = x + rng.normal(0.0, 1.0, n)
    y = x + rng.normal(0.0, 1.0, n)
    fit = naive_glm_fit(y, w)
    slope = fit.coefficient("beta_x")
    se = float(fit.standard_errors[list(fit.names).index("beta_x")])
    target = attenuation_factor(tau_x=1.0, tau_u=1.0) * 1.0
    assert target == 0.5
    classical_gap = abs(slope - target)
    assert classical_gap < 3.0 * se

    w0 = rng.normal(0.0, 1.0, n)
    xb = w0 + rng.normal(0.0, 1.0, n)
    yb = xb + rng.normal(0.0, 1.0, n)
    fit_b = naive_glm_fit(yb, w0)
    slope_b = fit_b.coefficient("beta_x")
    se_b = float(fit_b.standard_errors[list(fit_b.names).index("beta_x")])
    berkson_gap = abs(slope_b - 1.0)
    assert berkson_gap < 3.0 * se_b

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        "criterion 3 PASS: classical slope %.4f (target 0.5, 3se %.4f), "
        "berkson slope %.4f (target 1.0, 3se %.4f), %.2fs"
        % (slope, 3.0 * se, slope_b, 3.0 * se_b, elapsed)
    )


def test_criterion_04_variance_identities():
    start = time.perf_counter()
    n = 100000

    sim = simulate_study(make_recipe("framingham", n=n, seed=4))
    w1 = np.asarray(sim.dataset.columns["w1"], dtype=float)
    tau_x = sim.truth.parameters["tau_x"]
    tau_u = sim.truth.parameters["tau_u"]
    target = 1.0 / tau_x + 1.0 / tau_u
    se = target * math.sqrt(2.0 / (n - 1))
    classical_gap = abs(float(np.var(w1, ddof=1)) - target)
    assert classical_gap < 3.0 * se

    rng = np.random.default_rng(4)
    tau_u_b = 10.0
    w = rng.normal(0.0, 1.0, n)
    u = rng.normal(0.0, math.sqrt(1.0 / tau_u_b), n)
    x = w + u
    var_w = float(np.var(w, ddof=1))
    var_u = 1.0 / tau_u_b
    gap = float(np.var(x, ddof=1)) - (var_w + var_u)
    se_b = math.sqrt((2.0 * var_u**2 + 4.0 * var_w * var_u) / (n - 1))
    assert abs(gap) < 3.0 * se_b

    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    print(
        "criterion 4 PASS: classical gap %.2e (3se %.2e), berkson gap %.2e "
        "(3se %.2e), %.2fs" % (classical_gap, 3.0 * se, abs(gap), 3.0 * se_b, elapsed)
    )


def test_criterion_05_conjugate_conditionals_exact():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    from scipy.linalg import solve_triangular

    for _ in range(50):
        n = int(rng.integers(3, 40))
        prior = GammaPrior(
            shape=float(rng.uniform(0.5, 5.0)), rate=float(rng.uniform(0.1, 2.0))
        )
        x = rng.normal(0.0, 1.0, n)
        mu = rng.normal(0.0, 1.0, n)
        shape, rate = tau_x_conditional(x, mu, prior)
        resid = x - mu
        assert shape == prior.shape + 0.5 * n
        assert rate == prior.rate + 0.5 * float(resid @ resid)

        w = rng.normal(0.0, 1.0, n)
        x_at_w = rng.normal(0.0, 1.0, n)
        weights = rng.uniform(0.5, 2.0, n)
        shape, rate = tau_u_conditional(w, x_at_w, weights, prior)
        r = w - x_at_w
        assert shape == prior.shape + 0.5 * n
        assert rate == prior.rate + 0.5 * float((weights * r) @ r)

        k = int(rng.integers(1, 4))
        design = rng.normal(0.0, 1.0, (n, k))
        tau_x = float(rng.uniform(0.2, 4.0))
        pm = rng.normal(0.0, 1.0, k)
        pp = rng.uniform(0.5, 3.0, k)
        mean, precision = alpha_conditional(x, design, tau_x, pm, pp)
        prec_hand = tau_x * (design.T @ design) + np.diag(pp)
        rhs_hand = tau_x * (design.T @ x) + pp * pm
        assert np.array_equal(precision, prec_hand)
        chol = np.linalg.cholesky(prec_hand)
        half = solve_triangular(chol, rhs_hand, lower=True)
        mean_hand = solve_triangular(chol.T, half, lower=False)
        assert np.array_equal(mean, mean_hand)

    # the gibbs update wrappers must draw from exactly those laws: cloned
    # generators reproduce each draw bit for bit from the hand parameters
    sim = simulate_study(make_recipe("framingham", n=40, seed=5))
    model = build_joint_model(parse_model_config(sim.model_config), sim.dataset)
    sampler = _prepare(model)
    state = _initial_state(sampler)

    lib_rng = np.random.default_rng(55)
    hand_rng = np.random.default_rng(55)
    draw = gibbs_tau_x(state, sampler, lib_rng)
    shape, rate = tau_x_conditional(
        state.x, sampler.alpha.design @ state.alpha, sampler.tau_x_prior
    )
    assert draw == float(hand_rng.gamma(shape, 1.0 / rate))

    lib_rng = np.random.default_rng(56)
    hand_rng = np.random.default_rng(56)
    draw = gibbs_tau_u(state, sampler, lib_rng)
    shape, rate = tau_u_conditional(
        sampler.w, state.x[sampler.proxy_index], sampler.d, sampler.tau_u_prior
    )
    assert draw == float(hand_rng.gamma(shape, 1.0 / rate))

    lib_rng = np.random.default_rng(57)
    hand_rng = np.random.default_rng(57)
    drawn_alpha = gibbs_alpha(state, sampler, lib_rng)
    alpha = sampler.alpha
    free, fixed = alpha.free, alpha.fixed
    offset = alpha.design[:, fixed] @ state.alpha[fixed]
    mean, precision = alpha_conditional(
        state.x - offset,
        alpha.design[:, free],
        state.tau_x,
        alpha.mean[free],
        alpha.prec[free],
    )
    expected = state.alpha.copy()
    expected[free] = _draw_mvn_from_precision(hand_rng, mean, precision)
    assert np.array_equal(drawn_alpha, expected)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print("criterion 5 PASS: 50 states exact, gibbs draws bitwise, %.2fs" % elapsed)


def test_criterion_06_grid_approximation_agrees_with_long_chain():
    start = time.perf_counter()
    sim = simulate_study(make_recipe("framingham", n=200, beta_0=-1.4, seed=42))
    spec = parse_model_config(sim.model_config)
    model = build_joint_model(spec, sim.dataset)

    chain = run_chain(
        model, ChainConfig(iterations=100000, burn_in=10000, thin=10, seed=7)
    )

    augmented = copy_augment(model)
    grid = explore_grid(augmented, dz=0.75, diff_logdens=8.0)
    layout = augmented.layout
    blocks = {"beta_0": "beta0", "beta_z": "beta_z", "alpha_0": "alpha0", "alpha_z": "alpha_z"}
    indices = {name: layout.slice(block).start for name, block in blocks.items()}
    margs = latent_marginals(augmented, grid, list(indices.values()))
    approx = {name: m for name, m in zip(indices, margs)}
    approx["beta_x"] = hyper_marginal(grid, 0)
    # the plain model, which `laplace` fits
    shipped, _ = laplace_marginals(spec, sim.dataset, dz=0.75, diff_logdens=8.0)

    worst_mean = worst_sd = 0.0
    for arm, fit in (("copy-augmented", approx), ("plain", shipped)):
        for name in ("beta_0", "beta_x", "beta_z", "alpha_0", "alpha_z"):
            draws = chain.column(name)
            ref_mean = float(np.mean(draws))
            ref_sd = float(np.std(draws, ddof=1))
            mean_gap = abs(fit[name].mean - ref_mean) / ref_sd
            sd_gap = abs(fit[name].sd - ref_sd) / ref_sd
            worst_mean = max(worst_mean, mean_gap)
            worst_sd = max(worst_sd, sd_gap)
            assert mean_gap < 0.1, "%s %s mean off by %.3f posterior sd" % (arm, name, mean_gap)
            assert sd_gap < 0.1, "%s %s sd off by %.1f%%" % (arm, name, 100.0 * sd_gap)

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(
        "criterion 6 PASS (copy-augmented and plain grids): worst mean gap %.3f sd, "
        "worst sd gap %.1f%%, %.0fs"
        % (worst_mean, 100.0 * worst_sd, elapsed)
    )


def test_criterion_07_berkson_correction_direction():
    start = time.perf_counter()
    sim = simulate_study(make_recipe("seedling", seed=7))
    spec = parse_model_config(sim.model_config)
    corrected, _ = laplace_marginals(spec, sim.dataset, dz=0.75, diff_logdens=8.0)
    naive, _ = naive_marginals(spec, sim.dataset, dz=0.75, diff_logdens=8.0)

    for name in ("beta_0", "beta_x", "beta_z"):
        gap = abs(corrected[name].mean - naive[name].mean) / corrected[name].sd
        assert gap < 0.25, "%s means differ by %.2f posterior sd" % (name, gap)

    for name in ("beta_0", "beta_x", "tau_gamma"):
        width_c = corrected[name].q975 - corrected[name].q025
        width_n = naive[name].q975 - naive[name].q025
        assert width_c > width_n, (
            "%s corrected interval (%.4f) not wider than naive (%.4f)"
            % (name, width_c, width_n)
        )

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print("criterion 7 PASS: means agree, corrected intervals wider, %.0fs" % elapsed)


def test_criterion_08_elicitation_arithmetic():
    start = time.perf_counter()
    assert round(precision_from_uniform_range(0.45), 2) == 59.26
    assert precision_from_uniform_range(0.05) == 4800.0

    ln = lognormal_from_quantiles(40.0, 130.0)
    assert abs(ln.mu - 4.3) < 0.05
    assert abs(ln.sigma2 - 0.1) < 0.02

    gm = gamma_from_quantiles(0.5, 2.0)
    assert abs(gm.shape - 8.5) / 8.5 < 0.15
    assert abs(gm.rate - 7.5) / 7.5 < 0.15

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        "criterion 8 PASS: uniform precisions 59.26 / 4800, lognormal "
        "(%.3f, %.3f), gamma (%.2f, %.2f), %.2fs"
        % (ln.mu, ln.sigma2, gm.shape, gm.rate, elapsed)
    )


def test_criterion_09_copy_link_fidelity():
    start = time.perf_counter()
    cases = [
        ("ibex", {"n": 26, "seed": 9}),
        ("framingham", {"n": 120, "seed": 9}),
        ("seedling", {"seed": 9}),
    ]
    worst = 0.0
    for study, overrides in cases:
        model, _ = _augmented_model(study, **overrides)
        grid = explore_grid(model, dz=1.0, diff_logdens=4.0)
        theta = model.theta.to_natural(grid.mode)
        assert model.theta.names[0] == "beta_x"
        approx = latent_gaussian_approx(model, theta)
        x = approx.mode[model.layout.slice("x")]
        x_star = approx.mode[model.layout.slice("x_star")]
        gap = float(np.max(np.abs(x_star - theta[0] * x)))
        worst = max(worst, gap)
        assert gap < 1.0e-3, "%s copy gap %.2e" % (study, gap)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print("criterion 9 PASS: worst copy gap %.2e, %.2fs" % (worst, elapsed))


def test_criterion_10_seeded_commands_are_bit_identical(tmp_path):
    start = time.perf_counter()

    def run_everything(root):
        sim_dir = os.path.join(root, "sim")
        out_dir = os.path.join(root, "out")
        cmp_dir = os.path.join(root, "cmp")
        assert (
            cli_main(
                [
                    "simulate", "--study", "ibex", "--n", "30",
                    "--seed", "9", "--outdir", sim_dir, "--stem", "s",
                ]
            )
            == 0
        )
        assert (
            cli_main(
                [
                    "fit",
                    "--config", os.path.join(sim_dir, "s_model.ini"),
                    "--data", os.path.join(sim_dir, "s.csv"),
                    "--method", "all", "--outdir", out_dir,
                    "--dz", "1.0", "--diff-logdens", "4.0",
                    "--iterations", "2000", "--burn-in", "500",
                    "--thin", "3", "--seed", "11",
                ]
            )
            == 0
        )
        assert (
            cli_main(
                [
                    "compare",
                    os.path.join(out_dir, "naive_summary.json"),
                    os.path.join(out_dir, "mcmc_summary.json"),
                    "--outdir", cmp_dir,
                ]
            )
            == 0
        )

    roots = [str(tmp_path / "run1"), str(tmp_path / "run2")]
    for root in roots:
        run_everything(root)

    compared = 0
    for dirpath, _, filenames in os.walk(roots[0]):
        rel = os.path.relpath(dirpath, roots[0])
        for fname in sorted(filenames):
            first = os.path.join(dirpath, fname)
            second = os.path.join(roots[1], rel, fname)
            with open(first, "rb") as fh:
                a = fh.read()
            with open(second, "rb") as fh:
                b = fh.read()
            assert a == b, "file %s differs between seeded runs" % (
                os.path.join(rel, fname),
            )
            compared += 1
    assert compared >= 10

    elapsed = time.perf_counter() - start
    print(
        "criterion 10 PASS: %d files bit-identical across reruns, %.0fs"
        % (compared, elapsed)
    )
