"""Nested posterior approximation over a hyperparameter grid.

The latent field is integrated out with a Gaussian (Laplace) approximation
at each hyperparameter value; the hyperparameter posterior is explored on a
standardized lattice around its mode, and latent and hyperparameter
marginals are assembled as finite mixtures over the retained grid points.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import optimize
from scipy.interpolate import CubicSpline

from .errors import NumericError, SpecError
from .gaussian import latent_gaussian_approx
# joint_log_density is not called here; the binding stays because
# perfbench/run.py traces log-density calls through approx.joint_log_density
from .model import JointModel, joint_log_density  # noqa: F401
from .priors import LOG_2PI

__all__ = [
    "IntegrationGrid",
    "PosteriorMarginal",
    "log_hyperposterior",
    "explore_grid",
    "latent_marginal",
    "latent_marginals",
    "hyper_marginal",
    "marginal_from_grid",
    "GRID_POINT_CAP",
    "MARGINAL_GRID_SIZE",
    "MARGINAL_SPAN_SD",
]

GRID_POINT_CAP = 50_000
MARGINAL_GRID_SIZE = 75
MARGINAL_SPAN_SD = 5.0
FD_STEP = 1.0e-4
MAX_POLISH_ITER = 40


@dataclass(eq=False)
class PosteriorMarginal:
    """A univariate posterior marginal on a value grid.

    values/density hold the gridded density (empty when moments_only);
    mean, sd and the three standard quantiles are computed by trapezoid
    quadrature on that grid.
    """

    values: np.ndarray
    density: np.ndarray
    mean: float
    sd: float
    q025: float
    q50: float
    q975: float
    moments_only: bool = False

    @property
    def grid(self):
        return list(zip(self.values.tolist(), self.density.tolist()))

    @property
    def quantiles(self) -> dict:
        return {0.025: self.q025, 0.5: self.q50, 0.975: self.q975}


@dataclass(eq=False)
class IntegrationGrid:
    """Retained hyperparameter support points in internal scale.

    thetas holds one internal-scale point per row; weights are normalized
    to sum to one. axes maps standardized steps to internal offsets
    (lambda = mode + axes @ z), which hyper_marginal uses for bin widths.
    truncated flags a walk stopped by the point cap; skipped counts lattice
    points dropped because their latent solve raised NumericError.
    """

    thetas: np.ndarray
    log_post: np.ndarray
    weights: np.ndarray
    mode: np.ndarray
    scales: tuple
    names: tuple
    axes: np.ndarray
    dz: float
    diff_logdens: float
    truncated: bool = False
    skipped: int = 0

    @property
    def points(self):
        return [
            (self.thetas[k], float(self.log_post[k]), float(self.weights[k]))
            for k in range(self.thetas.shape[0])
        ]

    @property
    def size(self) -> int:
        return int(self.thetas.shape[0])


def log_hyperposterior(
    model: JointModel,
    theta,
    internal: bool = False,
    init: Optional[np.ndarray] = None,
) -> float:
    """Laplace-approximate log posterior of the hyperparameters, up to a constant.

    Computes joint density at the conditional latent mode minus the
    Gaussian approximation's own value there, which reduces to adding half
    the log determinant correction. With internal=True the input is in
    internal scale (log precisions) and the change-of-variables term is
    included.
    """
    lp, _ = _lp_and_approx(model, theta, internal=internal, init=init)
    return lp


def _lp_and_approx(model, theta, internal=False, init=None):
    layout = model.theta
    theta = np.asarray(theta, dtype=float)
    if internal:
        lam = theta
        theta_nat = layout.to_natural(lam)
    else:
        theta_nat = layout.validate(theta)
    approx = latent_gaussian_approx(model, theta_nat, init=init)
    # log_density_at_mode is the solve's own conditional evaluated at its
    # mode, so adding the prior gives joint_log_density without assembling
    # the conditional a second time
    lp = (
        approx.log_density_at_mode
        + layout.log_prior(theta_nat)
        - 0.5 * approx.log_det_precision
        + 0.5 * approx.dim * LOG_2PI
    )
    if internal:
        lp += layout.internal_log_jacobian(lam)
    return float(lp), approx


def _fd_gradient(fn: Callable, lam: np.ndarray, h: float) -> np.ndarray:
    m = lam.size
    g = np.empty(m)
    for i in range(m):
        e = np.zeros(m)
        e[i] = h
        g[i] = (fn(lam + e) - fn(lam - e)) / (2.0 * h)
    return g


def _fd_hessian(fn: Callable, lam: np.ndarray, h: float) -> np.ndarray:
    """Central finite-difference Hessian, symmetrized."""
    m = lam.size
    H = np.empty((m, m))
    f0 = fn(lam)
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = h
        H[i, i] = (fn(lam + ei) - 2.0 * f0 + fn(lam - ei)) / (h * h)
        for j in range(i + 1, m):
            ej = np.zeros(m)
            ej[j] = h
            fpp = fn(lam + ei + ej)
            fpm = fn(lam + ei - ej)
            fmp = fn(lam - ei + ej)
            fmm = fn(lam - ei - ej)
            H[i, j] = H[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    return H


def _find_hyper_mode(model: JointModel):
    """Quasi-Newton ascent plus finite-difference polish, in internal scale.

    Returns (mode, curvature, lp_at_mode, latent_init) where curvature is
    the negative Hessian of the internal-scale log posterior at the mode.
    """
    layout = model.theta
    m = layout.dim
    lam0 = layout.to_internal(layout.init_natural())

    warm = {"v": None}

    def lp(lam):
        lam = np.asarray(lam, dtype=float)
        if not np.all(np.isfinite(lam)):
            return -np.inf
        try:
            val, approx = _lp_and_approx(model, lam, internal=True, init=warm["v"])
        except NumericError:
            # a failed inner solve must not leave a poisoned warm start for
            # every later evaluation, so fall back to cold starts
            warm["v"] = None
            return -np.inf
        warm["v"] = approx.mode
        return val

    def neg(lam):
        val = lp(lam)
        return 1.0e12 if not np.isfinite(val) else -val

    res = optimize.minimize(neg, lam0, method="BFGS", options={"gtol": 1.0e-6})
    lam = np.asarray(res.x, dtype=float)
    if not np.all(np.isfinite(lam)) or not np.isfinite(lp(lam)):
        # the quasi-Newton run wandered into the barrier; restart the
        # damped-Newton polish from the prior-based initial point instead
        lam = np.array(lam0, dtype=float)
    if not np.isfinite(lp(lam)):
        raise NumericError("hyperparameter mode search did not converge")

    # polish with damped Newton on finite-difference derivatives; the
    # quasi-Newton line search can stall well short of the mode, so keep
    # iterating with backtracking until the Newton decrement is small
    f_here = lp(lam)
    for _ in range(MAX_POLISH_ITER):
        g = _fd_gradient(lp, lam, FD_STEP)
        H = _fd_hessian(lp, lam, FD_STEP)
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(H))):
            # a finite-difference stencil arm fell off the support; the
            # backtracking search below cannot use these derivatives
            break
        C = -H
        evals = np.linalg.eigvalsh(C)
        if evals[0] <= 0.0:
            # ridge an indefinite model so the step still ascends
            C = C + (abs(evals[0]) + 1.0e-3) * np.eye(m)
        try:
            step = np.linalg.solve(C, g)
        except np.linalg.LinAlgError:
            break
        decrement_sq = float(g @ step)
        if not np.isfinite(decrement_sq) or decrement_sq < 1.0e-12:
            break
        if float(np.max(np.abs(step))) > 1.0:
            step = step / float(np.max(np.abs(step)))
        t = 1.0
        improved = False
        for _ in range(20):
            cand = lam + t * step
            f_cand = lp(cand)
            if np.isfinite(f_cand) and f_cand > f_here:
                lam, f_here = cand, f_cand
                improved = True
                break
            t *= 0.5
        if not improved:
            break

    C = -_fd_hessian(lp, lam, FD_STEP)
    if not np.all(np.isfinite(C)):
        raise NumericError(
            "curvature at the hyperparameter mode is not finite"
        )
    evals = np.linalg.eigvalsh(C)
    if m and evals[0] <= 0.0:
        raise NumericError(
            "curvature at the hyperparameter mode is not positive definite"
        )
    g = _fd_gradient(lp, lam, FD_STEP)
    if m:
        normalized = float(g @ np.linalg.solve(C, g))
        if not np.isfinite(normalized) or math.sqrt(max(normalized, 0.0)) > 0.5:
            raise NumericError("hyperparameter mode search did not converge")
    lp_mode, approx = _lp_and_approx(model, lam, internal=True, init=warm["v"])
    return lam, C, lp_mode, approx.mode


def _explore_lattice(
    lp_fn: Callable,
    mode: np.ndarray,
    curvature: np.ndarray,
    dz: float,
    diff_logdens: float,
    cap: int = GRID_POINT_CAP,
):
    """Breadth-first walk on the standardized lattice around the mode.

    lp_fn maps an internal-scale point to its log posterior, or to -inf
    where it cannot be evaluated. Returns the sorted lattice keys, their
    points, log posteriors, the standardizing axes matrix, and whether the
    cap truncated the walk.
    """
    m = mode.size
    if m == 0:
        return (
            [()],
            np.zeros((1, 0)),
            np.array([lp_fn(mode)]),
            np.zeros((0, 0)),
            False,
        )
    evals, vecs = np.linalg.eigh(np.asarray(curvature, dtype=float))
    if evals[0] <= 0.0:
        raise NumericError(
            "curvature at the hyperparameter mode is not positive definite"
        )
    axes = vecs @ np.diag(1.0 / np.sqrt(evals))

    def point(key):
        return mode + axes @ (dz * np.asarray(key, dtype=float))

    origin = (0,) * m
    lp0 = lp_fn(mode)
    if not np.isfinite(lp0):
        raise NumericError("log posterior is not finite at the hyperparameter mode")
    retained = {origin: lp0}
    visited = {origin}
    queue = deque([origin])
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
                key = base[:j] + (base[j] + sign,) + base[j + 1 :]
                if key in visited:
                    continue
                visited.add(key)
                val = lp_fn(point(key))
                if np.isfinite(val) and val >= lp0 - diff_logdens:
                    retained[key] = val
                    queue.append(key)

    keys = sorted(retained)
    log_post = np.array([retained[k] for k in keys])
    # the walk is anchored at the searched mode; re-filter against the true
    # maximum so the retention invariant holds even if a neighbor edges it out
    top = float(np.max(log_post))
    keep = log_post >= top - diff_logdens
    keys = [k for k, ok in zip(keys, keep) if ok]
    log_post = log_post[keep]
    thetas = np.array([point(k) for k in keys]).reshape(len(keys), m)
    return keys, thetas, log_post, axes, truncated


def explore_grid(
    model: JointModel,
    dz: float = 0.5,
    diff_logdens: float = 20.0,
    cap: int = GRID_POINT_CAP,
) -> IntegrationGrid:
    """Locate the hyperparameter mode and build the weighted support grid.

    Walks outward in steps of dz along curvature-standardized axes,
    retaining points within diff_logdens of the mode. Weights are the
    normalized posterior densities (equal lattice volumes cancel). The walk
    stops at cap points and flags the grid truncated; points whose latent
    solve fails are dropped and counted as skipped.
    """
    if dz <= 0.0:
        raise SpecError("dz must be positive, got %g" % dz)
    if diff_logdens <= 0.0:
        raise SpecError("diff_logdens must be positive, got %g" % diff_logdens)
    layout = model.theta
    if layout.dim == 0:
        return IntegrationGrid(
            thetas=np.zeros((1, 0)),
            log_post=np.zeros(1),
            weights=np.ones(1),
            mode=np.zeros(0),
            scales=(),
            names=(),
            axes=np.zeros((0, 0)),
            dz=dz,
            diff_logdens=diff_logdens,
        )
    lam_star, curvature, _, latent_init = _find_hyper_mode(model)
    skipped = 0

    def lp(lam):
        nonlocal skipped
        try:
            val, _ = _lp_and_approx(model, lam, internal=True, init=latent_init)
        except NumericError:
            skipped += 1
            return -np.inf
        return val

    _, thetas, log_post, axes, truncated = _explore_lattice(
        lp, lam_star, curvature, dz, diff_logdens, cap=cap
    )
    w = np.exp(log_post - np.max(log_post))
    return IntegrationGrid(
        thetas=thetas,
        log_post=log_post,
        weights=w / float(np.sum(w)),
        mode=lam_star,
        scales=layout.scales,
        names=layout.names,
        axes=axes,
        dz=dz,
        diff_logdens=diff_logdens,
        truncated=truncated,
        skipped=skipped,
    )


def marginal_from_grid(values: np.ndarray, density: np.ndarray) -> PosteriorMarginal:
    """Moments and quantiles of a gridded density by trapezoid quadrature."""
    mass = float(np.trapezoid(density, values))
    if mass <= 0.0:
        raise NumericError("marginal density has no mass on its grid")
    f = density / mass
    mean = float(np.trapezoid(values * f, values))
    var = float(np.trapezoid((values - mean) ** 2 * f, values))
    cdf = np.concatenate(
        ([0.0], np.cumsum(np.diff(values) * 0.5 * (f[:-1] + f[1:])))
    )
    cdf = cdf / cdf[-1]
    q025, q50, q975 = np.interp([0.025, 0.5, 0.975], cdf, values)
    return PosteriorMarginal(
        values=values,
        density=f,
        mean=mean,
        sd=math.sqrt(max(var, 0.0)),
        q025=float(q025),
        q50=float(q50),
        q975=float(q975),
    )


def mixture_marginal(
    means: np.ndarray, sds: np.ndarray, weights: np.ndarray
) -> PosteriorMarginal:
    """Marginal of a Gaussian mixture on a 75-point grid around its mass.

    The grid spans the mixture mean plus/minus five mixture standard
    deviations; the reported density is the mixture density renormalized
    to unit mass over that window.
    """
    means = np.asarray(means, dtype=float)
    sds = np.asarray(sds, dtype=float)
    weights = np.asarray(weights, dtype=float)
    mu = float(np.sum(weights * means))
    var = float(np.sum(weights * (sds * sds + means * means)) - mu * mu)
    sd = math.sqrt(max(var, 0.0))
    if sd <= 0.0:
        raise NumericError("mixture marginal has zero spread")
    values = np.linspace(
        mu - MARGINAL_SPAN_SD * sd, mu + MARGINAL_SPAN_SD * sd, MARGINAL_GRID_SIZE
    )
    z = (values[None, :] - means[:, None]) / sds[:, None]
    comp = np.exp(-0.5 * z * z) / (sds[:, None] * math.sqrt(2.0 * math.pi))
    density = weights @ comp
    return marginal_from_grid(values, density)


def latent_marginals(
    model: JointModel, grid: IntegrationGrid, indices: Sequence[int]
) -> list:
    """Latent posterior marginals for several indices in one grid pass.

    Each grid point contributes one Gaussian component per index, with the
    conditional mean and marginal standard deviation from the Newton solve
    at that point. Every solve starts from the latent mean at the
    hyperparameter mode, so results do not depend on evaluation order.
    """
    if grid.size == 0:
        raise SpecError("integration grid is empty")
    layout = model.theta
    d = model.layout.dim
    idx = np.asarray(list(indices), dtype=int)
    if idx.size and (np.min(idx) < 0 or np.max(idx) >= d):
        raise SpecError(
            "latent index out of range: model has %d latent components" % d
        )
    if grid.mode.size:
        theta_star = layout.to_natural(grid.mode)
        init = latent_gaussian_approx(model, theta_star).mode
    else:
        init = None
    K = grid.size
    means = np.empty((K, idx.size))
    sds = np.empty((K, idx.size))
    for k in range(K):
        theta_nat = layout.to_natural(grid.thetas[k])
        approx = latent_gaussian_approx(model, theta_nat, init=init)
        means[k] = approx.mode[idx]
        sds[k] = approx.marginal_sd(idx)
    return [
        mixture_marginal(means[:, c], sds[:, c], grid.weights)
        for c in range(idx.size)
    ]


def latent_marginal(model: JointModel, grid: IntegrationGrid, i: int) -> PosteriorMarginal:
    """Posterior marginal of latent component i as a weighted Gaussian mixture."""
    return latent_marginals(model, grid, [i])[0]


def _moments_only(values: np.ndarray, weights: np.ndarray) -> PosteriorMarginal:
    mean = float(np.sum(weights * values))
    var = float(np.sum(weights * values * values) - mean * mean)
    return PosteriorMarginal(
        values=np.zeros(0),
        density=np.zeros(0),
        mean=mean,
        sd=math.sqrt(max(var, 0.0)),
        q025=math.nan,
        q50=math.nan,
        q975=math.nan,
        moments_only=True,
    )


def hyper_marginal(grid: IntegrationGrid, j: int) -> PosteriorMarginal:
    """Posterior marginal of hyperparameter j in natural scale.

    Aggregates grid weights into bins along internal coordinate j,
    interpolates the log density through the nonempty bin centers, then
    evaluates on a fine natural-scale grid with the change-of-variables
    Jacobian and renormalizes. Fewer than three occupied bins yield a
    flagged moments-only result.
    """
    if grid.size == 0:
        raise SpecError("integration grid is empty")
    m = grid.thetas.shape[1]
    if not 0 <= j < m:
        raise SpecError("hyperparameter index %d out of range for %d" % (j, m))
    scale = grid.scales[j]
    lam_j = grid.thetas[:, j]

    cov = grid.axes @ grid.axes.T
    width = grid.dz * math.sqrt(float(cov[j, j]))
    bins = np.rint((lam_j - grid.mode[j]) / width).astype(int)
    order = np.argsort(bins, kind="stable")
    uniq, start = np.unique(bins[order], return_index=True)
    masses = np.add.reduceat(grid.weights[order], start)
    centers = grid.mode[j] + width * uniq.astype(float)

    natural = np.exp(centers) if scale == "log" else centers
    if uniq.size < 3:
        return _moments_only(natural, masses)

    log_f = np.log(masses / width)
    values = np.linspace(natural[0], natural[-1], MARGINAL_GRID_SIZE)
    if scale == "log":
        lam_grid = np.log(values)
        jac = 1.0 / values
    else:
        lam_grid = values
        jac = np.ones_like(values)
    if uniq.size == 3:
        log_density = np.polyval(np.polyfit(centers, log_f, 2), lam_grid)
    else:
        log_density = CubicSpline(centers, log_f, bc_type="not-a-knot")(lam_grid)
    density = np.exp(np.asarray(log_density, dtype=float)) * jac
    mass = float(np.trapezoid(density, values))
    return marginal_from_grid(values, density / mass)
