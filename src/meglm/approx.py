"""Nested posterior approximation over a hyperparameter grid.

The latent field is integrated out with a Gaussian (Laplace) approximation
at each hyperparameter value. The hyperparameter mode is found by damped
Newton steps on finite-difference derivatives, the posterior is explored on
a standardized lattice around that mode, and latent and hyperparameter
marginals are assembled as finite mixtures over the retained grid points;
the latent mixtures reuse the moments of the walk's own solves.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
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
MAX_MODE_ITER = 40
# Newton decrement g' C^{-1} g below which the mode search stops: the step
# left is under 1e-3 in curvature-standardized units, far inside one grid
# step, and a further stencil would only confirm it. The copy-augmented
# model keeps 1e-12: its 1e9 copy link puts round-off noise of order 1 into
# the finite-difference curvature, so the stencil it stops on sets its grid
# axes by chance, and it steps on until no step rises.
MODE_STEP_TOL = 1.0e-6
AUGMENTED_MODE_STEP_TOL = 1.0e-12


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


@dataclass(eq=False)
class IntegrationGrid:
    """Retained hyperparameter support points in internal scale.

    thetas holds one internal-scale point per row; weights are normalized
    to sum to one. axes maps standardized steps to internal offsets
    (lambda = mode + axes @ z), which hyper_marginal uses for bin widths.
    truncated flags a walk stopped by the point cap; skipped counts lattice
    points dropped because their latent solve raised NumericError.
    latent_mean and latent_sd (K x d, one row per thetas row) hold the
    latent mode and every component's marginal standard deviation from
    the solve at each point; a hand-built grid without them has no latent
    marginals.
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
    latent_mean: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    latent_sd: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

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


def _fd_derivatives(fn: Callable, lam: np.ndarray, f0: float, h: float):
    """Central finite-difference gradient and symmetrized Hessian of fn at lam.

    f0 = fn(lam) comes from the caller and the gradient reuses the Hessian's
    on-axis points, so one stencil costs 2 m^2 evaluations of fn.
    """
    m = lam.size
    g = np.empty(m)
    H = np.empty((m, m))
    step = h * np.eye(m)
    for i in range(m):
        ei = step[i]
        fp = fn(lam + ei)
        fm = fn(lam - ei)
        g[i] = (fp - fm) / (2.0 * h)
        H[i, i] = (fp - 2.0 * f0 + fm) / (h * h)
        for j in range(i + 1, m):
            ej = step[j]
            fpp = fn(lam + ei + ej)
            fpm = fn(lam + ei - ej)
            fmp = fn(lam - ei + ej)
            fmm = fn(lam - ei - ej)
            H[i, j] = H[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    return g, H


def _find_hyper_mode(model: JointModel):
    """Damped Newton ascent on finite-difference derivatives, in internal scale.

    Starts from the prior-based initial point and backtracks each step
    until the log posterior rises. Once the squared Newton decrement falls
    below MODE_STEP_TOL (AUGMENTED_MODE_STEP_TOL for a copy-augmented
    model) it takes that last short step without a further stencil and
    stops. Returns (mode, curvature, lp_at_mode, latent_init), where
    curvature is the negative finite-difference Hessian of the
    internal-scale log posterior at the mode (from the last iteration's
    stencil) and latent_init is the latent mode found there.
    """
    layout = model.theta
    m = layout.dim
    step_tol = AUGMENTED_MODE_STEP_TOL if model.is_augmented else MODE_STEP_TOL

    warm = {"v": None}

    def lp(lam):
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

    lam = np.asarray(layout.to_internal(layout.init_natural()), dtype=float)
    f_here = lp(lam)
    if not np.isfinite(f_here):
        raise NumericError("hyperparameter mode search did not converge")
    latent_init = warm["v"]
    # every iteration takes its derivatives at lam first, so (g, C) belong
    # to the returned point, or to one a final short step away
    for it in range(MAX_MODE_ITER + 1):
        g, H = _fd_derivatives(lp, lam, f_here, FD_STEP)
        C = -H
        if it == MAX_MODE_ITER or not (np.all(np.isfinite(g)) and np.all(np.isfinite(C))):
            # out of iterations, or a stencil arm fell off the support and
            # the backtracking search below cannot use these derivatives
            break
        evals = np.linalg.eigvalsh(C)
        # ridge an indefinite model so the step still ascends
        ridge = abs(evals[0]) + 1.0e-3 if evals[0] <= 0.0 else 0.0
        try:
            step = np.linalg.solve(C + ridge * np.eye(m), g)
        except np.linalg.LinAlgError:
            break
        decrement_sq = float(g @ step)
        if not np.isfinite(decrement_sq):
            break
        if decrement_sq < step_tol:
            # the step left is too short to need confirming by another
            # stencil: take it if it does not lower the log posterior, and
            # keep this stencil's (g, C), taken that close to the mode
            cand = lam + step
            f_cand = lp(cand)
            if np.isfinite(f_cand) and f_cand >= f_here:
                lam, f_here, latent_init = cand, f_cand, warm["v"]
            break
        if float(np.max(np.abs(step))) > 1.0:
            step = step / float(np.max(np.abs(step)))
        t = 1.0
        for _ in range(20):
            cand = lam + t * step
            f_cand = lp(cand)
            if np.isfinite(f_cand) and f_cand > f_here:
                lam, f_here, latent_init = cand, f_cand, warm["v"]
                break
            t *= 0.5
        else:
            break

    if not np.all(np.isfinite(C)):
        raise NumericError(
            "curvature at the hyperparameter mode is not finite"
        )
    if np.linalg.eigvalsh(C)[0] <= 0.0:
        raise NumericError(
            "curvature at the hyperparameter mode is not positive definite"
        )
    normalized = float(g @ np.linalg.solve(C, g))
    if not np.isfinite(normalized) or math.sqrt(max(normalized, 0.0)) > 0.5:
        raise NumericError("hyperparameter mode search did not converge")
    return lam, C, f_here, latent_init


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
    where it cannot be evaluated. The lattice origin is evaluated first,
    and a point is retained when its value is within diff_logdens of the
    origin's. Returns the sorted lattice keys, their points, log
    posteriors, the standardizing axes matrix, and whether the cap
    truncated the walk.
    """
    m = mode.size
    evals, vecs = np.linalg.eigh(np.asarray(curvature, dtype=float))
    if evals[0] <= 0.0:
        raise NumericError(
            "curvature at the hyperparameter mode is not positive definite"
        )
    axes = vecs @ np.diag(1.0 / np.sqrt(evals))

    def point(key):
        return mode + axes @ (dz * np.asarray(key, dtype=float))

    origin = (0,) * m
    lp0 = lp_fn(point(origin))
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
    solve fails are dropped and counted as skipped. Every latent solve
    starts from the latent mode at the hyperparameter mode, so the grid
    does not depend on the walk order; each retained point keeps its
    latent mode and marginal standard deviations for latent_marginals.
    """
    if not (math.isfinite(dz) and dz > 0.0):
        raise SpecError("dz must be finite and positive, got %g" % dz)
    if not (math.isfinite(diff_logdens) and diff_logdens > 0.0):
        raise SpecError("diff_logdens must be finite and positive, got %g" % diff_logdens)
    layout = model.theta
    if layout.dim == 0:
        approx = latent_gaussian_approx(model, layout.to_natural(np.zeros(0)))
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
            latent_mean=approx.mode[None, :],
            latent_sd=approx.marginal_sd()[None, :],
        )
    lam_star, curvature, _, latent_init = _find_hyper_mode(model)
    skipped = 0
    lp_origin = None
    moments = {}

    def lp(lam):
        nonlocal skipped, lp_origin
        try:
            val, approx = _lp_and_approx(model, lam, internal=True, init=latent_init)
        except NumericError:
            skipped += 1
            return -np.inf
        if lp_origin is None:
            lp_origin = val
        # the walk's own retention rule, so only retained points pay for
        # the marginal standard deviations
        if val >= lp_origin - diff_logdens:
            moments[lam.tobytes()] = (approx.mode, approx.marginal_sd())
        return val

    _, thetas, log_post, axes, truncated = _explore_lattice(
        lp, lam_star, curvature, dz, diff_logdens, cap=cap
    )
    latent = [moments[t.tobytes()] for t in thetas]
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
        latent_mean=np.array([mean for mean, _ in latent]),
        latent_sd=np.array([sd for _, sd in latent]),
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
    conditional mean and marginal standard deviation that explore_grid
    kept from its Newton solve at that point; nothing is solved here.
    """
    if grid.size == 0:
        raise SpecError("integration grid is empty")
    d = model.layout.dim
    idx = np.asarray(list(indices), dtype=int)
    if idx.size and (np.min(idx) < 0 or np.max(idx) >= d):
        raise SpecError(
            "latent index out of range: model has %d latent components" % d
        )
    if grid.latent_mean.shape != (grid.size, d) or grid.latent_sd.shape != (grid.size, d):
        raise SpecError(
            "integration grid holds no latent moments for a %d-component model" % d
        )
    return [
        mixture_marginal(grid.latent_mean[:, c], grid.latent_sd[:, c], grid.weights)
        for c in idx
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
    # through three centers the not-a-knot spline is their interpolating parabola
    log_density = CubicSpline(centers, log_f, bc_type="not-a-knot")(lam_grid)
    density = np.exp(np.asarray(log_density, dtype=float)) * jac
    mass = float(np.trapezoid(density, values))
    return marginal_from_grid(values, density / mass)
