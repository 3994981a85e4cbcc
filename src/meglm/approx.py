"""Nested posterior approximation over a hyperparameter grid.

The latent field is integrated out with a Gaussian (Laplace) approximation
at each hyperparameter value. The hyperparameter mode is found by damped
Newton steps on finite-difference derivatives, with one stopping rule for
every model, and is the origin of the lattice for every model: one with no
free hyperparameters stops at its start point. The posterior is explored on
a standardized lattice around that mode, and every marginal is a Gaussian
mixture over the retained grid points, with the grid weights: a latent
component mixes the conditional Gaussians of the walk's own solves, and a
hyperparameter mixes one shrunk kernel per lattice point (hyper_marginal).

Given the mode, the Laplace evaluations are independent of each other, so
each finite-difference stencil and each breadth-first shell of the lattice
is solved as one batch (`gaussian.latent_gaussian_batches`), every point
warm-started from the latent mode at the stencil's centre or at the
hyperparameter mode. Only the mode search's start point and its
backtracking line search solve one point at a time. A point's value does
not depend on the batch it is solved in, so neither does any result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NumericError, SpecError
from .gaussian import latent_gaussian_approx, latent_gaussian_batches
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
    "DEFAULT_DZ",
    "DEFAULT_DIFF_LOGDENS",
    "MARGINAL_GRID_SIZE",
    "MARGINAL_SPAN_SD",
]

GRID_POINT_CAP = 50_000
# the lattice step and log-density span of explore_grid and `meglm fit`
DEFAULT_DZ = 0.5
DEFAULT_DIFF_LOGDENS = 20.0
MARGINAL_GRID_SIZE = 75
MARGINAL_SPAN_SD = 5.0
SQRT_2PI = math.sqrt(2.0 * math.pi)
# kernel sd of a hyperparameter marginal, in standardized lattice steps
# along one axis (times sqrt(m) for m axes); at 0.9 a 1-D lattice of an
# exactly Gaussian posterior gives its density to about 1e-9
HYPER_KERNEL_FACTOR = 0.9
FD_STEP = 1.0e-4
MAX_MODE_ITER = 40
# Newton decrement g' C^{-1} g below which the mode search of every model,
# plain or copy-augmented, stops: the step left is under 1e-3 in
# curvature-standardized units, far inside one grid step, and a further
# stencil would only confirm it.
MODE_STEP_TOL = 1.0e-6


@dataclass(eq=False)
class PosteriorMarginal:
    """A univariate posterior marginal on a value grid.

    values/density hold the gridded density, at least three points with
    increasing values; mean, sd and the three standard quantiles are
    computed by trapezoid quadrature on that grid.
    """

    values: np.ndarray
    density: np.ndarray
    mean: float
    sd: float
    q025: float
    q50: float
    q975: float


@dataclass(eq=False)
class IntegrationGrid:
    """Retained hyperparameter support points in internal scale.

    thetas holds one internal-scale point per row; weights are normalized
    to sum to one. axes maps standardized steps to internal offsets
    (lambda = mode + axes @ z); with dz it sets the kernel widths of
    hyper_marginal, and scales says which entries it maps through exp.
    truncated flags a walk stopped by the point cap; skipped counts lattice
    points dropped because their latent solve raised NumericError. solves
    and newton_iters count the latent solves of the mode search and the
    walk, one per hyperparameter point, and the Newton iterations of those
    that succeeded.
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
    solves: int = 0
    newton_iters: int = 0
    latent_mean: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    latent_sd: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    @property
    def size(self) -> int:
        return int(self.thetas.shape[0])


def log_hyperposterior(model: JointModel, theta, internal: bool = False) -> float:
    """Laplace-approximate log posterior of the hyperparameters, up to a constant.

    Computes joint density at the conditional latent mode minus the
    Gaussian approximation's own value there, which reduces to adding half
    the log determinant correction. With internal=True the input is in
    internal scale (log precisions) and the change-of-variables term is
    included.
    """
    lp, _ = _lp_and_approx(model, theta, internal=internal)
    return lp


def _laplace_lp(layout, theta, theta_nat, internal, log_density_at_mode, log_det, dim) -> float:
    """log p(theta | y) up to a constant, from one latent solve's results."""
    # log_density_at_mode is the solve's own conditional evaluated at its
    # mode, so adding the prior gives joint_log_density without assembling
    # the conditional a second time
    lp = (
        log_density_at_mode
        + layout.log_prior(theta_nat)
        - 0.5 * log_det
        + 0.5 * dim * LOG_2PI
    )
    if internal:
        lp += layout.internal_log_jacobian(theta)
    return float(lp)


def _lp_and_approx(model, theta, internal=False, init=None):
    layout = model.theta
    theta = np.asarray(theta, dtype=float)
    theta_nat = layout.to_natural(theta) if internal else layout.validate(theta)
    approx = latent_gaussian_approx(model, theta_nat, init=init)
    lp = _laplace_lp(layout, theta, theta_nat, internal, approx.log_density_at_mode,
                     approx.log_det_precision, approx.dim)
    return lp, approx


@dataclass
class _Tally:
    """Latent solves (one per hyperparameter point) and the Newton
    iterations of those that succeeded."""

    solves: int = 0
    newton_iters: int = 0


def _lp_batches(model: JointModel, lams: np.ndarray, init, tally: _Tally):
    """Laplace log posteriors at the internal-scale rows of lams, in batches.

    Yields (rows, lp, batch) per batched solve: lp[i] belongs to row
    rows[i] of lams and is -inf where its solve failed; rows that are not
    finite are not solved. Every solve starts from init.
    """
    layout = model.theta
    finite = np.flatnonzero(np.isfinite(lams).all(axis=1))
    naturals = np.array([layout.to_natural(lam) for lam in lams[finite]]).reshape(finite.size, layout.dim)
    start = 0
    for batch in latent_gaussian_batches(model, naturals, init):
        rows = finite[start:start + batch.size]
        lp = np.full(batch.size, -np.inf)
        for i, err in enumerate(batch.error):
            if err is None:
                lp[i] = _laplace_lp(layout, lams[rows[i]], naturals[start + i], True,
                                    batch.log_density_at_mode[i], batch.log_det_precision[i],
                                    batch.dim)
                tally.newton_iters += int(batch.converged_in[i])
        tally.solves += batch.size
        yield rows, lp, batch
        start += batch.size


def _lp_values(model: JointModel, lams: np.ndarray, init, tally: _Tally) -> np.ndarray:
    """Laplace log posteriors at the internal-scale rows of lams (-inf where unavailable)."""
    out = np.full(lams.shape[0], -np.inf)
    for rows, lp, _ in _lp_batches(model, lams, init, tally):
        out[rows] = lp
    return out


def _fd_derivatives(fn: Callable, lam: np.ndarray, f0: float, h: float):
    """Central finite-difference gradient and symmetrized Hessian at lam.

    fn maps a K x m array of points to their K values, and is called once
    on the whole stencil. f0 = fn(lam) comes from the caller and the
    gradient reuses the Hessian's on-axis points, so one stencil costs
    2 m^2 evaluations. In the mode search fn warm-starts every stencil
    point from the latent mode at the centre, so the derivatives do not
    depend on the order or the batching of the stencil's solves.
    """
    m = lam.size
    step = h * np.eye(m)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    points = [lam + s * step[i] for i in range(m) for s in (1.0, -1.0)]
    for i, j in pairs:
        points += [lam + step[i] + step[j], lam + step[i] - step[j],
                   lam - step[i] + step[j], lam - step[i] - step[j]]
    vals = fn(np.array(points).reshape(-1, m))
    fp, fm = vals[0:2 * m:2], vals[1:2 * m:2]
    g = (fp - fm) / (2.0 * h)
    H = np.empty((m, m))
    H[np.diag_indices(m)] = (fp - 2.0 * f0 + fm) / (h * h)
    for k, (i, j) in enumerate(pairs):
        fpp, fpm, fmp, fmm = vals[2 * m + 4 * k:2 * m + 4 * k + 4]
        H[i, j] = H[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    return g, H


def _find_hyper_mode(model: JointModel, tally: Optional[_Tally] = None):
    """Damped Newton ascent on finite-difference derivatives, in internal scale.

    Solves the prior-based start point from a zero latent field; a failure
    there raises NumericError naming the start point. With no free
    hyperparameters that point is the mode, with a 0 x 0 curvature.
    Otherwise each step backtracks until the log posterior rises, and once
    the squared Newton decrement falls below MODE_STEP_TOL, for plain and
    copy-augmented models alike, it takes that last short step without a
    further stencil and stops. Every solve of a stencil or of the line
    search starts from the latent mode at the current point, so each
    stencil is one batch. Returns (mode, curvature, lp_at_mode,
    approx_at_mode), where curvature is the negative finite-difference
    Hessian of the internal-scale log posterior at the mode (from the last
    iteration's stencil) and approx_at_mode is the latent solve there.
    tally, when given, counts the solves.
    """
    layout = model.theta
    m = layout.dim
    tally = _Tally() if tally is None else tally

    def lp_one(lam, init):
        """(lp, latent solve) at lam, or (-inf, None) where it cannot be evaluated."""
        if not np.all(np.isfinite(lam)):
            return -np.inf, None
        tally.solves += 1
        try:
            val, approx = _lp_and_approx(model, lam, internal=True, init=init)
        except NumericError:
            return -np.inf, None
        tally.newton_iters += approx.converged_in
        return val, approx

    lam = np.asarray(layout.to_internal(layout.init_natural()), dtype=float)
    tally.solves += 1
    try:
        f_here, here = _lp_and_approx(model, lam, internal=True)
    except NumericError as exc:
        raise NumericError("latent solve at the hyperparameter mode search's start point "
                           "failed: %s" % exc) from exc
    tally.newton_iters += here.converged_in
    if m == 0:
        return lam, np.zeros((0, 0)), f_here, here
    # every iteration takes its derivatives at lam first, so (g, C) belong
    # to the returned point, or to one a final short step away
    for it in range(MAX_MODE_ITER + 1):
        g, H = _fd_derivatives(lambda lams: _lp_values(model, lams, here.mode, tally),
                               lam, f_here, FD_STEP)
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
        if decrement_sq < MODE_STEP_TOL:
            # the step left is too short to need confirming by another
            # stencil: take it if it does not lower the log posterior, and
            # keep this stencil's (g, C), taken that close to the mode
            cand = lam + step
            f_cand, at_cand = lp_one(cand, here.mode)
            if np.isfinite(f_cand) and f_cand >= f_here:
                lam, f_here, here = cand, f_cand, at_cand
            break
        if float(np.max(np.abs(step))) > 1.0:
            step = step / float(np.max(np.abs(step)))
        t = 1.0
        for _ in range(20):
            cand = lam + t * step
            f_cand, at_cand = lp_one(cand, here.mode)
            if np.isfinite(f_cand) and f_cand > f_here:
                lam, f_here, here = cand, f_cand, at_cand
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
    return lam, C, f_here, here


def _explore_lattice(
    lp_fn: Callable,
    mode: np.ndarray,
    curvature: np.ndarray,
    lp0: float,
    dz: float,
    diff_logdens: float,
    cap: int = GRID_POINT_CAP,
):
    """Breadth-first walk on the standardized lattice around the mode.

    lp_fn(keys, points) maps K lattice keys and their K x m internal-scale
    points to the K log posteriors, -inf where one cannot be evaluated;
    lp0 is the value at the origin, the mode, which is not evaluated
    again. With m = 0 the lattice is its origin alone. The walk is level
    synchronous: each breadth-first shell's new neighbours are evaluated,
    in first-in-first-out order, in one lp_fn call. The retention rule and
    the cap are then applied in that same order, so the result is the walk
    that evaluates one point at a time: a point is retained when its value
    is within diff_logdens of the origin's, and the walk stops when the cap
    is reached. Returns the sorted lattice keys, their points, log
    posteriors, the standardizing axes matrix, and whether the cap
    truncated the walk.
    """
    m = mode.size
    evals, vecs = np.linalg.eigh(np.asarray(curvature, dtype=float))
    if np.any(evals <= 0.0):
        raise NumericError(
            "curvature at the hyperparameter mode is not positive definite"
        )
    axes = vecs @ np.diag(1.0 / np.sqrt(evals))

    def points(keys):
        # one key at a time, so a key's point has the same bits in any call
        return np.array([mode + axes @ (dz * np.asarray(k, dtype=float)) for k in keys]).reshape(len(keys), m)

    origin = (0,) * m
    if not np.isfinite(lp0):
        raise NumericError("log posterior is not finite at the hyperparameter mode")
    retained = {origin: lp0}
    visited = {origin}
    shell = [origin]
    truncated = False
    while shell and not truncated:
        # every (base, axis, sign) slot of the shell in walk order, and the
        # keys it visits for the first time
        slots = [base[:j] + (base[j] + sign,) + base[j + 1:]
                 for base in shell for j in range(m) for sign in (1, -1)]
        new = []
        for key in slots:
            if key not in visited:
                visited.add(key)
                new.append(key)
        vals = dict(zip(new, lp_fn(new, points(new)))) if new else {}
        shell = []
        for key in slots:
            if len(retained) >= cap:
                truncated = True
                break
            val = vals.pop(key, None)
            if val is not None and np.isfinite(val) and val >= lp0 - diff_logdens:
                retained[key] = float(val)
                shell.append(key)

    keys = sorted(retained)
    log_post = np.array([retained[k] for k in keys])
    # the walk is anchored at the searched mode; re-filter against the true
    # maximum so the retention invariant holds even if a neighbor edges it out
    top = float(np.max(log_post))
    keep = log_post >= top - diff_logdens
    keys = [k for k, ok in zip(keys, keep) if ok]
    log_post = log_post[keep]
    thetas = points(keys)
    return keys, thetas, log_post, axes, truncated


def explore_grid(
    model: JointModel,
    dz: float = DEFAULT_DZ,
    diff_logdens: float = DEFAULT_DIFF_LOGDENS,
    cap: int = GRID_POINT_CAP,
) -> IntegrationGrid:
    """Locate the hyperparameter mode and build the weighted support grid.

    Walks outward in steps of dz along curvature-standardized axes,
    retaining points within diff_logdens of the mode. Weights are the
    normalized posterior densities (equal lattice volumes cancel). The walk
    stops at cap points and flags the grid truncated; points whose latent
    solve fails are dropped and counted as skipped. Every latent solve of
    the walk starts from the latent mode at the hyperparameter mode, and a
    point's solve does not depend on the batch (or the size of the batches)
    it is solved in, so the grid depends on neither the walk order nor the
    batching; each retained point keeps its latent mode and marginal
    standard deviations for latent_marginals. The lattice origin is the
    mode search's result for every model, so its value and moments come
    from the mode search's solve there; a model with no free
    hyperparameters has that one point and no walk.
    """
    if not (math.isfinite(dz) and dz > 0.0):
        raise SpecError("dz must be finite and positive, got %g" % dz)
    if not (math.isfinite(diff_logdens) and diff_logdens > 0.0):
        raise SpecError("diff_logdens must be finite and positive, got %g" % diff_logdens)
    layout = model.theta
    tally = _Tally()
    lam_star, curvature, lp_origin, at_mode = _find_hyper_mode(model, tally)
    moments = {(0,) * layout.dim: (at_mode.mode, at_mode.marginal_sd())}
    skipped = 0

    def lp(keys, lams):
        nonlocal skipped
        out = np.full(lams.shape[0], -np.inf)
        for rows, vals, batch in _lp_batches(model, lams, at_mode.mode, tally):
            out[rows] = vals
            skipped += sum(err is not None for err in batch.error)
            # the walk's own retention rule, so only retained points pay for
            # the marginal standard deviations
            kept = np.flatnonzero(vals >= lp_origin - diff_logdens)
            if kept.size:
                for i, sd in zip(kept, batch.marginal_sd(kept)):
                    moments[keys[rows[i]]] = (batch.mode[i], sd)
        return out

    keys, thetas, log_post, axes, truncated = _explore_lattice(
        lp, lam_star, curvature, lp_origin, dz, diff_logdens, cap=cap
    )
    latent = [moments[k] for k in keys]
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
        solves=tally.solves,
        newton_iters=tally.newton_iters,
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


def _mixture_density(at: np.ndarray, means: np.ndarray, sds, weights: np.ndarray) -> np.ndarray:
    """sum_k weights_k N(at; means_k, sds_k**2) at each point of at.

    sds and weights are each one value per component or one for all. The
    K x len(at) kernel values live in one buffer, updated in place.
    """
    sds = np.broadcast_to(np.asarray(sds, dtype=float), means.shape)
    kernel = np.subtract.outer(means, at)
    kernel /= sds[:, None]
    np.square(kernel, out=kernel)
    kernel *= -0.5
    np.exp(kernel, out=kernel)
    return (weights / sds) @ kernel / SQRT_2PI


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
    return marginal_from_grid(values, _mixture_density(values, means, sds, weights))


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


def hyper_marginal(grid: IntegrationGrid, j: int) -> PosteriorMarginal:
    """Posterior marginal of hyperparameter j in natural scale.

    A Gaussian mixture over the retained lattice points in internal
    coordinate lambda_j, with the grid weights (West 1993's shrunk kernel
    mixture). The kernel sd is h = HYPER_KERNEL_FACTOR * dz * sigma_j /
    sqrt(m), where sigma_j**2 = (axes axes')_jj is the variance along
    lambda_j of one standardized step. Each point lambda_jk contributes
    N(mu + c (lambda_jk - mu), h**2), with mu and V the lattice's weighted
    mean and variance of lambda_j and c = sqrt(max(0, 1 - h**2 / V)), so
    the mixture keeps mu exactly, and V whenever V >= h**2; a one-point
    lattice gives N(mu, h**2). The density is evaluated at 75 evenly
    spaced natural-scale values spanning mu plus/minus five mixture sds in
    lambda_j, whose ends are mapped through exp for a log-scale entry,
    with the change-of-variables Jacobian.
    """
    if grid.size == 0:
        raise SpecError("integration grid is empty")
    m = grid.thetas.shape[1]
    if not 0 <= j < m:
        raise SpecError("hyperparameter index %d out of range for %d" % (j, m))
    lam = grid.thetas[:, j]
    w = grid.weights
    mu = float(w @ lam)
    var = float(w @ np.square(lam - mu))
    h = HYPER_KERNEL_FACTOR * grid.dz * math.sqrt(float(grid.axes[j] @ grid.axes[j]) / m)
    shrink = math.sqrt(max(0.0, 1.0 - h * h / var)) if var > 0.0 else 0.0
    sd = math.sqrt(shrink * shrink * var + h * h)
    lo, hi = mu - MARGINAL_SPAN_SD * sd, mu + MARGINAL_SPAN_SD * sd
    means = mu + shrink * (lam - mu)
    if grid.scales[j] == "log":
        values = np.linspace(math.exp(lo), math.exp(hi), MARGINAL_GRID_SIZE)
        density = _mixture_density(np.log(values), means, h, w) / values
    else:
        values = np.linspace(lo, hi, MARGINAL_GRID_SIZE)
        density = _mixture_density(values, means, h, w)
    return marginal_from_grid(values, density)
