"""Dense Gaussian numerics for the latent field given hyperparameters.

Newton mode finding with step halving for the conditional latent density,
Cholesky-based log determinants and densities, and the closed-form
posterior for models whose likelihood blocks are all Gaussian (where the
Newton result is exact after a single step).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import linalg

from . import families
from .errors import NumericError, SpecError
from .model import Conditional, JointModel, assemble_conditional
from .priors import LOG_2PI

__all__ = [
    "GaussianApprox",
    "gaussian_logpdf",
    "latent_gaussian_approx",
    "exact_linear_gaussian_posterior",
    "NEWTON_TOL",
    "MAX_NEWTON_ITER",
]

NEWTON_TOL = 1.0e-8
MAX_NEWTON_ITER = 100
RIDGE = 1.0e-8
MAX_HALVINGS = 60
_EPS = float(np.finfo(float).eps)


def gaussian_logpdf(x, mean, precision_chol) -> float:
    """Multivariate normal log density in the precision parameterization.

    precision_chol is the lower-triangular factor L with Q = L L'.
    """
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    L = np.asarray(precision_chol, dtype=float)
    d = x.size
    if mean.size != d or L.shape != (d, d):
        raise SpecError(
            "dimension mismatch: x has %d entries, mean %d, factor %r"
            % (d, mean.size, L.shape)
        )
    t = L.T @ (x - mean)
    log_det = 2.0 * float(np.sum(np.log(np.diag(L))))
    return -0.5 * d * LOG_2PI + 0.5 * log_det - 0.5 * float(t @ t)


@dataclass(eq=False)
class GaussianApprox:
    """Gaussian approximation (or exact posterior) of the latent field."""

    mode: np.ndarray
    precision_chol: np.ndarray
    log_det_precision: float
    converged_in: int
    log_density_at_mode: float

    @property
    def dim(self) -> int:
        return int(self.mode.size)

    def marginal_sd(self, indices=None) -> np.ndarray:
        """Marginal posterior standard deviations from the inverse factor.

        With Q = L L', var_k = || L^{-1} e_k ||^2, the squared norm of
        column k of L^{-1}. The inverse is taken with numpy, like the
        Cholesky factor, because scipy loads a separate OpenBLAS whose
        thread pool competes with numpy's when both run multithreaded.
        """
        inv = np.linalg.inv(self.precision_chol)
        sd = np.sqrt(np.sum(inv * inv, axis=0))
        if indices is None:
            return sd
        return sd[np.atleast_1d(np.asarray(indices, dtype=int))]

    def logpdf(self, x) -> float:
        return gaussian_logpdf(x, self.mode, self.precision_chol)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> np.ndarray:
        d = self.dim
        z = rng.standard_normal(size=(d,) if size is None else (d, size))
        shift = linalg.solve_triangular(self.precision_chol, z, lower=True, trans="T")
        if size is None:
            return self.mode + shift
        return self.mode[:, None] + shift


def _chol_with_ridge(H: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        pass
    ridged = H + RIDGE * np.eye(H.shape[0])
    try:
        return np.linalg.cholesky(ridged)
    except np.linalg.LinAlgError:
        raise NumericError("conditional precision is not positive definite")


def _from_factor(mode: np.ndarray, L: np.ndarray, steps: int, f: float) -> GaussianApprox:
    return GaussianApprox(
        mode=mode,
        precision_chol=L,
        log_det_precision=2.0 * float(np.sum(np.log(np.diag(L)))),
        converged_in=steps,
        log_density_at_mode=f,
    )


def _grad_hess(cond: Conditional, v: np.ndarray):
    # Gaussian-row gradient in residual form: forming tau * (obs - eta) row
    # by row keeps the stiff copy rows accurate near the mode, where the
    # expanded normal-equation form loses all signal to cancellation.
    eta = cond.A @ v + cond.offset
    rows = cond.gauss_rows
    wres = np.zeros(eta.size)
    wres[rows] = cond.gprec[rows] * (cond.obs[rows] - eta[rows])
    g = cond.A.T @ wres + cond.bp - cond.Qp @ v
    H = cond.gauss_hess + cond.Qp
    if cond.trials_ng is not None:
        rows = cond.reg_slice
        s, W = families.score_weight(cond.family, cond.obs[rows], cond.trials_ng, eta[rows])
        g = g + cond.A[rows].T @ s
        H = H + (cond.A[rows] * W[:, None]).T @ cond.A[rows]
    return g, H


def _newton(cond: Conditional, init: Optional[np.ndarray]) -> GaussianApprox:
    d = cond.dim
    v = np.zeros(d) if init is None else np.array(init, dtype=float)
    if v.shape != (d,):
        raise SpecError("initial latent vector has shape %r, expected (%d,)" % (v.shape, d))
    f = cond.log_density(v)
    if not np.isfinite(f):
        v = np.zeros(d)
        f = cond.log_density(v)
    steps = 0
    for _ in range(MAX_NEWTON_ITER):
        g, H = _grad_hess(cond, v)
        # The gradient of a quadratic with curvature h can only be computed
        # to about eps * h * |v| in floating point, so stiff coordinates
        # (e.g. the 1e9 copy coupling) get a curvature-scaled floor; mode
        # displacement along them at that floor is O(eps * |v|).
        tol = np.maximum(NEWTON_TOL, 16.0 * _EPS * np.diag(H) * (1.0 + float(np.max(np.abs(v)))))
        if np.all(np.abs(g) <= tol):
            return _from_factor(v, _chol_with_ridge(H), steps, f)
        L = _chol_with_ridge(H)
        step = linalg.cho_solve((L, True), g)
        decrement_sq = float(g @ step)
        if decrement_sq <= 64.0 * _EPS * (1.0 + abs(f)):
            # the predicted gain from this step is below the roundoff floor
            # of the objective, so no line search can certify progress (this
            # happens when a warm start lands inside the resolution basin of
            # the mode); the full step still sharpens the mode estimate, so
            # take it when it keeps f flat and finish
            v_new = v + step
            f_new = cond.log_density(v_new)
            if np.isfinite(f_new) and f_new >= f - 1.0e-10 * (1.0 + abs(f)):
                v, f = v_new, f_new
                steps += 1
                _, H = _grad_hess(cond, v)
                L = _chol_with_ridge(H)
            return _from_factor(v, L, steps, f)
        # accept steps that keep f flat to within roundoff, not only strict
        # ascents: near the mode the objective is quadratic in a step below
        # sqrt(eps), so demanding f_new >= f exactly would damp the step to
        # nothing and strand the gradient just above its tolerance
        slack = 4.0 * _EPS * (1.0 + abs(f))
        t = 1.0
        for _ in range(MAX_HALVINGS):
            v_new = v + t * step
            f_new = cond.log_density(v_new)
            if np.isfinite(f_new) and f_new >= f - slack:
                break
            t *= 0.5
        else:
            if not (np.isfinite(f_new) and f_new >= f - 1.0e-10 * (1.0 + abs(f))):
                raise NumericError("Newton line search failed to improve the objective")
        v, f = v_new, f_new
        steps += 1
    raise NumericError("Newton did not converge within %d iterations" % MAX_NEWTON_ITER)


def latent_gaussian_approx(model: JointModel, theta, init: Optional[np.ndarray] = None) -> GaussianApprox:
    """Mode and curvature of log p(v | y, theta) by Newton with step halving.

    For models whose likelihood blocks are all Gaussian the objective is an
    exact quadratic and the first Newton step lands on the mode.
    """
    cond = assemble_conditional(model, theta)
    return _newton(cond, init)


def exact_linear_gaussian_posterior(model: JointModel, theta) -> GaussianApprox:
    """Closed-form latent posterior when every likelihood block is Gaussian."""
    if model.family != "gaussian":
        raise SpecError("exact posterior requires a gaussian outcome family, got %r" % model.family)
    cond = assemble_conditional(model, theta)
    Q = cond.Qp + cond.gauss_hess
    b = cond.bp + cond.gauss_rhs
    L = _chol_with_ridge(Q)
    mean = linalg.cho_solve((L, True), b)
    return _from_factor(mean, L, 0, cond.log_density(mean))
