"""Closed-form conditionals, attenuation analytics, and naive GLM fitting.

These are the analytic building blocks for the two error laws: the
classical-error conditional of the true exposure given its proxy, the
Berkson conditional of the scaled exposure, the marginal law of the proxy,
the attenuation factor for naive linear regression, and a plain IRLS fit
that uses the proxy in place of the true covariate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import families
from .errors import DataError, NumericError, SpecError

__all__ = [
    "DiagonalGaussian",
    "NaiveFit",
    "mec_conditional",
    "mec_marginal_w",
    "mec_scaled_conditional",
    "meb_conditional",
    "attenuation_factor",
    "naive_glm_fit",
]

IRLS_TOL = 1.0e-10
IRLS_MAX_ITER = 100
ETA_CLAMP = 30.0
WEIGHT_FLOOR = 1.0e-10


@dataclass(frozen=True)
class DiagonalGaussian:
    """Independent Gaussian components, one mean and precision each.

    Every closed-form conditional and marginal here has a diagonal
    precision, so mean and precision_diag fully describe it.
    """

    mean: np.ndarray
    precision_diag: np.ndarray


@dataclass(frozen=True)
class NaiveFit:
    """IRLS estimates for a GLM that plugs the proxy in for the exposure."""

    names: tuple
    coefficients: np.ndarray
    standard_errors: np.ndarray
    deviance: float
    iterations: int

    def coefficient(self, name: str) -> float:
        for n, c in zip(self.names, self.coefficients):
            if n == name:
                return float(c)
        raise SpecError("no fitted coefficient named %r" % (name,))


def _positive_vector(value, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise SpecError("%s must be positive and finite" % name)
    return arr


def _positive_scalar(value, name: str) -> float:
    v = float(value)
    if not np.isfinite(v) or v <= 0.0:
        raise SpecError("%s must be positive and finite, got %g" % (name, v))
    return v


def mec_conditional(w, alpha0, tau_x, tau_u, d) -> DiagonalGaussian:
    """Exposure given proxy under classical error, componentwise.

    mean_i = (tau_x alpha0 + tau_u d_i w_i) / (tau_x + tau_u d_i), a
    precision-weighted convex combination of the exposure center and the
    observed proxy; precision_i = tau_x + tau_u d_i.
    """
    tau_x = _positive_scalar(tau_x, "tau_x")
    tau_u = _positive_scalar(tau_u, "tau_u")
    d = _positive_vector(d, "replicate weights d")
    w = np.atleast_1d(np.asarray(w, dtype=float))
    w, d = np.broadcast_arrays(w, d)
    precision = tau_x + tau_u * d
    mean = (tau_x * float(alpha0) + tau_u * d * w) / precision
    return DiagonalGaussian(mean=mean, precision_diag=precision)


def mec_marginal_w(alpha0, tau_x, tau_u, d) -> DiagonalGaussian:
    """Marginal law of the proxy under classical error.

    The proxy variance stacks both noise sources:
    var(w_i) = 1/tau_x + 1/(tau_u d_i).
    """
    tau_x = _positive_scalar(tau_x, "tau_x")
    tau_u = _positive_scalar(tau_u, "tau_u")
    d = _positive_vector(d, "replicate weights d")
    precision = 1.0 / (1.0 / (tau_u * d) + 1.0 / tau_x)
    mean = np.full(d.shape, float(alpha0))
    return DiagonalGaussian(mean=mean, precision_diag=precision)


def mec_scaled_conditional(w, alpha0, tau_x, tau_u, d, beta_x) -> DiagonalGaussian:
    """Law of the scaled exposure beta_x * x given the proxy, classical error."""
    beta_x = float(beta_x)
    if beta_x == 0.0 or not np.isfinite(beta_x):
        raise SpecError("beta_x must be nonzero and finite, got %g" % beta_x)
    base = mec_conditional(w, alpha0, tau_x, tau_u, d)
    return DiagonalGaussian(
        mean=beta_x * base.mean,
        precision_diag=base.precision_diag / (beta_x * beta_x),
    )


def meb_conditional(w, tau_u, d, beta_x) -> DiagonalGaussian:
    """Law of the scaled exposure beta_x * x given the proxy, Berkson error.

    Under Berkson error the exposure scatters around the proxy, so the
    scaled exposure is centered at beta_x * w with precision tau_u d / beta_x^2.
    """
    beta_x = float(beta_x)
    if beta_x == 0.0 or not np.isfinite(beta_x):
        raise SpecError("beta_x must be nonzero and finite, got %g" % beta_x)
    tau_u = _positive_scalar(tau_u, "tau_u")
    d = _positive_vector(d, "replicate weights d")
    w = np.atleast_1d(np.asarray(w, dtype=float))
    w, d = np.broadcast_arrays(w, d)
    return DiagonalGaussian(
        mean=beta_x * w, precision_diag=tau_u * d / (beta_x * beta_x)
    )


def attenuation_factor(tau_x, tau_u) -> float:
    """Expected shrinkage of the naive simple-regression slope.

    Under homoscedastic classical error the naive slope estimates
    lambda * beta_x with lambda = tau_u / (tau_u + tau_x).
    """
    tau_x = _positive_scalar(tau_x, "tau_x")
    tau_u = _positive_scalar(tau_u, "tau_u")
    return tau_u / (tau_u + tau_x)


def naive_glm_fit(y, w, z=None, family: str = "gaussian", trials=None) -> NaiveFit:
    """GLM fit by IRLS with the proxy standing in for the exposure.

    The design is (intercept, w, z columns). Iteration stops when the
    deviance changes by less than 1e-10; hitting the iteration cap reports
    divergence, which is the observable failure mode of separated data.
    """
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    n = y.size
    trials = np.ones(n) if trials is None else np.asarray(trials, dtype=float)
    z = np.zeros((n, 0)) if z is None else np.asarray(z, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    for name, arr in (("w", w), ("trials", trials)):
        if arr.shape != y.shape:
            raise DataError("%s has shape %r but the response has %r" % (name, arr.shape, y.shape))
    if z.shape[0] != n:
        raise DataError("z has %d rows but the response has %d" % (z.shape[0], n))
    for name, arr in (("y", y), ("w", w), ("z", z), ("trials", trials)):
        if not np.all(np.isfinite(arr)):
            raise DataError("%s holds non-finite values" % name)
    cols = [np.ones(n), w]
    names = ["beta_0", "beta_x"]
    for j in range(z.shape[1]):
        cols.append(z[:, j])
        names.append("beta_z%d" % (j + 1,))
    X = np.column_stack(cols)
    p = X.shape[1]
    if np.linalg.matrix_rank(X) < p:
        raise DataError("design matrix for the naive fit is rank deficient")
    families.check_response(family, y, trials)

    if family == "gaussian":
        coef, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
        resid = y - X @ coef
        dev = float(resid @ resid)
        scale = dev / max(n - p, 1)
        cov = scale * np.linalg.inv(X.T @ X)
        return NaiveFit(
            names=tuple(names),
            coefficients=coef,
            standard_errors=np.sqrt(np.diag(cov)),
            deviance=dev,
            iterations=1,
        )

    coef = np.zeros(p)
    dev = step = None
    for it in range(IRLS_MAX_ITER + 1):
        eta = X @ coef
        # fitting policy: eta is clamped so a wild intermediate step cannot
        # overflow, and the weights are floored so the working response stays
        # finite where a fitted probability saturates
        eta_c = np.clip(eta, -ETA_CLAMP, ETA_CLAMP)
        score, weight = families.score_weight(family, y, trials, eta_c)
        weight = np.maximum(weight, WEIGHT_FLOOR)
        dev_new = families.deviance(family, y, trials, eta_c)
        XtW = X.T * weight
        # separated binary data drives the deviance flat at zero while the
        # coefficients keep marching outward, so convergence requires a
        # stable deviance and stable coefficients together
        stable = it > 0 and step <= 1.0e-6 * (1.0 + float(np.max(np.abs(coef))))
        if stable and abs(dev_new - dev) < IRLS_TOL:
            return NaiveFit(
                names=tuple(names),
                coefficients=coef,
                standard_errors=np.sqrt(np.diag(np.linalg.inv(XtW @ X))),
                deviance=dev_new,
                iterations=it,
            )
        if it == IRLS_MAX_ITER:
            break
        dev = dev_new
        working = eta + score / weight
        try:
            new_coef = np.linalg.solve(XtW @ X, XtW @ working)
        except np.linalg.LinAlgError as exc:
            raise NumericError("naive IRLS produced a singular system: %s" % exc)
        if not np.all(np.isfinite(new_coef)):
            raise NumericError("naive IRLS diverged to non-finite coefficients")
        step = float(np.max(np.abs(new_coef - coef)))
        coef = new_coef
    raise NumericError(
        "naive IRLS did not converge in %d iterations; "
        "the likelihood may be unbounded (e.g. separated binary data)" % IRLS_MAX_ITER
    )
