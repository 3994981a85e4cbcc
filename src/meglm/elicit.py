"""Turn interpretable prior statements into distribution parameters.

The helpers here convert what a practitioner can state (quantile bounds,
plausible ranges, bias intervals) into the Gamma / log-normal / precision
parameters the models consume.

Implemented operations
----------------------
- gamma_from_quantiles: fit Gamma(shape, rate) to two quantile targets.
- lognormal_from_quantiles: fit a log-normal to two quantile targets.
- precision_from_uniform_range: precision of a uniform over a stated range.
- berkson_sigma_from_interval: error precision from a +/- interval at a
  stated normal multiplier.
- gamma_from_mean_equal_variance: Gamma with given mean and variance equal
  to that mean.

The Gamma quantile fit finds the shape from the quantile ratio (which is
free of the rate), then scales the rate to the lower target. The
regularized incomplete gamma function, its inverse and the normal quantile
come from scipy.special (gammainc, gammaincinv, ndtri), and the root from
scipy.optimize; each function imports what it uses, so `import meglm` does
not load them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericError, SpecError

__all__ = [
    "GammaFit",
    "LogNormalFit",
    "gamma_from_quantiles",
    "lognormal_from_quantiles",
    "precision_from_uniform_range",
    "berkson_sigma_from_interval",
    "gamma_from_mean_equal_variance",
    "regularized_gamma_p",
]

# Root bracket on the shape.
_SHAPE_LO = 1e-3
_SHAPE_HI = 1e3
_PROB_TOL = 1e-8


@dataclass(frozen=True)
class GammaFit:
    shape: float
    rate: float

    @property
    def mean(self) -> float:
        return self.shape / self.rate


@dataclass(frozen=True)
class LogNormalFit:
    mu: float
    sigma: float

    @property
    def sigma2(self) -> float:
        return self.sigma * self.sigma


def regularized_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for a > 0, x >= 0."""
    if not a > 0.0:
        raise SpecError("shape must be > 0")
    if not x >= 0.0:
        raise SpecError("argument must be >= 0")
    from scipy.special import gammainc

    return float(gammainc(a, x))


def _check_targets(q_lo: float, q_hi: float, p_lo: float, p_hi: float) -> None:
    if not (0.0 < p_lo < p_hi < 1.0):
        raise SpecError("need 0 < p_lo < p_hi < 1")
    if not (0.0 < q_lo < q_hi and math.isfinite(q_hi)):
        raise SpecError("need 0 < q_lo < q_hi < inf")


def _gamma_log_quantile(p: float, shape: float) -> float:
    """log of the Gamma(shape, 1) quantile, stable for tiny shapes.

    For very small shapes the quantile underflows double precision; there
    P(a, x) ~= x^a / Gamma(a+1), so log Q = (log p + lgamma(a+1)) / a.
    """
    approx = (math.log(p) + math.lgamma(shape + 1.0)) / shape
    if approx < -650.0:
        return approx
    from scipy.special import gammaincinv

    return math.log(float(gammaincinv(shape, p)))


def gamma_from_quantiles(
    q_lo: float,
    q_hi: float,
    p_lo: float = 0.025,
    p_hi: float = 0.975,
) -> GammaFit:
    """Gamma(shape, rate) whose p_lo/p_hi quantiles equal q_lo/q_hi.

    The quantile ratio q_hi/q_lo of a Gamma does not depend on the rate and
    decreases monotonically in the shape, so the shape is the root of that
    ratio over [1e-3, 1e3] (Brent's method) and the rate follows by scaling. Raises
    NumericError if the fitted CDF misses either target probability by more
    than 1e-8.
    """
    from scipy.optimize import brentq
    from scipy.special import gammaincinv

    _check_targets(q_lo, q_hi, p_lo, p_hi)
    log_target = math.log(q_hi) - math.log(q_lo)

    def log_ratio(shape: float) -> float:
        return _gamma_log_quantile(p_hi, shape) - _gamma_log_quantile(p_lo, shape)

    r_lo, r_hi = log_ratio(_SHAPE_LO), log_ratio(_SHAPE_HI)
    # the ratio is decreasing in the shape: wide spread needs a small shape.
    if not (r_hi <= log_target <= r_lo):
        raise NumericError(
            "quantile ratio %.6g outside the reachable range [%.6g, %.6g] "
            "for shapes in [%g, %g]"
            % (q_hi / q_lo, math.exp(r_hi), math.exp(min(r_lo, 700.0)), _SHAPE_LO, _SHAPE_HI)
        )
    # solve on the log scale: the shape spans decades
    log_shape = brentq(
        lambda t: log_ratio(math.exp(t)) - log_target,
        math.log(_SHAPE_LO), math.log(_SHAPE_HI), xtol=1e-14,
    )
    shape = math.exp(log_shape)
    rate = float(gammaincinv(shape, p_lo)) / q_lo

    for p, q in ((p_lo, q_lo), (p_hi, q_hi)):
        err = abs(regularized_gamma_p(shape, rate * q) - p)
        if err > _PROB_TOL:
            raise NumericError(
                "gamma quantile fit residual %.3g exceeds %.1g" % (err, _PROB_TOL)
            )
    return GammaFit(shape=shape, rate=rate)


def lognormal_from_quantiles(
    q_lo: float,
    q_hi: float,
    p_lo: float = 0.025,
    p_hi: float = 0.975,
) -> LogNormalFit:
    """Log-normal (mu, sigma) matching two quantile targets exactly.

    On the log scale the two conditions are linear in (mu, sigma); for
    symmetric probabilities this reduces to mu = (ln q_lo + ln q_hi) / 2 and
    sigma = (ln q_hi - ln q_lo) / (2 z).
    """
    from scipy.special import ndtri

    _check_targets(q_lo, q_hi, p_lo, p_hi)
    z_lo = float(ndtri(p_lo))
    z_hi = float(ndtri(p_hi))
    sigma = (math.log(q_hi) - math.log(q_lo)) / (z_hi - z_lo)
    mu = math.log(q_lo) - z_lo * sigma
    return LogNormalFit(mu=mu, sigma=sigma)


def precision_from_uniform_range(width: float) -> float:
    """Precision of a uniform distribution with the given total width.

    A uniform over an interval of width w has variance w^2 / 12, hence
    precision 12 / w^2.
    """
    if not (width > 0.0 and math.isfinite(width)):
        raise SpecError("width must be > 0")
    # divide twice rather than squaring first: the round-off then cancels
    # for decimal widths, e.g. 0.05 -> 4800 exactly
    return 12.0 / width / width


def berkson_sigma_from_interval(half_width: float, z: float = 1.959964) -> float:
    """Error precision implied by 'the truth lies within +/- half_width'.

    Reads the interval as +/- z standard deviations of a normal error, so
    sigma = half_width / z and the returned precision is 1 / sigma^2.
    """
    if not (half_width > 0.0 and math.isfinite(half_width)):
        raise SpecError("half_width must be > 0")
    if not (z > 0.0 and math.isfinite(z)):
        raise SpecError("z must be > 0")
    sigma = half_width / z
    return 1.0 / (sigma * sigma)


def gamma_from_mean_equal_variance(mean: float) -> GammaFit:
    """Gamma with the given mean and variance equal to the mean.

    Mean a/b and variance a/b^2 coincide exactly when b = 1, leaving
    shape = mean.
    """
    if not (mean > 0.0 and math.isfinite(mean)):
        raise SpecError("mean must be > 0")
    return GammaFit(shape=mean, rate=1.0)
