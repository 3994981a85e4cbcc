"""The non-Gaussian outcome families: binomial (logit link) and Poisson (log link).

The one definition of each family that the grid engine, the sampler and the
naive fit read. Both links are canonical, so a family is described by its
log-likelihood in the linear predictor eta, the score y - mu and the
curvature weight W = -d2 loglik / d eta2, which is also the IRLS working
weight (Nelder & Wedderburn 1972). Every function takes the response y and
the binomial trials (ignored by the Poisson) row by row with eta.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import DataError, SpecError

__all__ = [
    "FAMILIES",
    "check_response",
    "loglik",
    "log_normalizer",
    "score_weight",
    "deviance",
    "load_deferred",
]

FAMILIES = ("gaussian", "binomial", "poisson")


@functools.cache
def _special():
    """scipy.special, imported on the first call rather than by `import meglm`.

    Cached, so the Newton loops calling `score_weight` run no import
    statement after the first.
    """
    import scipy.special

    return scipy.special


def load_deferred(family: str) -> None:
    """Make the import this module defers for the family's likelihood
    (scipy.special, for the binomial and the Poisson), so that a timer
    started afterwards measures the fit alone."""
    if family != "gaussian":
        _special()


def _unknown(family: str) -> SpecError:
    return SpecError("no non-gaussian likelihood for family %r" % (family,))


def _poisson_mean(eta: np.ndarray) -> np.ndarray:
    # a far-off trial point may overflow to inf; callers treat the resulting
    # -inf log density as a rejected step
    with np.errstate(over="ignore"):
        return np.exp(eta)


def check_response(family: str, y: np.ndarray, trials: np.ndarray) -> None:
    """Raise DataError unless y holds counts: integers in [0, trials] for the
    binomial, whose trials must be nonnegative integers too, and nonnegative
    integers for the Poisson (any y for the gaussian)."""
    if family == "gaussian":
        return
    bad = ~np.isfinite(y) | (y < 0) | (y != np.round(y))
    if family == "binomial":
        if np.any(~np.isfinite(trials) | (trials < 0) | (trials != np.round(trials))):
            raise DataError("binomial trials must be nonnegative integers")
        if np.any(bad | (y > trials)):
            raise DataError("binomial response must be integer counts within trials")
        return
    if family == "poisson":
        if np.any(bad):
            raise DataError("poisson response must be nonnegative integer counts")
        return
    raise _unknown(family)


def loglik(family: str, y: np.ndarray, trials: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Per-row log-likelihood terms up to the constant `log_normalizer` adds."""
    if family == "binomial":
        return y * eta - trials * np.logaddexp(0.0, eta)
    if family == "poisson":
        return y * eta - _poisson_mean(eta)
    raise _unknown(family)


def log_normalizer(family: str, y: np.ndarray, trials: np.ndarray) -> float:
    """Summed eta-free constant: log C(trials, y) (binomial) or -log y! (Poisson)."""
    gammaln = _special().gammaln
    if family == "binomial":
        return float(np.sum(gammaln(trials + 1.0) - gammaln(y + 1.0) - gammaln(trials - y + 1.0)))
    if family == "poisson":
        return float(-np.sum(gammaln(y + 1.0)))
    raise _unknown(family)


def score_weight(family: str, y: np.ndarray, trials: np.ndarray, eta: np.ndarray):
    """Score s = d loglik / d eta and curvature weight W = -d2 loglik / d eta2."""
    if family == "binomial":
        p = _special().expit(eta)
        mu = trials * p
        return y - mu, mu * (1.0 - p)
    if family == "poisson":
        mu = _poisson_mean(eta)
        return y - mu, mu
    raise _unknown(family)


def deviance(family: str, y: np.ndarray, trials: np.ndarray, eta: np.ndarray) -> float:
    """Twice the log-likelihood of the saturated model minus that at eta."""
    xlogy = _special().xlogy
    if family == "binomial":
        mu = trials * _special().expit(eta)
        return 2.0 * float(
            np.sum(xlogy(y, y) - xlogy(y, mu) + xlogy(trials - y, trials - y)
                   - xlogy(trials - y, trials - mu))
        )
    if family == "poisson":
        mu = _poisson_mean(eta)
        return 2.0 * float(np.sum(xlogy(y, y) - xlogy(y, mu) - (y - mu)))
    raise _unknown(family)
