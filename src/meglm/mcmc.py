"""Gibbs/Metropolis sampler used as an independent check on the grid fits.

The sampler treats the slope of the error-prone covariate as an ordinary
regression coefficient (no copy augmentation): each sweep cycles exact
conjugate draws for the precisions and the exposure coefficients, latent
updates for x (exact for Gaussian responses, componentwise random-walk
Metropolis otherwise), a regression-block update (conjugate for Gaussian,
joint random-walk Metropolis otherwise), and the family precision.

The regression coefficients (beta_x among them) and the exposure
coefficients are two blocks of one type, `_Coefficients`, with one
conjugate draw for Gaussian rows: Cholesky-factored once, the one factor
gives both the conditional mean and the draw's noise, through direct
LAPACK triangular solves. Under Berkson error x has no exposure law: the
exposure block has no columns and tau_x is 0, so no update branches on the
error kind.

Proposal scales start from DEFAULT_PROPOSAL_SCALES, adapt by Robbins-Monro
toward a 0.35 acceptance rate and freeze when burn-in ends. The chain
records the model's reported parameters (`JointModel.parameter_names`).
All randomness flows through one counter-based generator (Philox) seeded
explicitly, so chains are reproducible bit for bit.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import families
from .errors import NumericError, SpecError
from .model import Coefficient, JointModel
from .priors import GammaPrior

__all__ = [
    "ChainConfig",
    "ChainOutput",
    "ChainState",
    "tau_x_conditional",
    "tau_u_conditional",
    "alpha_conditional",
    "gibbs_tau_x",
    "gibbs_tau_u",
    "gibbs_alpha",
    "mh_latent_x",
    "mh_beta",
    "run_chain",
    "effective_sample_size",
]

ADAPT_TARGET = 0.35
_ADAPT_OFFSET = 10.0
_LOG_SCALE_BOUND = 20.0
DEFAULT_PROPOSAL_SCALES = {"x": 0.5, "beta": 0.2, "gamma": 0.5}
# fewest draws `effective_sample_size` estimates from
MIN_ESS_DRAWS = 10


@dataclass(frozen=True)
class ChainConfig:
    """Sampler run parameters, the four that `meglm fit` sets; defaults
    follow the reference run lengths."""

    iterations: int = 100_000
    burn_in: int = 10_000
    thin: int = 10
    seed: Optional[int] = None

    def __post_init__(self):
        if self.iterations < 1:
            raise SpecError("iterations must be positive, got %d" % self.iterations)
        if not 0 <= self.burn_in < self.iterations:
            raise SpecError(
                "burn_in must satisfy 0 <= burn_in < iterations, got %d/%d"
                % (self.burn_in, self.iterations)
            )
        if self.thin < 1:
            raise SpecError("thin must be >= 1, got %d" % self.thin)
        if self.kept < 2:
            raise SpecError(
                "the chain keeps too few draws: (iterations %d - burn-in %d) // thin %d = %d; "
                "at least 2 are needed" % (self.iterations, self.burn_in, self.thin, self.kept)
            )
        if self.seed is None:
            raise SpecError("a seed is required: chains must be reproducible")
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= int(self.seed) < 2**64):
            raise SpecError("seed must be a 64-bit unsigned integer, got %r" % (self.seed,))

    @property
    def kept(self) -> int:
        return (self.iterations - self.burn_in) // self.thin


@dataclass
class ChainOutput:
    """Thinned draws plus per-block Metropolis acceptance rates.

    names is the model's table of reported parameters
    (`JointModel.parameter_names`), and column j of draws holds the draws
    of names[j].
    """

    names: tuple
    draws: np.ndarray
    acceptance_rates: dict
    config: ChainConfig

    def column(self, name: str) -> np.ndarray:
        if name not in self.names:
            raise SpecError(
                "no parameter %r in the chain (have: %s)" % (name, ", ".join(self.names))
            )
        return self.draws[:, self.names.index(name)]


@dataclass
class ChainState:
    """Current values of every sampled block."""

    x: np.ndarray
    beta: np.ndarray
    alpha: np.ndarray
    gamma: np.ndarray
    tau_u: float
    tau_x: float = 0.0  # no exposure law under Berkson error
    tau_eps: float = math.nan
    tau_gamma: float = math.nan


# ---------------------------------------------------------------------------
# conjugate conditionals (pure parameter computations)


def _gamma_conditional(prior: GammaPrior, resid: np.ndarray) -> tuple:
    """Gamma(shape, rate) of a precision given its zero-mean Gaussian residuals."""
    return prior.shape + 0.5 * resid.size, prior.rate + 0.5 * float(resid @ resid)


def tau_x_conditional(x: np.ndarray, exposure_mean: np.ndarray, prior: GammaPrior) -> tuple:
    """Gamma(shape, rate) of the exposure precision given x and its mean."""
    resid = np.asarray(x, dtype=float) - np.asarray(exposure_mean, dtype=float)
    return _gamma_conditional(prior, resid)


def tau_u_conditional(
    w: np.ndarray, x_at_w: np.ndarray, weights: np.ndarray, prior: GammaPrior
) -> tuple:
    """Gamma(shape, rate) of the error precision given all proxy residuals.

    Rows cover every replicate measurement; `weights` are the known per-row
    precision factors (all ones in the homoscedastic case). The same form
    serves both error kinds since the residual enters squared.
    """
    w = np.asarray(w, dtype=float)
    resid = w - np.asarray(x_at_w, dtype=float)
    shape = prior.shape + 0.5 * w.size
    rate = prior.rate + 0.5 * float((np.asarray(weights, dtype=float) * resid) @ resid)
    return shape, rate


_ALPHA_BLOCK = "exposure coefficients"
_BETA_BLOCK = "regression coefficients"


def alpha_conditional(
    x: np.ndarray,
    design: np.ndarray,
    tau_x: float,
    prior_mean: np.ndarray,
    prior_precision: np.ndarray,
) -> tuple:
    """Gaussian (mean, precision matrix) of the exposure coefficients."""
    design = np.atleast_2d(np.asarray(design, dtype=float))
    prior_mean = np.asarray(prior_mean, dtype=float)
    prior_precision = np.asarray(prior_precision, dtype=float)
    precision = tau_x * (design.T @ design) + np.diag(prior_precision)
    rhs = tau_x * (design.T @ np.asarray(x, dtype=float)) + prior_precision * prior_mean
    mean, _ = _gaussian_block(precision, rhs, _ALPHA_BLOCK)
    return mean, precision


def _gaussian_block(precision: np.ndarray, rhs: np.ndarray, block: str) -> tuple:
    """Mean and upper Cholesky factor of a Gaussian given in canonical form.

    `precision` is Q and `rhs` is Q @ mean. The factor comes back as the
    upper triangle U = L.T (Q = U.T @ U), the orientation LAPACK reads
    without a copy. Non-finite inputs are rejected here, once per block,
    since np.linalg.cholesky would return NaNs for them without raising.
    """
    if not (np.isfinite(precision).all() and np.isfinite(rhs).all()):
        raise NumericError("%s conditional is not finite" % block)
    try:
        upper = np.linalg.cholesky(precision).T
    except np.linalg.LinAlgError:
        raise NumericError(
            "%s conditional precision is singular "
            "(flat priors with a degenerate design)" % block
        )
    half = _solve_upper(upper, rhs, trans=1)
    return _solve_upper(upper, half, trans=0), upper


@functools.cache
def _lapack():
    """scipy's LAPACK wrappers, imported on the first triangular solve.

    Cached, so a chain sweep's solves run no import statement.
    """
    from scipy.linalg import lapack

    return lapack


def _solve_upper(upper: np.ndarray, rhs: np.ndarray, trans: int) -> np.ndarray:
    """Solve U z = rhs (trans=0) or U.T z = rhs (trans=1) for upper triangular U.

    Calls LAPACK trtrs with the arguments scipy.linalg.solve_triangular
    passes for a Cholesky factor, so results are bit for bit the same,
    without scipy's per-call validation; callers check finiteness.
    """
    out, info = _lapack().dtrtrs(upper, rhs, lower=0, trans=trans)
    if info != 0:
        raise NumericError("triangular solve failed (LAPACK trtrs info %d)" % info)
    return out


def _draw_gamma(rng, shape: float, rate: float) -> float:
    return float(rng.gamma(shape, 1.0 / rate))


def _draw_from_factor(rng, mean: np.ndarray, upper: np.ndarray) -> np.ndarray:
    return mean + _solve_upper(upper, rng.standard_normal(mean.size), trans=0)


def _draw_mvn_from_precision(rng, mean: np.ndarray, precision: np.ndarray) -> np.ndarray:
    return _draw_from_factor(rng, mean, np.linalg.cholesky(precision).T)


# ---------------------------------------------------------------------------
# sampler plumbing derived from a JointModel


@dataclass(eq=False)
class _Coefficients:
    """A block of coefficients with independent Gaussian or fixed priors.

    Column j of design holds the values coefficient j multiplies, one per
    row of its observation block. A fixed coefficient has infinite prior
    precision and keeps its value. free and fixed hold the positions of
    the free and the fixed coefficients; prior_diag and prior_shift are the
    prior precision matrix and precision-weighted mean of the free ones.

    The regression block's x column is rewritten every sweep; every other
    column is fixed for the chain. free_design is a persistent column-major
    copy of the free columns, the layout of design[:, free], which the
    draws' bits were fixed with; when x is free, `free_columns` refreshes
    its copy, at x_slot, in place. What does not involve x is computed once
    per chain: gram, the free columns' Gram matrix, when x is fixed, and
    offset, the fixed coefficients' share of the linear predictor, when x
    is free.
    """

    label: str
    names: tuple
    design: np.ndarray
    mean: np.ndarray
    prec: np.ndarray
    free: np.ndarray
    fixed: np.ndarray
    prior_diag: np.ndarray
    prior_shift: np.ndarray
    free_design: np.ndarray
    x_slot: Optional[int]
    gram: Optional[np.ndarray]
    offset: Optional[np.ndarray]

    @classmethod
    def of(cls, label: str, coefficients: list, rows: int,
           x_column: Optional[int] = None) -> "_Coefficients":
        columns = [c.column for c in coefficients]
        design = np.column_stack(columns) if columns else np.zeros((rows, 0))
        mean = np.array([c.prior.mean if c.free else c.prior.value for c in coefficients])
        prec = np.array([c.prior.precision if c.free else math.inf for c in coefficients])
        free = np.flatnonzero(np.isfinite(prec))
        fixed = np.flatnonzero(np.isinf(prec))
        free_design = np.array(design[:, free], order="F")
        x_slot = free.tolist().index(x_column) if x_column in free else None
        # a fixed coefficient keeps its value, so the chain's values of the
        # fixed ones are their means
        return cls(label, tuple(c.name for c in coefficients), design, mean, prec, free, fixed,
                   np.diag(prec[free]), prec[free] * mean[free], free_design=free_design,
                   x_slot=x_slot,
                   gram=free_design.T @ free_design if x_slot is None else None,
                   offset=None if x_column in fixed else design[:, fixed] @ mean[fixed])

    def fixed_part(self, values: np.ndarray) -> np.ndarray:
        """The fixed coefficients' share of each row's linear predictor."""
        if self.offset is not None:
            return self.offset
        return self.design[:, self.fixed] @ values[self.fixed]

    def free_columns(self) -> np.ndarray:
        """free_design, with the x column copied in from design when x is free."""
        if self.x_slot is not None:
            self.free_design[:, self.x_slot] = self.design[:, self.free[self.x_slot]]
        return self.free_design

    def draw(self, rng, values: np.ndarray, tau: float, resid: np.ndarray) -> np.ndarray:
        """Conjugate draw of the free coefficients given Gaussian rows.

        The rows have precision tau and residuals resid once every term of
        their mean except the free coefficients' is taken off.
        """
        design = self.free_columns()
        gram = design.T @ design if self.gram is None else self.gram
        precision = tau * gram + self.prior_diag
        rhs = tau * (design.T @ resid) + self.prior_shift
        mean, upper = _gaussian_block(precision, rhs, self.label)
        out = values.copy()
        out[self.free] = _draw_from_factor(rng, mean, upper)
        return out


# beta_x's place in the regression block; its design column is the x slot
_BETA_X = 1


@dataclass
class _Sampler:
    model: JointModel
    family: str
    # regression block; the x slot of beta.design is overwritten in place by
    # `regression_design`, so no value of it outlives one update
    y: np.ndarray
    trials: np.ndarray
    beta: _Coefficients
    # exposure block, with no columns under Berkson error
    alpha: _Coefficients
    # latent exposure plumbing
    n_x: int
    x_index: np.ndarray
    x_counts: np.ndarray          # regression rows per latent x
    w: np.ndarray
    d: np.ndarray
    proxy_index: np.ndarray
    sum_d: np.ndarray
    sum_dw: np.ndarray
    # hyperpriors
    tau_u_prior: object
    tau_x_prior: object
    tau_eps_prior: object
    tau_gamma_prior: object
    has_gamma: bool

    def regression_design(self, x: np.ndarray) -> np.ndarray:
        """The regression design at latent values x (the shared buffer)."""
        self.beta.design[:, _BETA_X] = x[self.x_index]
        return self.beta.design

    def eta(self, state: ChainState) -> np.ndarray:
        eta = self.regression_design(state.x) @ state.beta
        if self.has_gamma:
            eta = eta + state.gamma
        return eta


def _prepare(model: JointModel) -> _Sampler:
    spec = model.spec
    if model.is_augmented:
        raise SpecError("the sampler works on the plain model, not the augmented one")
    if spec.error is None:
        raise SpecError("the sampler requires a measurement error model")

    reg_rows = model.reg_rows
    # under measurement error beta_x is a hyperparameter of the grid model,
    # so the table leaves it out; here it is a regression coefficient whose
    # column, the x slot, is filled in at each update
    betas = [c for c in model.coefficients if not c.exposure]
    betas.insert(_BETA_X, Coefficient("beta_x", "beta_x", np.zeros(reg_rows.size), spec.beta_x))
    alphas = [c for c in model.coefficients if c.exposure]

    x_index = model.x_index[reg_rows]
    w = model.proxy_obs
    d = model.proxy_weights
    proxy_index = model.proxy_x_index
    obs = spec.observation
    return _Sampler(
        model=model,
        family=model.family,
        y=model.y[reg_rows],
        trials=model.trials[reg_rows],
        beta=_Coefficients.of(_BETA_BLOCK, betas, reg_rows.size, x_column=_BETA_X),
        alpha=_Coefficients.of(_ALPHA_BLOCK, alphas, model.n_x),
        n_x=model.n_x,
        x_index=x_index,
        x_counts=np.bincount(x_index, minlength=model.n_x),
        w=w,
        d=d,
        proxy_index=proxy_index,
        sum_d=np.bincount(proxy_index, weights=d, minlength=model.n_x),
        sum_dw=np.bincount(proxy_index, weights=d * w, minlength=model.n_x),
        tau_u_prior=spec.error.tau_u,
        tau_x_prior=spec.exposure.tau_x if spec.exposure is not None else None,
        tau_eps_prior=obs.residual_precision,
        tau_gamma_prior=obs.random_effect,
        has_gamma=obs.random_effect is not None,
    )


def _initial_state(sampler: _Sampler) -> ChainState:
    # free coefficients start at 0 and free precisions at their prior
    # means; fixed values stay as they are
    theta = sampler.model.theta
    start = theta.named(theta.init_natural())
    counts = np.bincount(sampler.proxy_index, minlength=sampler.n_x).astype(float)
    counts[counts == 0.0] = 1.0
    x0 = np.bincount(sampler.proxy_index, weights=sampler.w, minlength=sampler.n_x) / counts
    return ChainState(
        x=x0,
        beta=np.where(np.isfinite(sampler.beta.prec), 0.0, sampler.beta.mean),
        alpha=np.where(np.isfinite(sampler.alpha.prec), 0.0, sampler.alpha.mean),
        gamma=np.zeros(sampler.y.size) if sampler.has_gamma else np.zeros(0),
        **{name: v for name, v in start.items() if name.startswith("tau_")},
    )


# ---------------------------------------------------------------------------
# block updates


def gibbs_tau_x(state: ChainState, sampler: _Sampler, rng) -> float:
    shape, rate = tau_x_conditional(
        state.x, sampler.alpha.design @ state.alpha, sampler.tau_x_prior
    )
    return _draw_gamma(rng, shape, rate)


def gibbs_tau_u(state: ChainState, sampler: _Sampler, rng) -> float:
    shape, rate = tau_u_conditional(
        sampler.w, state.x[sampler.proxy_index], sampler.d, sampler.tau_u_prior
    )
    return _draw_gamma(rng, shape, rate)


def gibbs_alpha(state: ChainState, sampler: _Sampler, rng) -> np.ndarray:
    """Conjugate draw of the free exposure coefficients.

    The same arithmetic as `alpha_conditional` followed by
    `_draw_mvn_from_precision`, with the precision factored once.
    """
    alpha = sampler.alpha
    if not alpha.free.size:
        return state.alpha.copy()
    return alpha.draw(rng, state.alpha, state.tau_x, state.x - alpha.fixed_part(state.alpha))


def _x_prior_precision_mean(state: ChainState, sampler: _Sampler) -> tuple:
    """Prior precision and precision-weighted mean of each x (tau_x is 0 under Berkson error)."""
    prec = state.tau_x + state.tau_u * sampler.sum_d
    numer = state.tau_x * (sampler.alpha.design @ state.alpha) + state.tau_u * sampler.sum_dw
    return prec, numer


def mh_latent_x(state: ChainState, sampler: _Sampler, scale: float, rng) -> tuple:
    """One update of every latent x component; returns (new x, acceptance).

    Gaussian responses use the exact conjugate draw (acceptance 1). Other
    families take one componentwise random-walk Metropolis step; components
    are conditionally independent, so the vectorized accept/reject per
    component is a valid Gibbs sweep.
    """
    prior_prec, prior_numer = _x_prior_precision_mean(state, sampler)
    beta_x = state.beta[_BETA_X]

    if sampler.family == "gaussian":
        eta = sampler.eta(state)
        resid_wo_x = sampler.y - (eta - beta_x * state.x[sampler.x_index])
        prec = prior_prec + state.tau_eps * beta_x**2 * sampler.x_counts
        numer = prior_numer + state.tau_eps * beta_x * np.bincount(
            sampler.x_index, weights=resid_wo_x, minlength=sampler.n_x
        )
        draw = numer / prec + rng.standard_normal(sampler.n_x) / np.sqrt(prec)
        return draw, 1.0

    x_new = state.x + scale * rng.standard_normal(sampler.n_x)
    eta = sampler.eta(state)
    eta_new = eta + beta_x * (x_new - state.x)[sampler.x_index]
    terms = families.loglik(sampler.family, sampler.y, sampler.trials, eta)
    terms_new = families.loglik(sampler.family, sampler.y, sampler.trials, eta_new)
    delta = np.bincount(sampler.x_index, weights=terms_new - terms, minlength=sampler.n_x)
    delta += -0.5 * prior_prec * (x_new**2 - state.x**2) + prior_numer * (x_new - state.x)
    accept = np.log(rng.uniform(size=sampler.n_x)) < delta
    out = np.where(accept, x_new, state.x)
    return out, float(np.mean(accept))


def _update_gamma(state: ChainState, sampler: _Sampler, scale: float, rng) -> tuple:
    eta = sampler.eta(state)
    if sampler.family == "gaussian":
        resid_wo_g = sampler.y - (eta - state.gamma)
        prec = state.tau_gamma + state.tau_eps
        mean = state.tau_eps * resid_wo_g / prec
        draw = mean + rng.standard_normal(state.gamma.size) / math.sqrt(prec)
        return draw, 1.0
    g_new = state.gamma + scale * rng.standard_normal(state.gamma.size)
    eta_new = eta + (g_new - state.gamma)
    delta = families.loglik(sampler.family, sampler.y, sampler.trials, eta_new)
    delta -= families.loglik(sampler.family, sampler.y, sampler.trials, eta)
    delta -= 0.5 * state.tau_gamma * (g_new**2 - state.gamma**2)
    accept = np.log(rng.uniform(size=state.gamma.size)) < delta
    return np.where(accept, g_new, state.gamma), float(np.mean(accept))


def mh_beta(state: ChainState, sampler: _Sampler, scale: float, rng) -> tuple:
    """One update of the free regression coefficients; returns (beta, accepted).

    Gaussian responses use the exact conjugate multivariate normal draw
    (acceptance 1); other families take one joint random-walk step.
    """
    coef = sampler.beta
    free = coef.free
    beta = state.beta.copy()
    if not free.size:
        return beta, 1.0
    # writes x into the design, where fixed_part and free_columns read it
    sampler.regression_design(state.x)
    offset = coef.fixed_part(beta)
    if sampler.has_gamma:
        offset = offset + state.gamma

    if sampler.family == "gaussian":
        return coef.draw(rng, beta, state.tau_eps, sampler.y - offset), 1.0

    Xf = coef.free_columns()
    bf = beta[free]
    bf_new = bf + scale * rng.standard_normal(bf.size)
    eta = Xf @ bf + offset
    eta_new = Xf @ bf_new + offset
    delta = float(
        np.sum(families.loglik(sampler.family, sampler.y, sampler.trials, eta_new))
        - np.sum(families.loglik(sampler.family, sampler.y, sampler.trials, eta))
    )
    pm = coef.mean[free]
    pp = coef.prec[free]
    delta -= 0.5 * float(pp @ ((bf_new - pm) ** 2 - (bf - pm) ** 2))
    accepted = math.log(rng.uniform()) < delta
    if accepted:
        beta[free] = bf_new
    return beta, float(accepted)


def _gibbs_tau_eps(state: ChainState, sampler: _Sampler, rng) -> float:
    shape, rate = _gamma_conditional(sampler.tau_eps_prior, sampler.y - sampler.eta(state))
    return _draw_gamma(rng, shape, rate)


def _gibbs_tau_gamma(state: ChainState, sampler: _Sampler, rng) -> float:
    shape, rate = _gamma_conditional(sampler.tau_gamma_prior, state.gamma)
    return _draw_gamma(rng, shape, rate)


# ---------------------------------------------------------------------------
# the full chain


def _record(state: ChainState, taus: tuple, picks: np.ndarray) -> np.ndarray:
    """One draws row: the reported parameters, picked from the regression
    coefficients, the exposure coefficients and the precisions taus."""
    return np.concatenate((state.beta, state.alpha, [getattr(state, t) for t in taus]))[picks]


def run_chain(model: JointModel, cfg: ChainConfig) -> ChainOutput:
    """Run one chain on a measurement-error model; deterministic given seed.

    The draws hold one column per reported parameter of the model, in the
    order of `JointModel.parameter_names`.
    """
    sampler = _prepare(model)
    state = _initial_state(sampler)
    rng = np.random.Generator(np.random.Philox(int(cfg.seed)))
    log_scales = {k: math.log(v) for k, v in DEFAULT_PROPOSAL_SCALES.items()}

    names = model.parameter_names()
    # the free precisions, in the grid model's order (tau_u, tau_x, tau_eps, tau_gamma)
    taus = tuple(name for name in model.theta.names if name.startswith("tau_"))
    sources = sampler.beta.names + sampler.alpha.names + taus
    picks = np.array([sources.index(name) for name in names], dtype=int)
    draws = np.empty((cfg.kept, len(names)))
    kept = 0
    accept_totals = {}

    mh_needed = sampler.family != "gaussian"

    for it in range(1, cfg.iterations + 1):
        if "tau_x" in taus:
            state.tau_x = gibbs_tau_x(state, sampler, rng)
        if "tau_u" in taus:
            state.tau_u = gibbs_tau_u(state, sampler, rng)
        state.alpha = gibbs_alpha(state, sampler, rng)

        state.x, acc_x = mh_latent_x(state, sampler, math.exp(log_scales["x"]), rng)
        if sampler.has_gamma:
            state.gamma, acc_g = _update_gamma(state, sampler, math.exp(log_scales["gamma"]), rng)
        state.beta, acc_b = mh_beta(state, sampler, math.exp(log_scales["beta"]), rng)

        if "tau_eps" in taus:
            state.tau_eps = _gibbs_tau_eps(state, sampler, rng)
        if "tau_gamma" in taus:
            state.tau_gamma = _gibbs_tau_gamma(state, sampler, rng)

        accepted = {"x": acc_x, "beta": acc_b}
        if sampler.has_gamma:
            accepted["gamma"] = acc_g
        if mh_needed and it <= cfg.burn_in:
            step = (it + _ADAPT_OFFSET) ** -0.6
            for block, acc in accepted.items():
                log_scales[block] += step * (acc - ADAPT_TARGET)
                log_scales[block] = min(max(log_scales[block], -_LOG_SCALE_BOUND), _LOG_SCALE_BOUND)

        if it > cfg.burn_in:
            for block, acc in accepted.items():
                accept_totals[block] = accept_totals.get(block, 0.0) + acc
            if (it - cfg.burn_in) % cfg.thin == 0 and kept < draws.shape[0]:
                draws[kept] = _record(state, taus, picks)
                kept += 1

    rates = {block: total / (cfg.iterations - cfg.burn_in) for block, total in accept_totals.items()}
    return ChainOutput(names=names, draws=draws[:kept], acceptance_rates=rates, config=cfg)


def effective_sample_size(draws: np.ndarray) -> float:
    """Initial-positive-sequence autocorrelation estimate of the ESS."""
    x = np.asarray(draws, dtype=float).ravel()
    n = x.size
    if n < MIN_ESS_DRAWS:
        raise SpecError(
            "need at least %d draws for an ESS estimate, got %d" % (MIN_ESS_DRAWS, n)
        )
    x = x - x.mean()
    var = float(x @ x) / n
    if var == 0.0:
        return float(n)
    size = int(2 ** math.ceil(math.log2(2 * n)))
    f = np.fft.rfft(x, size)
    acf = np.fft.irfft(f * np.conj(f), size)[:n].real / (n * var)
    total = 0.0
    for lag in range(1, n - 1, 2):
        pair = acf[lag] + acf[lag + 1]
        if pair <= 0.0:
            break
        total += pair
    return float(n / (1.0 + 2.0 * total))
