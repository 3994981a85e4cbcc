"""Joint model assembly for regression with covariate measurement error.

A fitted model couples up to three observation blocks, each contributing one
likelihood over a shared latent Gaussian field:

- the regression block: the outcome given the linear predictor,
- the exposure block (classical error only): zero-valued pseudo-observations
  encoding 0 = -x + alpha_0 + z alpha_z + eps_x with precision tau_x,
- the proxy block: classical replicates w = x + u, or the Berkson form
  written as observations -w with mean -x, both with precision tau_u
  scaled by known per-observation weights.

The latent field is laid out in the fixed order (beta_0, beta_z, alpha_0,
alpha_z, x, x_star, gamma); components that a given model does not use are
simply absent. Hyperparameters are ordered (beta_x, tau_u, tau_x, family
hyperparameters). `copy_augment` appends a high-precision copy x_star of
beta_x * x so that the regression row reads x_star with unit coefficient,
turning the conditional latent distribution given hyperparameters into a
Gaussian-friendly form for any fixed beta_x.

Continuous covariates and proxies are centered at build time; the applied
constants are recorded on the model for report back-transformation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import families
from .errors import DataError, SpecError
from .families import FAMILIES
from .priors import LOG_2PI, FixedValue, GammaPrior, GaussianPrior, Prior

__all__ = [
    "ObservationModel",
    "ErrorModel",
    "ExposureModel",
    "ModelSpec",
    "LatentLayout",
    "ThetaEntry",
    "ThetaLayout",
    "JointModel",
    "Conditional",
    "build_joint_model",
    "copy_augment",
    "naive_spec",
    "joint_log_density",
    "block_log_densities",
    "assemble_conditional",
    "DEFAULT_COPY_PRECISION",
]

DEFAULT_COPY_PRECISION = 1.0e9


def _check_prior(p, allowed, what: str):
    if not isinstance(p, allowed):
        names = "/".join(t.__name__ for t in allowed)
        raise SpecError("%s must be %s, got %r" % (what, names, type(p).__name__))


@dataclass(frozen=True)
class ObservationModel:
    """Outcome family plus its own hyperparameter priors.

    residual_precision is required for the gaussian family and forbidden
    otherwise; random_effect, when present, is the precision prior of an
    iid Gaussian effect added to the linear predictor of every row.
    """

    family: str
    residual_precision: Optional[Prior] = None
    random_effect: Optional[Prior] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise SpecError("unknown family %r (expected one of %s)" % (self.family, ", ".join(FAMILIES)))
        if self.family == "gaussian":
            if self.residual_precision is None:
                raise SpecError("gaussian family requires a residual_precision prior")
            _check_prior(self.residual_precision, (GammaPrior, FixedValue), "residual_precision")
        elif self.residual_precision is not None:
            raise SpecError("residual_precision only applies to the gaussian family")
        if self.random_effect is not None:
            _check_prior(self.random_effect, (GammaPrior, FixedValue), "random_effect precision")


@dataclass(frozen=True)
class ErrorModel:
    """Measurement error law tying proxies to the latent covariate."""

    kind: str
    tau_u: Prior

    def __post_init__(self):
        if self.kind not in ("classical", "berkson"):
            raise SpecError("error kind must be 'classical' or 'berkson', got %r" % (self.kind,))
        _check_prior(self.tau_u, (GammaPrior, FixedValue), "tau_u")


@dataclass(frozen=True)
class ExposureModel:
    """Law of the latent covariate given error-free covariates (classical only)."""

    alpha0: Prior
    alpha_z: tuple
    tau_x: Prior

    def __post_init__(self):
        _check_prior(self.alpha0, (GaussianPrior, FixedValue), "alpha0")
        for k, p in enumerate(self.alpha_z):
            _check_prior(p, (GaussianPrior, FixedValue), "alpha_z[%d]" % k)
        _check_prior(self.tau_x, (GammaPrior, FixedValue), "tau_x")


@dataclass(frozen=True)
class ModelSpec:
    """Declarative model description plus dataset column bindings."""

    observation: ObservationModel
    error: Optional[ErrorModel]
    exposure: Optional[ExposureModel]
    beta0: Prior
    beta_x: Prior
    beta_z: tuple
    response: str = "y"
    proxies: tuple = ()
    covariates: tuple = ()
    weights: Optional[str] = None
    group: Optional[str] = None
    trials: Optional[str] = None
    center: bool = True

    def validate(self) -> None:
        _check_prior(self.beta0, (GaussianPrior, FixedValue), "beta0")
        for k, p in enumerate(self.beta_z):
            _check_prior(p, (GaussianPrior, FixedValue), "beta_z[%d]" % k)
        if len(self.beta_z) != len(self.covariates):
            raise SpecError(
                "beta_z has %d priors for %d covariates" % (len(self.beta_z), len(self.covariates))
            )
        if self.error is None:
            if self.exposure is not None:
                raise SpecError("exposure model requires a classical error model")
        elif self.error.kind == "classical":
            _check_prior(self.beta_x, (GaussianPrior, FixedValue), "beta_x")
            if self.exposure is None:
                raise SpecError("classical error requires an exposure model")
            if len(self.exposure.alpha_z) != len(self.covariates):
                raise SpecError(
                    "alpha_z has %d priors for %d covariates"
                    % (len(self.exposure.alpha_z), len(self.covariates))
                )
            if self.group is not None:
                raise SpecError("grouped latent covariates are only supported for Berkson error")
        else:  # berkson
            _check_prior(self.beta_x, (GaussianPrior, FixedValue), "beta_x")
            if self.exposure is not None:
                raise SpecError("Berkson error models do not take an exposure model")
            if len(self.proxies) != 1:
                raise SpecError("Berkson error uses exactly one proxy column")
        if self.error is not None and not self.proxies:
            raise SpecError("measurement error models need at least one proxy column")


@dataclass(frozen=True)
class LatentLayout:
    """Ordered latent blocks; `blocks` maps block name to (start, length)."""

    order: tuple
    sizes: tuple

    @property
    def dim(self) -> int:
        return int(sum(self.sizes))

    def slice(self, name: str) -> Optional[slice]:
        start = 0
        for blk, size in zip(self.order, self.sizes):
            if blk == name:
                return slice(start, start + size) if size else None
            start += size
        return None

    def has(self, name: str) -> bool:
        return self.slice(name) is not None


@dataclass(frozen=True)
class ThetaEntry:
    name: str
    scale: str  # "identity" or "log"
    prior: Prior


@dataclass(frozen=True)
class ThetaLayout:
    """Free hyperparameters in fixed order plus fixed-value ones."""

    entries: tuple
    fixed: tuple  # ((name, value), ...)

    @property
    def names(self) -> tuple:
        return tuple(e.name for e in self.entries)

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def scales(self) -> tuple:
        return tuple(e.scale for e in self.entries)

    def index(self, name: str) -> int:
        for i, e in enumerate(self.entries):
            if e.name == name:
                return i
        raise SpecError("no free hyperparameter named %r" % (name,))

    def validate(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise SpecError(
                "theta has shape %r, expected (%d,) for %s" % (theta.shape, self.dim, self.names)
            )
        if not np.all(np.isfinite(theta)):
            raise SpecError("theta contains non-finite entries")
        for e, v in zip(self.entries, theta):
            if e.scale == "log" and v <= 0.0:
                raise SpecError("hyperparameter %s must be > 0, got %g" % (e.name, v))
        return theta

    def value(self, name: str, theta: np.ndarray) -> float:
        for n, v in self.fixed:
            if n == name:
                return v
        return float(theta[self.index(name)])

    def has(self, name: str) -> bool:
        if any(n == name for n, _ in self.fixed):
            return True
        return any(e.name == name for e in self.entries)

    def log_prior(self, theta: np.ndarray) -> float:
        return float(sum(e.prior.log_density(float(v)) for e, v in zip(self.entries, theta)))

    def to_internal(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        out = theta.copy()
        for i, e in enumerate(self.entries):
            if e.scale == "log":
                out[i] = math.log(theta[i])
        return out

    def to_natural(self, lam: np.ndarray) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        out = lam.copy()
        for i, e in enumerate(self.entries):
            if e.scale == "log":
                out[i] = math.exp(lam[i])
        return out

    def internal_log_jacobian(self, lam: np.ndarray) -> float:
        # d theta / d lambda = exp(lambda) on log-scale coordinates
        return float(sum(lam[i] for i, e in enumerate(self.entries) if e.scale == "log"))

    def init_natural(self) -> np.ndarray:
        out = np.empty(self.dim)
        for i, e in enumerate(self.entries):
            if isinstance(e.prior, GaussianPrior):
                out[i] = e.prior.mean
            elif isinstance(e.prior, GammaPrior):
                out[i] = e.prior.mean
            else:
                raise SpecError("free hyperparameter %s has no initializable prior" % e.name)
        return out


@dataclass(eq=False)
class JointModel:
    """Assembled stacked model over a fixed dataset.

    Treat instances as immutable; `_cache` holds derived design matrices.
    """

    spec: ModelSpec
    n: int
    n_x: int
    y: np.ndarray
    trials: np.ndarray
    Z: np.ndarray
    reg_offset: np.ndarray
    reg_rows: np.ndarray
    x_index: Optional[np.ndarray]
    exp_offset: Optional[np.ndarray]
    proxy_obs: Optional[np.ndarray]
    proxy_weights: Optional[np.ndarray]
    proxy_x_index: Optional[np.ndarray]
    proxy_sign: float
    naive_x: Optional[np.ndarray]
    layout: LatentLayout
    theta: ThetaLayout
    copy_precision: Optional[float]
    centering: dict
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def is_augmented(self) -> bool:
        return self.copy_precision is not None

    @property
    def family(self) -> str:
        return self.spec.observation.family

    @property
    def block_sizes(self) -> tuple:
        """(regression rows, exposure rows, proxy rows)."""
        n_reg = int(self.reg_rows.size)
        n_exp = self.n_x if (self.spec.error is not None and self.spec.error.kind == "classical") else 0
        n_prox = 0 if self.proxy_obs is None else int(self.proxy_obs.size)
        return (n_reg, n_exp, n_prox)

    def latent_names(self) -> tuple:
        names = []
        for blk, size in zip(self.layout.order, self.layout.sizes):
            if size == 0:
                continue
            if blk == "beta0":
                names.append("beta_0")
            elif blk == "beta_x":
                names.append("beta_x")
            elif blk == "beta_z":
                names.extend("beta_%s" % c for c, p in zip(self.spec.covariates, self.spec.beta_z)
                             if not isinstance(p, FixedValue))
            elif blk == "alpha0":
                names.append("alpha_0")
            elif blk == "alpha_z":
                names.extend("alpha_%s" % c for c, p in zip(self.spec.covariates, self.spec.exposure.alpha_z)
                             if not isinstance(p, FixedValue))
            elif blk == "x":
                names.extend("x_%d" % (i + 1) for i in range(size))
            elif blk == "x_star":
                names.extend("x_star_%d" % (i + 1) for i in range(size))
            elif blk == "gamma":
                names.extend("gamma_%d" % (i + 1) for i in range(size))
        return tuple(names)


def _distinct_count(values: np.ndarray) -> int:
    v = values[np.isfinite(values)]
    return int(np.unique(v).size)


def _center_column(values: np.ndarray) -> float:
    return float(np.nanmean(values))


def _theta_entry(name: str, scale: str, prior: Prior, entries: list, fixed: list) -> None:
    if isinstance(prior, FixedValue):
        if scale == "log" and prior.value <= 0.0:
            raise SpecError("%s fixed at a non-positive value" % name)
        fixed.append((name, prior.value))
    else:
        entries.append(ThetaEntry(name=name, scale=scale, prior=prior))


def build_joint_model(spec: ModelSpec, data) -> JointModel:
    """Assemble the stacked joint model from a spec and a dataset.

    Validates column presence, absent-value placement, Berkson grouping and
    response integrity; centers proxies and continuous covariates (recording
    the constants) when spec.center is set.
    """
    spec.validate()
    n = data.n_rows
    if n == 0:
        raise DataError("empty dataset")

    y = data.column(spec.response).astype(float)
    reg_rows = np.flatnonzero(np.isfinite(y))
    if reg_rows.size == 0:
        raise DataError("response column %r has no observed values" % (spec.response,))

    obs = spec.observation
    trials = np.ones(n)
    if obs.family == "binomial" and spec.trials is not None:
        trials = data.column(spec.trials).astype(float)
        if not np.all(np.isfinite(trials)):
            raise DataError("trials column %r contains absent values" % (spec.trials,))
    families.check_response(obs.family, y[reg_rows], trials[reg_rows])

    centering: dict = {}
    p = len(spec.covariates)
    Z = np.empty((n, p))
    for j, col in enumerate(spec.covariates):
        vals = data.column(col).astype(float)
        if not np.all(np.isfinite(vals)):
            raise DataError("covariate column %r contains absent values" % (col,))
        if spec.center and _distinct_count(vals) > 2:
            m = _center_column(vals)
            vals = vals - m
            centering[col] = m
        Z[:, j] = vals

    x_index = None
    exp_offset = None
    proxy_obs = None
    proxy_weights = None
    proxy_x_index = None
    proxy_sign = 1.0
    naive_x = None
    n_x = 0

    if spec.error is None:
        if spec.proxies:
            wcols = [data.column(c).astype(float) for c in spec.proxies]
            wmat = np.vstack(wcols)
            if np.all(~np.isfinite(wmat), axis=0).any():
                raise DataError("a row has no observed proxy value")
            with np.errstate(invalid="ignore"):
                naive_x = np.nanmean(wmat, axis=0)
            if spec.center:
                m = _center_column(naive_x)
                naive_x = naive_x - m
                centering["+".join(spec.proxies)] = m
    elif spec.error.kind == "classical":
        n_x = n
        x_index = np.arange(n)
        wcols = [data.column(c).astype(float) for c in spec.proxies]
        if spec.weights is not None:
            d_col = data.column(spec.weights).astype(float)
            if not np.all(np.isfinite(d_col)) or np.any(d_col <= 0):
                raise DataError("weights column %r must be positive and complete" % (spec.weights,))
        else:
            d_col = np.ones(n)
        rows = []
        for wvals in wcols:
            seen = np.flatnonzero(np.isfinite(wvals))
            rows.append((wvals, seen))
        if sum(seen.size for _, seen in rows) == 0:
            raise DataError("no observed proxy values")
        if spec.center:
            pooled = np.concatenate([wvals[seen] for wvals, seen in rows])
            m = float(np.mean(pooled))
            centering["+".join(spec.proxies)] = m
        else:
            m = 0.0
        obs_list, w_list, idx_list = [], [], []
        for wvals, seen in rows:
            obs_list.append(wvals[seen] - m)
            w_list.append(d_col[seen])
            idx_list.append(seen)
        proxy_obs = np.concatenate(obs_list)
        proxy_weights = np.concatenate(w_list)
        proxy_x_index = np.concatenate(idx_list)
        proxy_sign = 1.0
        # exposure offset from fixed alpha entries
        exp_offset = np.zeros(n)
        if isinstance(spec.exposure.alpha0, FixedValue):
            exp_offset += spec.exposure.alpha0.value
        for j, pr in enumerate(spec.exposure.alpha_z):
            if isinstance(pr, FixedValue):
                exp_offset += pr.value * Z[:, j]
    else:  # berkson
        wvals = data.column(spec.proxies[0]).astype(float)
        if not np.all(np.isfinite(wvals)):
            raise DataError("Berkson proxy column %r contains absent values" % (spec.proxies[0],))
        if spec.group is not None:
            gvals = data.column(spec.group)
            if not np.all(np.isfinite(gvals)):
                raise DataError("group column %r contains absent values" % (spec.group,))
            _, x_index = np.unique(gvals, return_inverse=True)
            n_x = int(x_index.max()) + 1
        else:
            x_index = np.arange(n)
            n_x = n
        w_group = np.full(n_x, np.nan)
        for i in range(n):
            g = x_index[i]
            if np.isnan(w_group[g]):
                w_group[g] = wvals[i]
            elif w_group[g] != wvals[i]:
                raise DataError(
                    "proxy column %r is not constant within group (row %d)"
                    % (spec.proxies[0], i + 1)
                )
        if spec.weights is not None:
            d_col = data.column(spec.weights).astype(float)
            if not np.all(np.isfinite(d_col)) or np.any(d_col <= 0):
                raise DataError("weights column %r must be positive and complete" % (spec.weights,))
            d_group = np.full(n_x, np.nan)
            for i in range(n):
                g = x_index[i]
                if np.isnan(d_group[g]):
                    d_group[g] = d_col[i]
                elif d_group[g] != d_col[i]:
                    raise DataError("weights column %r is not constant within group" % (spec.weights,))
        else:
            d_group = np.ones(n_x)
        if spec.center:
            m = float(np.mean(w_group))
            w_group = w_group - m
            centering[spec.proxies[0]] = m
        proxy_obs = -w_group
        proxy_weights = d_group
        proxy_x_index = np.arange(n_x)
        proxy_sign = -1.0

    # latent layout in the fixed order
    order, sizes = [], []

    def add_block(name: str, size: int) -> None:
        order.append(name)
        sizes.append(size)

    add_block("beta0", 0 if isinstance(spec.beta0, FixedValue) else 1)
    if spec.error is None and naive_x is not None:
        add_block("beta_x", 0 if isinstance(spec.beta_x, FixedValue) else 1)
    add_block("beta_z", sum(1 for pr in spec.beta_z if not isinstance(pr, FixedValue)))
    if spec.error is not None and spec.error.kind == "classical":
        add_block("alpha0", 0 if isinstance(spec.exposure.alpha0, FixedValue) else 1)
        add_block("alpha_z", sum(1 for pr in spec.exposure.alpha_z if not isinstance(pr, FixedValue)))
    if spec.error is not None:
        add_block("x", n_x)
    if obs.random_effect is not None:
        add_block("gamma", n)
    layout = LatentLayout(order=tuple(order), sizes=tuple(sizes))

    # fixed-coefficient contributions to the regression linear predictor
    reg_offset = np.zeros(n)
    if isinstance(spec.beta0, FixedValue):
        reg_offset += spec.beta0.value
    for j, pr in enumerate(spec.beta_z):
        if isinstance(pr, FixedValue):
            reg_offset += pr.value * Z[:, j]
    if spec.error is None and naive_x is not None and isinstance(spec.beta_x, FixedValue):
        reg_offset += spec.beta_x.value * naive_x

    # hyperparameter layout: (beta_x, tau_u, tau_x, family hyperparameters)
    entries: list = []
    fixed: list = []
    if spec.error is not None:
        _theta_entry("beta_x", "identity", spec.beta_x, entries, fixed)
        _theta_entry("tau_u", "log", spec.error.tau_u, entries, fixed)
        if spec.error.kind == "classical":
            _theta_entry("tau_x", "log", spec.exposure.tau_x, entries, fixed)
    if obs.family == "gaussian":
        _theta_entry("tau_eps", "log", obs.residual_precision, entries, fixed)
    if obs.random_effect is not None:
        _theta_entry("tau_gamma", "log", obs.random_effect, entries, fixed)
    theta_layout = ThetaLayout(entries=tuple(entries), fixed=tuple(fixed))

    return JointModel(
        spec=spec,
        n=n,
        n_x=n_x,
        y=y,
        trials=trials,
        Z=Z,
        reg_offset=reg_offset,
        reg_rows=reg_rows,
        x_index=x_index,
        exp_offset=exp_offset,
        proxy_obs=proxy_obs,
        proxy_weights=proxy_weights,
        proxy_x_index=proxy_x_index,
        proxy_sign=proxy_sign,
        naive_x=naive_x,
        layout=layout,
        theta=theta_layout,
        copy_precision=None,
        centering=centering,
    )


def copy_augment(model: JointModel, copy_precision: float = DEFAULT_COPY_PRECISION) -> JointModel:
    """Append a high-precision copy x_star of beta_x * x to the latent field.

    The regression rows then read x_star with unit coefficient and the link
    density exp(-tau/2 (x_star - beta_x x)' (x_star - beta_x x)) couples the
    two blocks, with beta_x still a hyperparameter.
    """
    if not (copy_precision > 0.0 and math.isfinite(copy_precision)):
        raise SpecError("copy precision must be > 0")
    if model.is_augmented:
        raise SpecError("model is already copy-augmented")
    if not model.layout.has("x"):
        raise SpecError("copy augmentation needs a latent covariate block")
    order, sizes = [], []
    for blk, size in zip(model.layout.order, model.layout.sizes):
        order.append(blk)
        sizes.append(size)
        if blk == "x":
            order.append("x_star")
            sizes.append(size)
    layout = LatentLayout(order=tuple(order), sizes=tuple(sizes))
    return replace(model, layout=layout, copy_precision=float(copy_precision), _cache={})


def naive_spec(spec: ModelSpec) -> ModelSpec:
    """The matching no-error spec: proxies collapse to an ordinary covariate.

    Priors for the regression block are reused unchanged; the error and
    exposure parts are dropped.
    """
    if spec.error is None:
        return spec
    return replace(
        spec,
        error=None,
        exposure=None,
        group=None,
        weights=None,
    )


# ---------------------------------------------------------------------------
# conditional (given theta) assembly


@dataclass(eq=False)
class Conditional:
    """Everything the Gaussian engine needs about p(v | y, theta).

    The stacked rows of A cover regression, exposure, proxy, and (for
    augmented models) the copy-link pseudo-observations 0 = x_star - beta_x x.
    Gaussian rows are always evaluated in residual form, never through the
    expanded quadratic, so stiff blocks such as the 1e9 copy link do not
    cancel catastrophically. gauss_hess/gauss_rhs hold the same information
    as a quadratic form for curvature and closed-form solves. For a binomial
    or Poisson response the reg_slice rows are not Gaussian: trials_ng holds
    their trials and ng_c0 their summed normalizing constant.
    """

    dim: int
    A: np.ndarray
    obs: np.ndarray
    offset: np.ndarray
    gprec: np.ndarray
    gauss_rows: np.ndarray
    gauss_const: float
    reg_slice: slice
    exp_slice: slice
    prox_slice: slice
    family: str
    trials_ng: Optional[np.ndarray]
    gauss_hess: np.ndarray
    gauss_rhs: np.ndarray
    ng_c0: float
    Qp: np.ndarray
    bp: np.ndarray
    prior_c0: float

    def log_density(self, v: np.ndarray) -> float:
        """log p(y | v, theta) + log p(v | theta), constants included."""
        eta = self.A @ v + self.offset
        res = self.obs[self.gauss_rows] - eta[self.gauss_rows]
        tau = self.gprec[self.gauss_rows]
        val = self.gauss_const - 0.5 * float(np.sum(tau * res * res))
        if self.trials_ng is not None:
            rows = self.reg_slice
            val += float(np.sum(families.loglik(self.family, self.obs[rows], self.trials_ng, eta[rows])))
            val += self.ng_c0
        val += self.prior_c0 + float(self.bp @ v) - 0.5 * float(v @ (self.Qp @ v))
        return val


def _design(model: JointModel) -> dict:
    """Cached theta-free design pieces for the stacked model."""
    cache = model._cache
    if "design" in cache:
        return cache["design"]

    layout = model.layout
    d = layout.dim
    spec = model.spec
    n_reg = int(model.reg_rows.size)
    classical = spec.error is not None and spec.error.kind == "classical"
    n_exp = model.n_x if classical else 0
    n_prox = 0 if model.proxy_obs is None else int(model.proxy_obs.size)
    n_copy = model.n_x if model.is_augmented else 0
    N = n_reg + n_exp + n_prox + n_copy

    A = np.zeros((N, d))
    obs = np.zeros(N)
    offset = np.zeros(N)
    reg_slice = slice(0, n_reg)
    exp_slice = slice(n_reg, n_reg + n_exp)
    prox_slice = slice(n_reg + n_exp, n_reg + n_exp + n_prox)
    copy_slice = slice(n_reg + n_exp + n_prox, N)

    rr = model.reg_rows
    obs[reg_slice] = model.y[rr]
    offset[reg_slice] = model.reg_offset[rr]

    s = layout.slice("beta0")
    if s is not None:
        A[reg_slice, s.start] = 1.0
    s = layout.slice("beta_x")
    if s is not None:
        A[reg_slice, s.start] = model.naive_x[rr]
    s = layout.slice("beta_z")
    if s is not None:
        free_cols = [j for j, pr in enumerate(spec.beta_z) if not isinstance(pr, FixedValue)]
        A[reg_slice, s] = model.Z[np.ix_(rr, free_cols)]
    x_slice = layout.slice("x")
    xs_slice = layout.slice("x_star")
    reg_x_rows = reg_x_cols = None
    if x_slice is not None:
        tgt = xs_slice if model.is_augmented else x_slice
        reg_x_rows = np.arange(n_reg)
        reg_x_cols = tgt.start + model.x_index[rr]
        A[reg_x_rows, reg_x_cols] = 1.0
    s = layout.slice("gamma")
    if s is not None:
        A[reg_slice, s] = np.eye(model.n)[rr]

    if classical:
        A[np.arange(n_reg, n_reg + n_exp), x_slice.start + np.arange(n_exp)] = -1.0
        s = layout.slice("alpha0")
        if s is not None:
            A[exp_slice, s.start] = 1.0
        s = layout.slice("alpha_z")
        if s is not None:
            free_cols = [j for j, pr in enumerate(spec.exposure.alpha_z) if not isinstance(pr, FixedValue)]
            A[exp_slice, s] = model.Z[:, free_cols]
        offset[exp_slice] = model.exp_offset
        obs[exp_slice] = 0.0

    if n_prox:
        A[np.arange(prox_slice.start, prox_slice.stop),
          x_slice.start + model.proxy_x_index] = model.proxy_sign
        obs[prox_slice] = model.proxy_obs

    # copy-link pseudo-rows: 0 = x_star - beta_x x + eps, precision copy_precision;
    # the theta-dependent -beta_x coefficient on x is filled per theta
    copy_rows = copy_x_cols = None
    if n_copy:
        copy_rows = np.arange(copy_slice.start, copy_slice.stop)
        copy_x_cols = x_slice.start + np.arange(n_copy)
        A[copy_rows, xs_slice.start + np.arange(n_copy)] = 1.0

    # static latent prior
    prior_prec = np.zeros(d)
    prior_mean = np.zeros(d)

    def set_prior(sl: Optional[slice], priors: Sequence[Prior]) -> None:
        if sl is None:
            return
        k = sl.start
        for pr in priors:
            if isinstance(pr, FixedValue):
                continue
            prior_prec[k] = pr.precision
            prior_mean[k] = pr.mean
            k += 1

    set_prior(layout.slice("beta0"), [spec.beta0])
    set_prior(layout.slice("beta_x"), [spec.beta_x])
    set_prior(layout.slice("beta_z"), list(spec.beta_z))
    if classical:
        set_prior(layout.slice("alpha0"), [spec.exposure.alpha0])
        set_prior(layout.slice("alpha_z"), list(spec.exposure.alpha_z))

    # expand log N(v; m, 1/p) = [log(p)/2 - log(2 pi)/2 - p m^2/2] + (p m) v - p v^2/2
    bp = prior_prec * prior_mean
    const = 0.0
    for pk in prior_prec:
        if pk > 0.0:
            const += 0.5 * (math.log(pk) - LOG_2PI)
    const -= 0.5 * float(np.sum(prior_prec * prior_mean * prior_mean))

    # theta-free gaussian-block Gram pieces
    A_exp = A[exp_slice]
    A_prox = A[prox_slice]
    res_exp = obs[exp_slice] - offset[exp_slice]
    res_prox = obs[prox_slice] - offset[prox_slice]
    dW = model.proxy_weights if n_prox else np.zeros(0)
    G_exp = A_exp.T @ A_exp if n_exp else None
    r_exp = A_exp.T @ res_exp if n_exp else None
    G_prox = (A_prox * dW[:, None]).T @ A_prox if n_prox else None
    r_prox = A_prox.T @ (dW * res_prox) if n_prox else None

    reg_theta_free = model.is_augmented or spec.error is None
    G_reg = r_reg = None
    if model.family == "gaussian" and reg_theta_free:
        A_reg = A[reg_slice]
        res_reg = obs[reg_slice] - offset[reg_slice]
        G_reg = A_reg.T @ A_reg
        r_reg = A_reg.T @ res_reg

    ng_c0 = 0.0
    if model.family != "gaussian":
        ng_c0 = families.log_normalizer(model.family, obs[reg_slice], model.trials[rr])

    design = dict(
        A=A, obs=obs, offset=offset,
        reg_slice=reg_slice, exp_slice=exp_slice, prox_slice=prox_slice,
        copy_slice=copy_slice,
        reg_x_rows=reg_x_rows, reg_x_cols=reg_x_cols,
        copy_rows=copy_rows, copy_x_cols=copy_x_cols,
        prior_prec=prior_prec, bp=bp, prior_const=const,
        G_exp=G_exp, r_exp=r_exp,
        G_prox=G_prox, r_prox=r_prox,
        G_reg=G_reg, r_reg=r_reg,
        ng_c0=ng_c0,
        n_reg=n_reg, n_exp=n_exp, n_prox=n_prox, n_copy=n_copy,
    )
    cache["design"] = design
    return design


def assemble_conditional(model: JointModel, theta) -> Conditional:
    """Build the per-theta conditional view of the stacked model."""
    theta = model.theta.validate(theta)
    dz = _design(model)
    layout = model.layout
    d = layout.dim
    spec = model.spec
    classical = spec.error is not None and spec.error.kind == "classical"

    tau_u = model.theta.value("tau_u", theta) if model.theta.has("tau_u") else None
    tau_x = model.theta.value("tau_x", theta) if model.theta.has("tau_x") else None
    tau_eps = model.theta.value("tau_eps", theta) if model.theta.has("tau_eps") else None
    tau_gamma = model.theta.value("tau_gamma", theta) if model.theta.has("tau_gamma") else None
    beta_x = model.theta.value("beta_x", theta) if model.theta.has("beta_x") else None
    for name, val in (("tau_u", tau_u), ("tau_x", tau_x), ("tau_eps", tau_eps), ("tau_gamma", tau_gamma)):
        if val is not None and val <= 0.0:
            raise SpecError("hyperparameter %s must be > 0, got %g" % (name, val))

    A = dz["A"]
    if spec.error is not None and not model.is_augmented:
        A = A.copy()
        A[dz["reg_x_rows"], dz["reg_x_cols"]] = beta_x
    elif model.is_augmented:
        A = A.copy()
        A[dz["copy_rows"], dz["copy_x_cols"]] = -beta_x

    n_reg, n_exp, n_prox, n_copy = dz["n_reg"], dz["n_exp"], dz["n_prox"], dz["n_copy"]
    gprec = np.zeros(A.shape[0])
    if n_exp:
        gprec[dz["exp_slice"]] = tau_x
    if n_prox:
        gprec[dz["prox_slice"]] = tau_u * model.proxy_weights
    if n_copy:
        gprec[dz["copy_slice"]] = model.copy_precision
    if model.family == "gaussian":
        gprec[dz["reg_slice"]] = tau_eps

    # curvature and linear term of the gaussian rows, as cached Gram pieces
    gauss_hess = np.zeros((d, d))
    gauss_rhs = np.zeros(d)
    if n_exp:
        gauss_hess += tau_x * dz["G_exp"]
        gauss_rhs += tau_x * dz["r_exp"]
    if n_prox:
        gauss_hess += tau_u * dz["G_prox"]
        gauss_rhs += tau_u * dz["r_prox"]
    if n_copy:
        tau_c = model.copy_precision
        ix = dz["copy_x_cols"]
        istar = np.arange(layout.slice("x_star").start, layout.slice("x_star").stop)
        gauss_hess[ix, ix] += tau_c * beta_x * beta_x
        gauss_hess[istar, istar] += tau_c
        gauss_hess[ix, istar] += -tau_c * beta_x
        gauss_hess[istar, ix] += -tau_c * beta_x
    trials_ng = None
    if model.family == "gaussian":
        if dz["G_reg"] is not None:
            G_reg, r_reg = dz["G_reg"], dz["r_reg"]
        else:
            A_reg = A[dz["reg_slice"]]
            res = dz["obs"][dz["reg_slice"]] - dz["offset"][dz["reg_slice"]]
            G_reg = A_reg.T @ A_reg
            r_reg = A_reg.T @ res
        gauss_hess = gauss_hess + tau_eps * G_reg
        gauss_rhs = gauss_rhs + tau_eps * r_reg
    else:
        trials_ng = model.trials[model.reg_rows]

    gauss_rows = np.flatnonzero(gprec > 0.0)
    gauss_const = 0.5 * float(np.sum(np.log(gprec[gauss_rows]) - LOG_2PI))

    # latent prior; only the random-effect precision depends on theta
    Qp = np.diag(dz["prior_prec"]).copy()
    prior_c0 = dz["prior_const"]
    s = layout.slice("gamma")
    if s is not None:
        Qp[np.arange(s.start, s.stop), np.arange(s.start, s.stop)] += tau_gamma
        prior_c0 += 0.5 * (s.stop - s.start) * (math.log(tau_gamma) - LOG_2PI)

    return Conditional(
        dim=d,
        A=A,
        obs=dz["obs"],
        offset=dz["offset"],
        gprec=gprec,
        gauss_rows=gauss_rows,
        gauss_const=gauss_const,
        reg_slice=dz["reg_slice"],
        exp_slice=dz["exp_slice"],
        prox_slice=dz["prox_slice"],
        family=model.family,
        trials_ng=trials_ng,
        gauss_hess=gauss_hess,
        gauss_rhs=gauss_rhs,
        ng_c0=dz["ng_c0"],
        Qp=Qp,
        bp=dz["bp"],
        prior_c0=prior_c0,
    )


def joint_log_density(model: JointModel, v, theta) -> float:
    """log p(y | v, theta) + log p(v | theta) + log p(theta).

    Gaussian factors carry their full normalizing constants, so the value is
    exact up to additive terms that are fixed for the model instance.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (model.layout.dim,):
        raise SpecError("latent vector has shape %r, expected (%d,)" % (v.shape, model.layout.dim))
    cond = assemble_conditional(model, theta)
    theta = model.theta.validate(theta)
    return cond.log_density(v) + model.theta.log_prior(theta)


def block_log_densities(model: JointModel, v, theta) -> tuple:
    """(regression, exposure, proxy) block log likelihoods at (v, theta)."""
    v = np.asarray(v, dtype=float)
    cond = assemble_conditional(model, theta)
    eta = cond.A @ v + cond.offset
    out = []
    for sl in (cond.reg_slice, cond.exp_slice, cond.prox_slice):
        rows = np.arange(sl.start, sl.stop)
        if rows.size == 0:
            out.append(0.0)
            continue
        if sl is cond.reg_slice and model.family != "gaussian":
            terms = families.loglik(cond.family, cond.obs[sl], cond.trials_ng, eta[sl])
            ll = float(np.sum(terms)) + cond.ng_c0
        else:
            tau = cond.gprec[sl]
            res = cond.obs[sl] - eta[sl]
            ll = float(np.sum(-0.5 * tau * res * res + 0.5 * (np.log(tau) - LOG_2PI)))
        out.append(ll)
    return tuple(out)
