"""Joint model assembly for regression with covariate measurement error.

A fitted model couples up to three observation blocks, each contributing one
likelihood over a shared latent Gaussian field:

- the regression block: the outcome given the linear predictor,
- the exposure block (classical error only): zero-valued pseudo-observations
  encoding 0 = -x + alpha_0 + z alpha_z + eps_x with precision tau_x,
- the proxy block: observations w with mean x and precision tau_u scaled
  by known per-observation weights. Classical replicates read w = x + u
  and a Berkson proxy x = w + u; the Gaussian term is the same, so both
  kinds store one row per proxy value.

The regression and exposure coefficients (beta_0, beta_x in a model
without error, beta_z, alpha_0, alpha_z) each carry a Gaussian prior or a
fixed value. `build_joint_model` records that choice once, in the model's
coefficient table (`Coefficient`): the free coefficients open the latent
field, followed by x, x_star and gamma, and the fixed ones become offsets.
Components that a given model does not use are simply absent.
Hyperparameters are ordered (beta_x, tau_u, tau_x, family
hyperparameters). `copy_augment` appends a high-precision copy x_star of
beta_x * x so that the regression row reads x_star with unit coefficient,
turning the conditional latent distribution given hyperparameters into a
Gaussian-friendly form for any fixed beta_x.

The latent prior is Gaussian too, and joins the stacked rows as
pseudo-observations: each free coefficient with a proper prior observes
its prior mean with the prior precision, and each random effect gamma_i
observes 0 with precision tau_gamma. Given the hyperparameters, each
stacked row touches the few global coefficients and at most two
components of one local block (x_k, its copy and the random effects of
the rows sharing x_k), so the latent precision is block-arrowhead
(`LatentBlocks`) and the design is stored row by row, never as a dense
N x d matrix.

Continuous covariates and proxies are centered at build time, and the
applied constants are recorded on the model (`JointModel.centering`). The
intercepts beta_0 and alpha_0 are therefore on the centered scale; slopes
and precisions are unaffected.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

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
    "Coefficient",
    "JointModel",
    "Conditional",
    "LatentBlocks",
    "StackedRows",
    "build_joint_model",
    "copy_augment",
    "naive_spec",
    "joint_log_density",
    "block_log_densities",
    "assemble_conditional",
    "stacked_rows",
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
        _check_prior(self.beta_x, (GaussianPrior, FixedValue), "beta_x")
        for k, p in enumerate(self.beta_z):
            _check_prior(p, (GaussianPrior, FixedValue), "beta_z[%d]" % k)
        if len(self.beta_z) != len(self.covariates):
            raise SpecError(
                "beta_z has %d priors for %d covariates" % (len(self.beta_z), len(self.covariates))
            )
        # a covariate's coefficients are named beta_<name> and alpha_<name>,
        # which must not repeat a name of the parameter table
        taken = {"0": "the intercept beta_0"}
        if self.proxies:
            taken["x"] = "the slope beta_x of the mismeasured covariate"
        for k, col in enumerate(self.covariates):
            if col in self.covariates[:k]:
                raise SpecError("covariate %r is listed twice" % (col,))
            if col in taken:
                raise SpecError("covariate %r would share its coefficient names with %s"
                                % (col, taken[col]))
        # each column plays one role: replicate proxies are distinct columns,
        # and a column listed twice would count its values twice
        for k, col in enumerate(self.proxies):
            if col in self.proxies[:k]:
                raise SpecError("proxy %r is listed twice" % (col,))
            if col in self.covariates:
                raise SpecError("column %r is both a proxy and a covariate" % (col,))
        for role, cols in (("proxy", self.proxies), ("covariate", self.covariates)):
            if self.response in cols:
                raise SpecError("response %r is also listed as a %s" % (self.response, role))
        if self.trials is not None and self.observation.family != "binomial":
            raise SpecError("trials column %r only applies to the binomial family, not %s"
                            % (self.trials, self.observation.family))
        if self.error is None:
            if self.exposure is not None:
                raise SpecError("exposure model requires a classical error model")
            for key, col in (("weights", self.weights), ("group", self.group)):
                if col is not None:
                    raise SpecError("%s column %r requires a measurement error model" % (key, col))
        elif self.error.kind == "classical":
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
            if self.exposure is not None:
                raise SpecError("Berkson error models do not take an exposure model")
            if len(self.proxies) != 1:
                raise SpecError("Berkson error uses exactly one proxy column")
        if self.error is not None and not self.proxies:
            raise SpecError("measurement error models need at least one proxy column")


@dataclass(frozen=True)
class LatentLayout:
    """Ordered latent blocks: the names in order and their sizes; `slice`
    gives a block's latent index range."""

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

    def validate(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        self.columns(theta[None])
        return theta

    def columns(self, thetas: np.ndarray) -> dict:
        """Every hyperparameter value by name, one per row of thetas (K x m),
        each row checked as `validate` checks one point."""
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != self.dim:
            raise SpecError(
                "theta has shape %r, expected (%d,) for %s" % (thetas.shape[1:], self.dim, self.names)
            )
        if not np.all(np.isfinite(thetas)):
            raise SpecError("theta contains non-finite entries")
        logs = [i for i, e in enumerate(self.entries) if e.scale == "log"]
        bad = np.argwhere(thetas[:, logs] <= 0.0)
        if bad.size:
            row, i = bad[0][0], logs[bad[0][1]]
            raise SpecError("hyperparameter %s must be > 0, got %g" % (self.entries[i].name, thetas[row, i]))
        out = {name: np.full(thetas.shape[0], value) for name, value in self.fixed}
        out.update((name, thetas[:, i]) for i, name in enumerate(self.names))
        return out

    def named(self, theta: np.ndarray) -> dict:
        """Every hyperparameter value by name: the fixed ones, then the free ones."""
        out = dict(self.fixed)
        out.update(zip(self.names, np.asarray(theta, dtype=float).tolist()))
        return out

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
        if lam.shape != (self.dim,):
            raise SpecError("theta has shape %r, expected (%d,) for %s" % (lam.shape, self.dim, self.names))
        out = lam.copy()
        for i, e in enumerate(self.entries):
            if e.scale == "log":
                out[i] = math.exp(lam[i])
        return out

    def internal_log_jacobian(self, lam: np.ndarray) -> float:
        # d theta / d lambda = exp(lambda) on log-scale coordinates
        return float(sum(lam[i] for i, e in enumerate(self.entries) if e.scale == "log"))

    def init_natural(self) -> np.ndarray:
        # free entries carry a GaussianPrior or a GammaPrior, and both have a mean
        return np.array([e.prior.mean for e in self.entries], dtype=float)


@dataclass(frozen=True, eq=False)
class Coefficient:
    """One regression or exposure coefficient of the linear predictors.

    block is its latent block ("beta0", "beta_x", "beta_z", "alpha0" or
    "alpha_z"); column holds the values it multiplies, one per row of its
    observation block: the observed regression rows for a beta, the n_x
    exposure rows for an alpha. prior is a GaussianPrior, making the
    coefficient a component of the global latent block, or a FixedValue,
    making it a known offset.
    """

    name: str
    block: str
    column: np.ndarray
    prior: Prior

    @property
    def free(self) -> bool:
        return not isinstance(self.prior, FixedValue)

    @property
    def exposure(self) -> bool:
        """Whether the coefficient acts in the exposure rows."""
        return self.block.startswith("alpha")


@dataclass(eq=False)
class JointModel:
    """Assembled stacked model over a fixed dataset.

    `coefficients` is the coefficient table, in latent order: beta_0,
    beta_x (naive models only; under measurement error it is a
    hyperparameter), the beta_z, alpha_0, then the alpha_z. Its free
    entries are the first latent components, in that order; its fixed
    entries enter the linear predictors as offsets. The layout, the design
    and the sampler all derive from it. `parameter_names` is the table of
    reported parameters that every method's marginals and the chain's
    draws follow.

    Treat instances as immutable; `_cache` holds derived design matrices.
    """

    spec: ModelSpec
    n: int
    n_x: int
    y: np.ndarray
    trials: np.ndarray
    Z: np.ndarray
    coefficients: tuple
    reg_rows: np.ndarray
    x_index: Optional[np.ndarray]
    proxy_obs: Optional[np.ndarray]
    proxy_weights: Optional[np.ndarray]
    proxy_x_index: Optional[np.ndarray]
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

    @property
    def n_rows(self) -> int:
        """Stacked rows of the conditional: the three blocks, plus the copy
        links of an augmented model."""
        return sum(self.block_sizes) + (self.n_x if self.is_augmented else 0)

    def parameter_names(self) -> tuple:
        """The reported parameters, in the order every method writes them:
        the free coefficients, with beta_x second whether it is a
        coefficient (naive model) or a hyperparameter (error models), then
        the free precisions in theta order."""
        names = [c.name for c in self.coefficients if c.free]
        hypers = list(self.theta.names)
        if hypers[:1] == ["beta_x"]:
            names.insert(int(self.coefficients[0].free), hypers.pop(0))
        return tuple(names + hypers)

    def latent_names(self) -> tuple:
        names = [c.name for c in self.coefficients if c.free]
        for blk in ("x", "x_star", "gamma"):
            s = self.layout.slice(blk)
            if s is not None:
                names.extend("%s_%d" % (blk, i + 1) for i in range(s.stop - s.start))
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


def _proxy_weights(spec: ModelSpec, data) -> np.ndarray:
    """The known per-row proxy precision factors (all ones without a weights column)."""
    if spec.weights is None:
        return np.ones(data.n_rows)
    d_col = data.column(spec.weights).astype(float)
    if not np.all(np.isfinite(d_col)) or np.any(d_col <= 0):
        raise DataError("weights column %r must be positive and complete" % (spec.weights,))
    return d_col


def build_joint_model(spec: ModelSpec, data) -> JointModel:
    """Assemble the stacked joint model from a spec and a dataset.

    Validates column presence, absent-value placement, Berkson grouping and
    response integrity; centers proxies and continuous covariates (recording
    the constants in `centering`, which puts beta_0 and alpha_0 on the
    centered scale) when spec.center is set.
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

    # the proxy columns, one row per replicate
    wmat = np.vstack([data.column(c).astype(float) for c in spec.proxies]) if spec.proxies else None
    x_index = None
    proxy_obs = None
    proxy_weights = None
    proxy_x_index = None
    naive_x = None
    n_x = 0

    if spec.error is None:
        if wmat is not None:
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
        d_col = _proxy_weights(spec, data)
        # one proxy row per observed value, replicate by replicate
        replicate, proxy_x_index = np.nonzero(np.isfinite(wmat))
        if proxy_x_index.size == 0:
            raise DataError("no observed proxy values")
        proxy_obs = wmat[replicate, proxy_x_index]
        proxy_weights = d_col[proxy_x_index]
    else:  # berkson
        wvals = wmat[0]
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
        # each group takes the values of its first row; a row that differs
        # is reported by its 1-based position in the file
        _, first = np.unique(x_index, return_index=True)
        proxy_obs = wvals[first]
        bad = np.flatnonzero(wvals != proxy_obs[x_index])
        if bad.size:
            raise DataError(
                "proxy column %r is not constant within group (row %d)"
                % (spec.proxies[0], bad[0] + 1)
            )
        d_col = _proxy_weights(spec, data)
        proxy_weights = d_col[first]
        if np.any(d_col != proxy_weights[x_index]):
            raise DataError("weights column %r is not constant within group" % (spec.weights,))
        proxy_x_index = np.arange(n_x)
    if proxy_obs is not None and spec.center:
        m = float(np.mean(proxy_obs))
        proxy_obs = proxy_obs - m
        centering["+".join(spec.proxies)] = m

    # the coefficient table, in latent order; each beta column is taken at
    # the observed regression rows and each alpha column at the n_x = n
    # exposure rows
    classical = spec.error is not None and spec.error.kind == "classical"
    coefficients = [Coefficient("beta_0", "beta0", np.ones(reg_rows.size), spec.beta0)]
    if spec.error is None and naive_x is not None:
        coefficients.append(Coefficient("beta_x", "beta_x", naive_x[reg_rows], spec.beta_x))
    coefficients += [
        Coefficient("beta_%s" % c, "beta_z", Z[reg_rows, j], pr)
        for j, (c, pr) in enumerate(zip(spec.covariates, spec.beta_z))
    ]
    if classical:
        coefficients.append(Coefficient("alpha_0", "alpha0", np.ones(n), spec.exposure.alpha0))
        coefficients += [
            Coefficient("alpha_%s" % c, "alpha_z", Z[:, j], pr)
            for j, (c, pr) in enumerate(zip(spec.covariates, spec.exposure.alpha_z))
        ]

    # latent layout: the free coefficients by block, then x and gamma
    order = list(dict.fromkeys(c.block for c in coefficients))
    sizes = [sum(c.free for c in coefficients if c.block == blk) for blk in order]
    if spec.error is not None:
        order.append("x")
        sizes.append(n_x)
    if obs.random_effect is not None:
        order.append("gamma")
        sizes.append(n)
    layout = LatentLayout(order=tuple(order), sizes=tuple(sizes))

    # hyperparameter layout: (beta_x, tau_u, tau_x, family hyperparameters)
    entries: list = []
    fixed: list = []
    if spec.error is not None:
        _theta_entry("beta_x", "identity", spec.beta_x, entries, fixed)
        _theta_entry("tau_u", "log", spec.error.tau_u, entries, fixed)
        if classical:
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
        coefficients=tuple(coefficients),
        reg_rows=reg_rows,
        x_index=x_index,
        proxy_obs=proxy_obs,
        proxy_weights=proxy_weights,
        proxy_x_index=proxy_x_index,
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

@dataclass(frozen=True, eq=False)
class LatentBlocks:
    """Block-arrowhead structure of the latent precision, fixed per model.

    Given theta, the first p latent components (beta_0, beta_x, beta_z,
    alpha_0, alpha_z) form a dense global block, and the other m split
    into local blocks that only the global block couples: block k holds
    x_k, x_star_k and the gamma_i of the rows with x_index[i] == k, or a
    lone gamma_i when the model has no x. Work vectors list the global
    components first and then the local ones by slot, sorted by block
    size, block and position in the block; `perm` maps each work position
    to its latent index, and local latent component p + i sits in slot
    local_slot[i]. The blocks of size s form one group (s, count, slot0,
    flat0): they fill slots slot0 .. slot0 + count*s, and their s x s
    matrices fill entries flat0 .. flat0 + count*s*s of one flat array of
    length n_flat. Slot k's block row starts at row_start[k] of that
    array, where it sits at column col_in_block[k].

    Every block-arrowhead matrix of a batch of K points is stored flat, as
    K x n_hess with n_hess = p*p + m*p + n_flat: per point H_gg and the
    m x p H_lg row-major, then flat H_ll (`split`). `diag` indexes the
    whole diagonal of that row in work order, `local_groups` gives the
    local blocks of flat H_ll arrays one block size at a time, and
    `local_product` applies them. No other code computes a position in
    that row.

    The rows that the engine evaluates one by one (see `Conditional`)
    scatter into this structure through fixed indices, laid out with the
    row axis last: entry j of row r sits in slot slots[j, r] (q x n), and
    hess_index[j, c, r] (q x (p+q) x n) is the position in the flat row
    of its product with global column c < p (in H_lg) and, at c = p + k,
    of its pair with entry k (in H_ll). `scatter` sums K points' weights
    into the bins of one of these indices.
    """

    p: int
    m: int
    perm: np.ndarray
    groups: tuple
    n_flat: int
    local_slot: np.ndarray
    row_start: np.ndarray
    col_in_block: np.ndarray
    diag: np.ndarray
    slots: np.ndarray
    hess_index: np.ndarray
    _batched: dict = field(default_factory=dict, repr=False)

    @property
    def n_hess(self) -> int:
        return self.p * self.p + self.m * self.p + self.n_flat

    def row_index(self, cols: np.ndarray) -> tuple:
        """(slots, hess_index) of rows whose local entries sit at the latent
        columns cols (n x q), laid out as the fields of the same names."""
        return _row_index(self.local_slot, self.row_start, self.col_in_block, self.p, cols)

    def scatter(self, name: str, weights: np.ndarray, index: Optional[np.ndarray] = None) -> np.ndarray:
        """The K x bins sums of weights (K x the shape of index `name`,
        which is slots or hess_index) into that index's bins: the m slots
        or the n_hess entries of the flat row, each point into its own.

        The index for K points offsets point k's bins by k bin counts. It
        is a prefix of the index for more points, so the largest one built
        is kept and sliced. An index given (another set of rows' `row_index`)
        takes the place of the named field and is not kept.
        """
        K = weights.shape[0]
        bins = {"slots": self.m, "hess_index": self.n_hess}[name]
        kept = index is None
        base = getattr(self, name) if kept else index
        batched = self._batched.get(name) if kept else None
        if batched is None or batched.size < K * base.size:
            batched = (base.reshape(1, -1) + bins * np.arange(K)[:, None]).ravel()
            if kept:
                self._batched[name] = batched
        # with an empty index bincount counts in integers, weights or not
        return np.bincount(batched[:K * base.size], weights=weights.ravel(),
                           minlength=K * bins).reshape(K, bins).astype(float, copy=False)

    def split(self, H: np.ndarray) -> tuple:
        """Views (H_gg, H_lg, flat H_ll) of matrices stored flat (... x n_hess)."""
        p, m = self.p, self.m
        lead = H.shape[:-1]
        return (H[..., :p * p].reshape(lead + (p, p)), H[..., p * p:p * p + m * p].reshape(lead + (m, p)),
                H[..., p * p + m * p:])

    def matvec(self, H: np.ndarray, u: np.ndarray) -> np.ndarray:
        """H u for K matrices stored flat (K x n_hess) and K work vectors u.

        Every product is a stacked matrix product, one point at a time, on
        C-ordered vectors, so a point's result does not depend on the batch.
        """
        gg, lg, ll = self.split(H)
        p = self.p
        u_g = np.ascontiguousarray(u[:, :p])[..., None]
        u_l = np.ascontiguousarray(u[:, p:])
        out = np.empty(u.shape)
        out[:, :p] = (gg @ u_g)[..., 0] + (np.swapaxes(lg, 1, 2) @ u_l[..., None])[..., 0]
        out[:, p:] = (lg @ u_g)[..., 0] + self.local_product(ll, u_l)
        return out

    def local_groups(self, *flats: np.ndarray) -> Iterator[tuple]:
        """Per block size s, the slots of its blocks (a slice of the local
        part of a work vector) and, for each array of flats (K x n_flat),
        those blocks as a K x count x s x s view."""
        for s, count, slot0, flat0 in self.groups:
            yield (slice(slot0, slot0 + count * s),) + tuple(
                ll[:, flat0:flat0 + count * s * s].reshape(ll.shape[0], count, s, s) for ll in flats)

    def local_product(self, ll: np.ndarray, x: np.ndarray, transpose: bool = False,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
        """The local blocks of K flat arrays ll (K x n_flat), or their
        transposes, times the local rows of x (K x m ...), into out.

        The result is C-ordered unless out is given, so each point's vector
        has the same layout in a batch of any size.
        """
        if out is None:
            out = np.empty(x.shape)
        for slots, M in self.local_groups(ll):
            seg = x[:, slots].reshape(M.shape[:3] + (-1,))
            # splitting one axis in two always gives a view, so this writes into out
            res = out[:, slots].reshape(seg.shape)
            if M.shape[-1] == 1:
                np.multiply(M, seg, out=res)
            else:
                np.matmul(np.swapaxes(M, 2, 3) if transpose else M, seg, out=res)
        return out

    def to_latent(self, w: np.ndarray) -> np.ndarray:
        """Reorder work vectors (the last axis of w) to latent order."""
        out = np.empty_like(w)
        out[..., self.perm] = w
        return out


def _row_index(local_slot, row_start, col_in_block, p: int, cols: np.ndarray) -> tuple:
    # the flat row holds H_gg (p x p), then H_lg (m x p), then flat H_ll
    slots = np.ascontiguousarray(local_slot[cols - p].T)
    border = p * p + slots[:, None, :] * p + np.arange(p)[None, :, None]
    pairs = p * p + local_slot.size * p + row_start[slots][:, None, :] + col_in_block[slots][None, :, :]
    return slots, np.concatenate((border, pairs), axis=1)


def _latent_blocks(layout: LatentLayout, p: int, x_index, cols: np.ndarray,
                   row_cols: np.ndarray) -> LatentBlocks:
    """Local blocks from the latent layout, checked against the local
    columns cols of every stacked row, and the scatter indices of the rows
    evaluated one by one, whose local columns are row_cols."""
    m = layout.dim - p
    block = np.empty(m, dtype=np.intp)
    x_slice = layout.slice("x")
    for name in ("x", "x_star"):
        s = layout.slice(name)
        if s is not None:
            block[s.start - p:s.stop - p] = np.arange(s.stop - s.start)
    s = layout.slice("gamma")
    if s is not None:
        block[s.start - p:s.stop - p] = x_index if x_slice is not None else np.arange(s.stop - s.start)

    row_block = block[cols - p]
    bad = np.flatnonzero(np.any(row_block != row_block[:, :1], axis=1))
    if bad.size:
        raise SpecError("design row %d touches two local latent blocks" % (bad[0] + 1))

    size = np.bincount(block, minlength=int(block.max()) + 1 if m else 0)
    first = np.argsort(block, kind="stable")
    pos = np.empty(m, dtype=np.intp)
    pos[first] = np.arange(m) - (np.cumsum(size) - size)[block[first]]
    order = np.lexsort((pos, block, size[block]))
    slot = np.empty(m, dtype=np.intp)
    slot[order] = np.arange(m)

    # slot k of a group (s, count, slot0, flat0) starts its block row at
    # flat0 + (k - slot0) * s and sits at column (k - slot0) % s
    row_start = np.empty(m, dtype=np.intp)
    col_in_block = np.empty(m, dtype=np.intp)
    groups = []
    slot0 = flat0 = 0
    for s in np.unique(size):
        s = int(s)
        count = int(np.count_nonzero(size == s))
        k = np.arange(count * s)
        row_start[slot0:slot0 + count * s] = flat0 + k * s
        col_in_block[slot0:slot0 + count * s] = k % s
        groups.append((s, count, slot0, flat0))
        slot0 += count * s
        flat0 += count * s * s

    slots, hess_index = _row_index(slot, row_start, col_in_block, p, row_cols)
    # the local diagonal pairs each slot with itself, in slot order
    self_pairs = _row_index(slot, row_start, col_in_block, p, p + order[:, None])[1][0, p]
    return LatentBlocks(
        p=p,
        m=m,
        perm=np.concatenate((np.arange(p), p + order)),
        groups=tuple(groups),
        n_flat=flat0,
        local_slot=slot,
        row_start=row_start,
        col_in_block=col_in_block,
        diag=np.concatenate((np.arange(p) * (p + 1), self_pairs)),
        slots=slots,
        hess_index=hess_index,
    )


@dataclass(frozen=True, eq=False)
class StackedRows:
    """The stacked rows of a model at one hyperparameter point, row by row.

    The row blocks reg_slice, exp_slice, prox_slice, copy_slice (the links
    0 = x_star - beta_x x of a copy-augmented model) and prior_slice (the
    latent prior: a row observing its prior mean for each free coefficient
    with a proper prior, then a row observing 0 for each random effect)
    follow each other. Row r has the linear predictor eta_r = A[r] v[:p]
    + sum_j vals[r, j] v[cols[r, j]] + offset[r] (A is N x p; a row's at
    most q local entries sit at cols, N x q, and padding entries have
    value 0), the observation obs[r] and the Gaussian precision
    precision[r], which is 0 on the regression rows of a binomial or
    Poisson response; trials holds the trials of those rows. This is the
    form the model is defined in; the engine reads the `Conditional` built
    from it.
    """

    family: str
    A: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    obs: np.ndarray
    offset: np.ndarray
    precision: Optional[np.ndarray]
    trials: Optional[np.ndarray]
    reg_slice: slice
    exp_slice: slice
    prox_slice: slice
    copy_slice: slice
    prior_slice: slice

    def eta(self, v: np.ndarray) -> np.ndarray:
        """Linear predictor of every row at the latent vector v."""
        eta = self.A @ v[:self.A.shape[1]] + self.offset
        for j in range(self.cols.shape[1]):
            eta = eta + self.vals[:, j] * v[self.cols[:, j]]
        return eta


@dataclass(eq=False)
class Conditional:
    """Everything the Gaussian engine needs about p(v | y, theta), at K
    hyperparameter points at once.

    The log density splits two ways, by how each part is evaluated.

    - The Gaussian rows (exposure, proxy, the regression rows of a
      gaussian response and the latent prior's rows) give a quadratic in
      the work-order latent vector u (see `LatentBlocks`): gauss_const +
      gauss_lin' u - u' Q u / 2, with gauss_lin K x d and Q stored flat in
      gauss_hess (K x n_hess). Q is also these rows' share of the negative
      Hessian. `_design` builds the theta-free pieces once per model, one
      per row-precision hyperparameter and power of beta_x, and
      `assemble_conditional` sums them with theta at O(d) cost per point,
      so no pass over these rows is made per point. gauss_const also holds
      every theta-free normalizing constant, the binomial or Poisson rows'
      included.
    - The rows evaluated one by one: the regression rows of a binomial or
      Poisson response (family_rows), then the copy links 0 = x_star -
      beta_x x of an augmented model (copy_rows), whose precision
      copy_precision (1e9 by default) would make an expanded quadratic
      lose all signal to cancellation; they stay in residual form. A row's
      linear predictor is eta = A v[:p] + sum_j vals[:, j] v[cols[:, j]] +
      offset, where A (n x p, column-major) holds every row's global
      coefficients, zero on the copy links, and a row's at most q <= 2
      local entries sit at latent columns cols (n x q) with values vals
      (K x q x n, entry by entry; padding entries have value 0). obs
      holds the family rows' observations and 0 on the copy links, and
      trials_ng the family rows' trials (None for a gaussian response).
      row_gram holds the outer products A[r, a] * A[r, b], one row per
      pair (a, b) in row-major order (p*p x n), from which the global
      block of the Hessian is summed.

    `_design` builds one template per model, whose gauss_hess (n_hess),
    gauss_lin (d) and gauss_const are the quadratic of the rows of fixed
    precision, and `assemble_conditional` copies it with the
    theta-dependent values of K points filled in: vals, gauss_hess,
    gauss_lin and gauss_const. Every other field is shared by the K
    points.
    """

    dim: int
    blocks: LatentBlocks
    family: str
    A: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    obs: np.ndarray
    offset: np.ndarray
    family_rows: slice
    copy_rows: slice
    copy_precision: float
    trials_ng: Optional[np.ndarray]
    row_gram: np.ndarray
    gauss_hess: np.ndarray
    gauss_lin: np.ndarray
    gauss_const: np.ndarray

    def subset(self, points) -> "Conditional":
        """The conditional at the points indexed (or masked) by points."""
        return replace(self, vals=self.vals[points], gauss_hess=self.gauss_hess[points],
                       gauss_lin=self.gauss_lin[points], gauss_const=self.gauss_const[points])

    def eta(self, v: np.ndarray) -> np.ndarray:
        """Linear predictor of the rows evaluated one by one (K x n) at the
        latent vectors v (K x d), one per point.

        The global part is one matrix product per point, so a point's value
        does not depend on the batch it is in.
        """
        eta = np.empty((v.shape[0],) + self.offset.shape)
        eta[...] = self.offset
        for j in range(self.cols.shape[1]):
            eta += self.vals[:, j] * v[:, self.cols[:, j]]
        eta += (v[:, None, :self.A.shape[1]] @ self.A.T)[:, 0, :]
        return eta

    def linear_maps(self, v: np.ndarray) -> tuple:
        """(eta(v), Q u): the two linear maps of v (K x d) that the log
        density and its gradient share, Q u of the Gaussian rows being in
        work order."""
        return self.eta(v), self.blocks.matvec(self.gauss_hess, v[:, self.blocks.perm])

    def log_density(self, v: np.ndarray, maps: Optional[tuple] = None) -> np.ndarray:
        """log p(y | v, theta) + log p(v | theta), constants included, of
        each point at its row of v (K x d); maps is `linear_maps(v)` when
        known."""
        eta, Qu = self.linear_maps(v) if maps is None else maps
        u = v[:, self.blocks.perm]
        val = self.gauss_const + (u * (self.gauss_lin - 0.5 * Qu)).sum(axis=-1)
        copy = eta[:, self.copy_rows]
        if copy.size:
            val = val - 0.5 * self.copy_precision * (copy * copy).sum(axis=-1)
        if self.trials_ng is not None:
            rows = self.family_rows
            terms = families.loglik(self.family, self.obs[rows], self.trials_ng, eta[:, rows])
            val = val + terms.sum(axis=-1)
        return val


def _block_pieces(blocks: LatentBlocks, A, cols, vals, power, resid, factor) -> dict:
    """The Gaussian rows of one row-precision entry in block form.

    Row r adds -factor[r] (resid[r] - A[r] v[:p] - sum_j b^power[r, j]
    vals[r, j] v[cols[r, j]])^2 / 2 to the log density, where resid is
    obs - offset and b is beta_x. Expanded in the work-order vector u,
    that is const + lin' u - u' Q u / 2, and each entry of Q and lin
    collects a single power of b. Returns {power: [Q stored flat (n_hess),
    lin (d), const]} for each power present.
    """
    p = blocks.p
    slots, index = blocks.row_index(cols)
    fv, pw = factor * vals.T, power.T
    # the rows' products laid out as index (border columns, then pairs) and
    # the power of b each collects; each power present is one row of the
    # scatter, as each point is in the engine's
    products = np.concatenate((fv[:, None, :] * A.T, fv[:, None, :] * vals.T), axis=1)
    powers = np.concatenate((np.repeat(pw[:, None, :], p, axis=1), pw[:, None, :] + pw), axis=1)
    present = np.unique(np.concatenate(([0], pw.ravel(), powers.ravel())))
    hess = blocks.scatter("hess_index", (powers == present[:, None, None, None]) * products, index=index)
    lin = np.zeros((present.size, p + blocks.m))
    lin[:, p:] = blocks.scatter("slots", (pw == present[:, None, None]) * ((factor * resid) * vals.T),
                                index=slots)
    blocks.split(hess[0])[0][:] = (A.T * factor) @ A
    lin[0, :p] = A.T @ (factor * resid)
    const = -0.5 * float(np.sum(factor * resid * resid))
    return {int(P): [hess[i], lin[i], const if P == 0 else 0.0] for i, P in enumerate(present)}


@dataclass(frozen=True, eq=False)
class _Design:
    """A model's theta-free stacked rows and conditional, and how theta
    fills them in.

    rows has 0 at the beta_x entries of vals and no precisions: its vals
    at theta are vals + beta_sign * beta_x, and precisions is the
    row-precision table of the Gaussian rows, per row block (rows,
    hyperparameter name, factor), the rows' precision being the named
    value times factor, or factor alone where the name is None (the
    coefficient prior rows). The template conditional's vals take
    row_beta_sign * beta_x in the same way. Its Gaussian rows are its own
    quadratic (the rows of fixed precision, and every theta-free
    constant) plus the sum over pieces (name, power, Q, lin, const) of
    value(name) * beta_x**power times (Q, lin, const), plus count/2 log
    value(name) for each normalizer (name, count).
    """

    rows: StackedRows
    beta_sign: np.ndarray
    precisions: tuple
    template: Conditional
    row_beta_sign: np.ndarray
    pieces: tuple
    normalizers: tuple


def _design(model: JointModel) -> _Design:
    """The model's theta-free stacked rows and conditional (cached)."""
    cache = model._cache
    if "design" in cache:
        return cache["design"]

    layout = model.layout
    d = layout.dim
    rr = model.reg_rows
    n_reg, n_exp, n_prox = model.block_sizes
    n_copy = model.n_rows - n_reg - n_exp - n_prox
    free = [c.prior for c in model.coefficients if c.free]
    p = len(free)
    proper = [k for k, prior in enumerate(free) if prior.precision > 0.0]
    g_slice = layout.slice("gamma")
    n_gamma = 0 if g_slice is None else g_slice.stop - g_slice.start

    reg_slice = slice(0, n_reg)
    exp_slice = slice(n_reg, n_reg + n_exp)
    prox_slice = slice(n_reg + n_exp, n_reg + n_exp + n_prox)
    copy_slice = slice(n_reg + n_exp + n_prox, model.n_rows)
    coef_prior = slice(model.n_rows, model.n_rows + len(proper))
    gamma_prior = slice(coef_prior.stop, coef_prior.stop + n_gamma)
    N = gamma_prior.stop

    # A is the transpose of a p x N array, so the matrix products of the
    # engine read each global column contiguously
    A = np.zeros((p, N)).T
    obs = np.zeros(N)
    offset = np.zeros(N)
    obs[reg_slice] = model.y[rr]
    if n_prox:
        obs[prox_slice] = model.proxy_obs

    # free coefficient k is latent component k and fills column k of A; a
    # fixed one adds its share of the linear predictor to the offset
    k = 0
    for c in model.coefficients:
        rows = exp_slice if c.exposure else reg_slice
        if c.free:
            A[rows, k] = c.column
            k += 1
        else:
            offset[rows] += c.prior.value * c.column
    # a proper prior on a free coefficient is one row observing its mean
    A[np.arange(coef_prior.start, coef_prior.stop), proper] = 1.0
    obs[coef_prior] = [free[k].mean for k in proper]

    # the precision of every Gaussian row block; binomial and Poisson rows
    # and the copy links have none here
    gaussian_blocks = [(exp_slice, "tau_x", 1.0), (prox_slice, "tau_u", model.proxy_weights),
                       (coef_prior, None, np.array([free[k].precision for k in proper])),
                       (gamma_prior, "tau_gamma", 1.0)]
    if model.family == "gaussian":
        gaussian_blocks.insert(0, (reg_slice, "tau_eps", 1.0))
    precisions = tuple(entry for entry in gaussian_blocks if entry[0].stop > entry[0].start)

    # local entries as (rows, latent columns, value, sign); a nonzero sign
    # marks a coefficient sign * beta_x that assemble_conditional fills in:
    # beta_x on x in the plain regression rows, -beta_x on x in the
    # copy-link rows 0 = x_star - beta_x x
    x_slice = layout.slice("x")
    xs_slice = layout.slice("x_star")
    entries = []
    if x_slice is not None:
        if model.is_augmented:
            entries.append((np.arange(n_reg), xs_slice.start + model.x_index[rr], 1.0, 0.0))
        else:
            entries.append((np.arange(n_reg), x_slice.start + model.x_index[rr], 0.0, 1.0))
    if g_slice is not None:
        entries.append((np.arange(n_reg), g_slice.start + rr, 1.0, 0.0))
    if n_exp:
        entries.append((exp_slice.start + np.arange(n_exp), x_slice.start + np.arange(n_exp), -1.0, 0.0))
    if n_prox:
        entries.append((prox_slice.start + np.arange(n_prox), x_slice.start + model.proxy_x_index, 1.0, 0.0))
    if n_copy:
        rows = copy_slice.start + np.arange(n_copy)
        entries.append((rows, xs_slice.start + np.arange(n_copy), 1.0, 0.0))
        entries.append((rows, x_slice.start + np.arange(n_copy), 0.0, -1.0))
    if n_gamma:
        entries.append((gamma_prior.start + np.arange(n_gamma), g_slice.start + np.arange(n_gamma), 1.0, 0.0))
    counts = np.bincount(np.concatenate([e[0] for e in entries]), minlength=N) if entries else np.zeros(N, int)
    q = int(counts.max()) if N else 0
    cols = np.full((N, q), p, dtype=np.intp)
    vals = np.zeros((N, q))
    beta_sign = np.zeros((N, q))
    filled = np.zeros(N, dtype=np.intp)
    for rows, c, value, sign in entries:
        k = filled[rows]
        cols[rows, k] = c
        vals[rows, k] = value
        beta_sign[rows, k] = sign
        filled[rows] += 1
    for j in range(1, q):
        # padding repeats the row's first column, so it stays in its block
        pad = counts <= j
        cols[pad, j] = cols[pad, 0]

    trials = model.trials[rr] if model.family != "gaussian" else None
    stacked = StackedRows(family=model.family, A=A, cols=cols, vals=vals, obs=obs, offset=offset,
                          precision=None, trials=trials, reg_slice=reg_slice, exp_slice=exp_slice,
                          prox_slice=prox_slice, copy_slice=copy_slice,
                          prior_slice=slice(model.n_rows, N))

    # the rows evaluated one by one: the regression rows of a binomial or
    # Poisson response, then the copy links
    n_fam = n_reg if trials is not None else 0
    one_by_one = np.concatenate((np.arange(n_fam), copy_slice.start + np.arange(n_copy)))
    blocks = _latent_blocks(layout, p, model.x_index, cols, cols[one_by_one])

    # the Gaussian rows in block form, one piece per row-precision
    # hyperparameter and power of beta_x; the rows of fixed precision, the
    # theta-free parts of every normalizing constant and the copy links'
    # go to the template's own quadratic
    power = (beta_sign != 0).astype(np.intp)
    unit = vals + beta_sign
    resid = obs - offset
    pieces, normalizers = [], []
    gauss_hess, gauss_lin = np.zeros(blocks.n_hess), np.zeros(d)
    gauss_const = 0.0
    for rows, name, factor in precisions:
        factor = np.broadcast_to(np.asarray(factor, dtype=float), (rows.stop - rows.start,))
        found = _block_pieces(blocks, A[rows], cols[rows], unit[rows], power[rows], resid[rows], factor)
        gauss_const += 0.5 * (float(np.sum(np.log(factor))) - factor.size * LOG_2PI)
        if name is None:
            Q, lin, const = found[0]
            gauss_hess += Q
            gauss_lin += lin
            gauss_const += const
        else:
            pieces += [(name, P, Q, lin, const) for P, (Q, lin, const) in sorted(found.items())]
            normalizers.append((name, factor.size))
    if n_copy:
        gauss_const += 0.5 * n_copy * (math.log(model.copy_precision) - LOG_2PI)
    if trials is not None:
        gauss_const += families.log_normalizer(model.family, obs[reg_slice], trials)

    # column-major like A: with a C-ordered copy the global part of the
    # gradient changes in its last bits
    A_rows = np.asfortranarray(A[one_by_one])
    template = Conditional(
        dim=d,
        blocks=blocks,
        family=model.family,
        A=A_rows,
        cols=cols[one_by_one],
        vals=np.ascontiguousarray(vals[one_by_one].T),
        obs=obs[one_by_one],
        offset=offset[one_by_one],
        family_rows=slice(0, n_fam),
        copy_rows=slice(n_fam, n_fam + n_copy),
        copy_precision=model.copy_precision if n_copy else 0.0,
        trials_ng=trials,
        row_gram=(A_rows.T[:, None, :] * A_rows.T[None, :, :]).reshape(p * p, one_by_one.size),
        gauss_hess=gauss_hess,
        gauss_lin=gauss_lin,
        gauss_const=gauss_const,
    )
    cache["design"] = _Design(
        rows=stacked,
        beta_sign=beta_sign,
        precisions=precisions,
        template=template,
        row_beta_sign=np.ascontiguousarray(beta_sign[one_by_one].T),
        pieces=tuple(pieces),
        normalizers=tuple(normalizers),
    )
    return cache["design"]


def stacked_rows(model: JointModel, theta) -> StackedRows:
    """The stacked rows at one hyperparameter point theta (m values), with
    beta_x and the row precisions filled in."""
    named = model.theta.named(model.theta.validate(theta))
    design = _design(model)
    rows = design.rows
    vals = rows.vals + design.beta_sign * named.get("beta_x", 0.0)
    precision = np.zeros(rows.obs.size)
    for sl, name, factor in design.precisions:
        precision[sl] = factor if name is None else named[name] * factor
    if model.is_augmented:
        precision[rows.copy_slice] = model.copy_precision
    return replace(rows, vals=vals, precision=precision)


def assemble_conditional(model: JointModel, theta) -> Conditional:
    """The conditional p(v | y, theta) of the stacked model at the K rows
    of theta (K x m; a single point of m values is a batch of one).

    Copies the model's theta-free Conditional (`_design`) with the beta_x
    coefficients of its one-by-one rows filled in, and adds the Gaussian
    rows' pieces, weighted by theta, to its quadratic; a point's values
    are the same in any batch.
    """
    thetas = np.atleast_2d(np.asarray(theta, dtype=float))
    column = model.theta.columns(thetas).__getitem__
    K = thetas.shape[0]
    design = _design(model)
    cond = design.template

    beta_x = column("beta_x") if design.beta_sign.any() else np.zeros(K)
    vals = cond.vals + design.row_beta_sign * beta_x[:, None, None]

    # each piece weighted by its hyperparameter and power of beta_x, summed
    # elementwise in a fixed order onto the template's own quadratic
    gauss_hess = np.repeat(cond.gauss_hess[None], K, axis=0)
    gauss_lin = np.repeat(cond.gauss_lin[None], K, axis=0)
    gauss_const = np.full(K, cond.gauss_const)
    term = np.empty(gauss_hess.shape)
    for name, power, Q, lin, const in design.pieces:
        weight = column(name) * beta_x ** power if power else column(name)
        gauss_hess += np.multiply(weight[:, None], Q, out=term)
        gauss_lin += weight[:, None] * lin
        gauss_const += weight * const
    for name, count in design.normalizers:
        gauss_const += 0.5 * count * np.log(column(name))

    return replace(cond, vals=vals, gauss_hess=gauss_hess, gauss_lin=gauss_lin, gauss_const=gauss_const)


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
    return float(cond.log_density(v[None])[0]) + model.theta.log_prior(theta)


def block_log_densities(model: JointModel, v, theta) -> tuple:
    """(regression, exposure, proxy) block log likelihoods at (v, theta)."""
    rows = stacked_rows(model, theta)
    eta = rows.eta(np.asarray(v, dtype=float))
    out = []
    for sl in (rows.reg_slice, rows.exp_slice, rows.prox_slice):
        if sl is rows.reg_slice and rows.trials is not None:
            obs = rows.obs[sl]
            terms = families.loglik(rows.family, obs, rows.trials, eta[sl])
            out.append(float(np.sum(terms)) + families.log_normalizer(rows.family, obs, rows.trials))
        else:
            tau, res = rows.precision[sl], rows.obs[sl] - eta[sl]
            out.append(float(np.sum(-0.5 * tau * res * res + 0.5 * (np.log(tau) - LOG_2PI))))
    return tuple(out)
