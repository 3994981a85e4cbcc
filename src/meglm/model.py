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

Given the hyperparameters, each stacked row touches the few global
coefficients and at most two components of one local block (x_k, its
copy and the random effects of the rows sharing x_k), so the latent
precision is block-arrowhead (`LatentBlocks`) and the design is stored
row by row, never as a dense N x d matrix.

Continuous covariates and proxies are centered at build time, and the
applied constants are recorded on the model (`JointModel.centering`). The
intercepts beta_0 and alpha_0 are therefore on the centered scale; slopes
and precisions are unaffected.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

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
        _check_prior(self.beta_x, (GaussianPrior, FixedValue), "beta_x")
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

    def named(self, theta: np.ndarray) -> dict:
        """Every hyperparameter value by name: the fixed ones, then the free ones."""
        out = dict(self.fixed)
        out.update(zip(self.names, np.asarray(theta, dtype=float).tolist()))
        return out

    def value(self, name: str, theta: np.ndarray) -> float:
        named = self.named(theta)
        if name not in named:
            raise SpecError("no hyperparameter named %r" % (name,))
        return named[name]

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
    and the sampler all derive from it.

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
    to its latent index. The blocks of size s form one group (s, count,
    slot0, flat0): they fill slots slot0 .. slot0 + count*s, and their
    s x s matrices fill entries flat0 .. flat0 + count*s*s of one flat
    array of length n_flat, where `diag` indexes each slot's diagonal.

    Design rows scatter into this structure through fixed indices, laid
    out with the row axis last: entry j of row r sits in slot slots[j, r]
    (q x N) and its pair with entry k at pair_index[j, k, r] (q x q x N) of
    the flat array. Only the first n_global_rows rows (regression and
    exposure) have global coefficients; the product of entry j with global
    column c lands in the row-major m x p border at border_index[j, c, r]
    (q x p x n_global_rows).
    """

    p: int
    m: int
    perm: np.ndarray
    groups: tuple
    n_flat: int
    diag: np.ndarray
    slots: np.ndarray
    pair_index: np.ndarray
    n_global_rows: int
    border_index: np.ndarray
    _batched: dict = field(default_factory=dict, repr=False)

    def scatter_index(self, name: str, K: int) -> np.ndarray:
        """Raveled index array `name` (slots, pair_index or border_index) for
        K points, point k's bins offset by k times one point's bin count.

        The index for K points is a prefix of the index for more, so the
        largest one built is kept and sliced.
        """
        base = getattr(self, name)
        index = self._batched.get(name)
        if index is None or index.size < K * base.size:
            bins = {"slots": self.m, "pair_index": self.n_flat, "border_index": self.m * self.p}[name]
            index = (base.reshape(1, -1) + bins * np.arange(K)[:, None]).ravel()
            self._batched[name] = index
        return index[:K * base.size]

    def to_latent(self, w: np.ndarray) -> np.ndarray:
        """Reorder work vectors (the last axis of w) to latent order."""
        out = np.empty_like(w)
        out[..., self.perm] = w
        return out


def _latent_blocks(layout: LatentLayout, p: int, x_index, cols: np.ndarray,
                   n_global_rows: int) -> LatentBlocks:
    """Local blocks from the latent layout, and the scatter indices of the rows."""
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

    slots = np.ascontiguousarray(slot[cols - p].T)
    return LatentBlocks(
        p=p,
        m=m,
        perm=np.concatenate((np.arange(p), p + order)),
        groups=tuple(groups),
        n_flat=flat0,
        diag=row_start + col_in_block,
        slots=slots,
        pair_index=row_start[slots][:, None, :] + col_in_block[slots][None, :, :],
        n_global_rows=n_global_rows,
        border_index=slots[:, None, :n_global_rows] * p + np.arange(p)[None, :, None],
    )


@dataclass(eq=False)
class Conditional:
    """Everything the Gaussian engine needs about p(v | y, theta).

    The stacked rows cover regression, exposure, proxy, and (for augmented
    models) the copy-link pseudo-observations 0 = x_star - beta_x x. Each
    row is stored compactly: its coefficients on the p global latent
    components are a row of A (N x p), and its at most q <= 2 coefficients
    on local components sit at latent columns cols with values vals (both
    N x q; padding entries have value 0), so the linear predictor is
    eta = A v[:p] + sum_j vals[:, j] v[cols[:, j]] + offset. gauss_hess
    holds each row's Gaussian precision, which is also its curvature weight
    (0 on binomial or Poisson rows); gauss_rows spans the Gaussian rows,
    which follow the regression rows of a binomial or Poisson response.
    Gaussian rows are always evaluated in
    residual form, never through an expanded quadratic, so stiff blocks
    such as the 1e9 copy link do not cancel catastrophically. For a
    binomial or Poisson response the reg_slice rows are not Gaussian:
    trials_ng holds their trials and ng_c0 their summed normalizing
    constant. The latent prior is independent, with precisions prior_prec
    and precision-weighted means bp. blocks is the model's block-arrowhead
    structure. row_gram holds the outer products A[r, a] * A[r, b] of the
    global rows, one row per pair (a, b) in row-major order (p*p x
    n_global_rows), from which the global block of the Hessian is summed.

    A Conditional holds K hyperparameter points at once. `_design` builds
    one theta-free template per model, and `assemble_conditional` copies it
    with the theta-dependent values of K points filled in: the beta_x
    entries of vals (K x N x q), gauss_hess (K x N), gauss_const (K),
    prior_prec (K x d) and prior_c0 (K). Every other field is shared by the
    K points.
    """

    dim: int
    A: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    obs: np.ndarray
    offset: np.ndarray
    gauss_hess: Optional[np.ndarray]
    gauss_rows: slice
    gauss_const: float
    reg_slice: slice
    exp_slice: slice
    prox_slice: slice
    family: str
    trials_ng: Optional[np.ndarray]
    ng_c0: float
    prior_prec: np.ndarray
    bp: np.ndarray
    prior_c0: float
    blocks: LatentBlocks
    row_gram: np.ndarray

    def subset(self, points) -> "Conditional":
        """The conditional at the points indexed (or masked) by points."""
        return replace(self, vals=self.vals[points], gauss_hess=self.gauss_hess[points],
                       gauss_const=self.gauss_const[points], prior_prec=self.prior_prec[points],
                       prior_c0=self.prior_c0[points])

    def eta(self, v: np.ndarray) -> np.ndarray:
        """Linear predictor of every stacked row (K x N) at the latent
        vectors v (K x d), one per point.

        The global part is one matrix product per point, so a point's value
        does not depend on the batch it is in.
        """
        k = self.blocks.n_global_rows
        eta = np.empty((v.shape[0],) + self.offset.shape)
        eta[...] = self.offset
        for j in range(self.cols.shape[1]):
            eta += self.vals[:, :, j] * v[:, self.cols[:, j]]
        eta[:, :k] += (v[:, None, :self.A.shape[1]] @ self.A[:k].T)[:, 0, :]
        return eta

    def log_density(self, v: np.ndarray) -> np.ndarray:
        """log p(y | v, theta) + log p(v | theta), constants included, of
        each point at its row of v (K x d)."""
        eta = self.eta(v)
        rows = self.gauss_rows
        res = self.obs[rows] - eta[:, rows]
        val = self.gauss_const - 0.5 * (self.gauss_hess[:, rows] * res * res).sum(axis=-1)
        if self.trials_ng is not None:
            rows = self.reg_slice
            terms = families.loglik(self.family, self.obs[rows], self.trials_ng, eta[:, rows])
            val = val + terms.sum(axis=-1) + self.ng_c0
        return (val + self.prior_c0 + (self.bp * v).sum(axis=-1)
                - 0.5 * (self.prior_prec * v * v).sum(axis=-1))


def _design(model: JointModel) -> tuple:
    """The model's theta-free Conditional and how theta fills it in (cached).

    Returns (template, precisions, beta_at, beta_sign). The template has 0
    at the beta_x entries of vals, where beta_sign * beta_x belongs, no
    gauss_hess, and the prior of the coefficients only. precisions is the
    row-precision table: per row block, (rows, hyperparameter name or None,
    factor), the rows' precision being the named value times factor, or
    factor itself.
    """
    cache = model._cache
    if "design" in cache:
        return cache["design"]

    layout = model.layout
    d = layout.dim
    rr = model.reg_rows
    n_reg, n_exp, n_prox = model.block_sizes
    N = model.n_rows
    n_copy = N - n_reg - n_exp - n_prox
    p = sum(c.free for c in model.coefficients)

    # A is the transpose of a p x N array, so the matrix products of the
    # engine read each global column contiguously
    A = np.zeros((p, N)).T
    obs = np.zeros(N)
    offset = np.zeros(N)
    reg_slice = slice(0, n_reg)
    exp_slice = slice(n_reg, n_reg + n_exp)
    prox_slice = slice(n_reg + n_exp, n_reg + n_exp + n_prox)
    copy_slice = slice(n_reg + n_exp + n_prox, N)

    obs[reg_slice] = model.y[rr]
    if n_prox:
        obs[prox_slice] = model.proxy_obs

    # free coefficient k is latent component k and fills column k of A; a
    # fixed one adds its share of the linear predictor to the offset
    prior_prec = np.zeros(d)
    prior_mean = np.zeros(d)
    k = 0
    for c in model.coefficients:
        rows = exp_slice if c.exposure else reg_slice
        if c.free:
            A[rows, k] = c.column
            prior_prec[k] = c.prior.precision
            prior_mean[k] = c.prior.mean
            k += 1
        else:
            offset[rows] += c.prior.value * c.column

    # every row block's precision; binomial and Poisson rows have none
    precisions = tuple(
        entry for entry in (
            (reg_slice, "tau_eps", 1.0) if model.family == "gaussian" else (reg_slice, None, 0.0),
            (exp_slice, "tau_x", 1.0),
            (prox_slice, "tau_u", model.proxy_weights),
            (copy_slice, None, model.copy_precision),
        )
        if entry[0].stop > entry[0].start
    )

    # local entries as (rows, latent columns, value, sign); a nonzero sign
    # marks a coefficient sign * beta_x that assemble_conditional fills in:
    # beta_x on x in the plain regression rows, -beta_x on x in the
    # copy-link rows 0 = x_star - beta_x x
    x_slice = layout.slice("x")
    xs_slice = layout.slice("x_star")
    g_slice = layout.slice("gamma")
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
    beta_at = np.nonzero(beta_sign)

    # expand log N(v; m, 1/p) = [log(p)/2 - log(2 pi)/2 - p m^2/2] + (p m) v - p v^2/2
    bp = prior_prec * prior_mean
    const = 0.0
    for pk in prior_prec:
        if pk > 0.0:
            const += 0.5 * (math.log(pk) - LOG_2PI)
    const -= 0.5 * float(np.sum(prior_prec * prior_mean * prior_mean))

    ng_c0 = 0.0
    trials_ng = None
    if model.family != "gaussian":
        trials_ng = model.trials[rr]
        ng_c0 = families.log_normalizer(model.family, obs[reg_slice], trials_ng)

    template = Conditional(
        dim=d,
        A=A,
        cols=cols,
        vals=vals,
        obs=obs,
        offset=offset,
        gauss_hess=None,
        # every row is Gaussian except the regression rows of a binomial
        # or Poisson response
        gauss_rows=slice(n_reg if model.family != "gaussian" else 0, N),
        gauss_const=math.nan,
        reg_slice=reg_slice,
        exp_slice=exp_slice,
        prox_slice=prox_slice,
        family=model.family,
        trials_ng=trials_ng,
        ng_c0=ng_c0,
        prior_prec=prior_prec,
        bp=bp,
        prior_c0=const,
        blocks=_latent_blocks(layout, p, model.x_index, cols, n_reg + n_exp),
        row_gram=(A[:n_reg + n_exp].T[:, None, :] * A[:n_reg + n_exp].T[None, :, :]).reshape(p * p, n_reg + n_exp),
    )
    cache["design"] = (template, precisions, beta_at, beta_sign[beta_at])
    return cache["design"]


def assemble_conditional(model: JointModel, theta) -> Conditional:
    """The conditional p(v | y, theta) of the stacked model at the K rows
    of theta (K x m; a single point of m values is a batch of one).

    Copies the model's theta-free Conditional (`_design`) with the beta_x
    coefficients of the local entries, the row precisions of its
    row-precision table and the random-effect prior filled in; a point's
    values are the same in any batch.
    """
    thetas = np.atleast_2d(np.asarray(theta, dtype=float))
    points = [model.theta.named(model.theta.validate(t)) for t in thetas]
    K = len(points)
    cond, precisions, beta_at, beta_sign = _design(model)

    def column(name):
        return np.array([named[name] for named in points])[:, None]

    vals = np.repeat(cond.vals[None], K, axis=0)
    if beta_sign.size:
        vals[(slice(None),) + beta_at] = beta_sign * column("beta_x")

    gauss_hess = np.empty((K, cond.obs.size))
    for rows, name, factor in precisions:
        gauss_hess[:, rows] = factor if name is None else column(name) * factor
    gauss_const = 0.5 * (np.log(gauss_hess[:, cond.gauss_rows]) - LOG_2PI).sum(axis=-1)

    # latent prior; only the random-effect precision depends on theta
    prior_prec = np.repeat(cond.prior_prec[None], K, axis=0)
    prior_c0 = np.full(K, cond.prior_c0)
    s = model.layout.slice("gamma")
    if s is not None:
        tau_gamma = column("tau_gamma")
        prior_prec[:, s] = tau_gamma
        prior_c0 += 0.5 * (s.stop - s.start) * (np.log(tau_gamma[:, 0]) - LOG_2PI)

    return replace(cond, vals=vals, gauss_hess=gauss_hess, gauss_const=gauss_const,
                   prior_prec=prior_prec, prior_c0=prior_c0)


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
    cond = assemble_conditional(model, theta)
    eta = cond.eta(np.asarray(v, dtype=float)[None])[0]
    out = []
    for sl in (cond.reg_slice, cond.exp_slice, cond.prox_slice):
        if sl is cond.reg_slice and cond.trials_ng is not None:
            terms = families.loglik(cond.family, cond.obs[sl], cond.trials_ng, eta[sl])
            out.append(float(np.sum(terms)) + cond.ng_c0)
        else:
            tau, res = cond.gauss_hess[0, sl], cond.obs[sl] - eta[sl]
            out.append(float(np.sum(-0.5 * tau * res * res + 0.5 * (np.log(tau) - LOG_2PI))))
    return tuple(out)
