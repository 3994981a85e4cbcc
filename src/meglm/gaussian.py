"""Block-arrowhead Gaussian numerics for the latent field given hyperparameters.

Given theta the latent precision is block-arrowhead (see
`model.LatentBlocks`): a small dense global block coupled to many small
local blocks that do not touch each other. Newton steps with step halving
factor the local blocks in stacked batches, one per block size, and then
the Schur complement of the global block; log determinants add over the
blocks, and marginal variances come from selected inversion, so no d x d
or N x d matrix is ever formed. Models whose likelihood blocks are all
Gaussian have a closed-form posterior, where the Newton result is exact
after a single step. Only numpy's linear algebra is used, so a single
OpenBLAS thread pool serves every solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import families
from .errors import NumericError, SpecError
from .model import Conditional, JointModel, LatentBlocks, assemble_conditional
from .priors import LOG_2PI

__all__ = [
    "ArrowheadFactor",
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


def _apply(M: np.ndarray, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Stacked (count, s, s) matrices, or their transposes, times the count*s rows of x."""
    count, s, _ = M.shape
    seg = x.reshape(count, s, -1)
    if s == 1:
        res = M * seg
    else:
        res = (np.swapaxes(M, 1, 2) if transpose else M) @ seg
    return res.reshape(x.shape)


def _blockwise(blocks: LatentBlocks, mats: list, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Apply the local factors of every block-size group to the local rows of x."""
    out = np.empty_like(x)
    for (s, count, k0, _), M in zip(blocks.groups, mats):
        out[k0:k0 + count * s] = _apply(M, x[k0:k0 + count * s], transpose)
    return out


@dataclass(eq=False)
class ArrowheadFactor:
    """Cholesky factor H = L L' of a block-arrowhead precision.

    With the local components ordered first, L = [[L_ll, 0], [B', L_S]]:
    chol and inv hold L_ll and its inverse as one stacked (count, s, s)
    array per block size, border is B = L_ll^{-1} H_lg (m x p), and chol_s
    and inv_s are the factor of the Schur complement S = H_gg - B'B and its
    inverse. Vectors are in work order (global components, then slots).
    """

    blocks: LatentBlocks
    chol: list
    inv: list
    border: np.ndarray
    chol_s: np.ndarray
    inv_s: np.ndarray
    log_det: float

    def solve(self, r: np.ndarray) -> np.ndarray:
        """H^{-1} r by block elimination of the local components."""
        p = self.blocks.p
        y = _blockwise(self.blocks, self.inv, r[p:])
        x_g = self.inv_s.T @ (self.inv_s @ (r[:p] - self.border.T @ y))
        x_l = _blockwise(self.blocks, self.inv, y - self.border @ x_g, transpose=True)
        return np.concatenate((x_g, x_l))

    def quadratic(self, u: np.ndarray) -> float:
        """u' H u as ||L' u||^2."""
        p = self.blocks.p
        t_l = _blockwise(self.blocks, self.chol, u[p:], transpose=True) + self.border @ u[:p]
        t_g = self.chol_s.T @ u[:p]
        return float(t_l @ t_l) + float(t_g @ t_g)

    def backsolve(self, z: np.ndarray) -> np.ndarray:
        """L'^{-1} z, which maps standard normal draws to draws with precision H."""
        p = self.blocks.p
        x_g = self.inv_s.T @ z[:p]
        x_l = _blockwise(self.blocks, self.inv, z[p:] - self.border @ x_g, transpose=True)
        return np.concatenate((x_g, x_l))

    def variances(self) -> np.ndarray:
        """diag(H^{-1}) by selected inversion.

        The global block's covariance is S^{-1}. A local block k adds to
        its own inverse H_kk^{-1} the term C C' with C = L_kk^{-T} B_k L_S^{-T},
        so only the diagonals of block-sized products are formed.
        """
        own = [(M * M).sum(axis=1).ravel() for M in self.inv]
        C = _blockwise(self.blocks, self.inv, self.border @ self.inv_s.T, transpose=True)
        local = np.concatenate(own) + (C * C).sum(axis=1) if own else np.zeros(0)
        return np.concatenate(((self.inv_s * self.inv_s).sum(axis=0), local))


def _arrowhead_factor(blocks: LatentBlocks, gg, lg, ll) -> ArrowheadFactor:
    chol, inv = [], []
    border = np.empty_like(lg)
    log_det = 0.0
    for s, count, k0, f0 in blocks.groups:
        H = ll[f0:f0 + count * s * s].reshape(count, s, s)
        if s == 1:
            if not (H > 0.0).all():
                raise np.linalg.LinAlgError("local block is not positive definite")
            L = np.sqrt(H)
            Linv = 1.0 / L
            log_det += 2.0 * float(np.log(L).sum())
        else:
            L = np.linalg.cholesky(H)
            Linv = np.linalg.inv(L)
            log_det += 2.0 * float(np.log(np.diagonal(L, axis1=1, axis2=2)).sum())
        chol.append(L)
        inv.append(Linv)
        border[k0:k0 + count * s] = _apply(Linv, lg[k0:k0 + count * s])
    chol_s = np.linalg.cholesky(gg - border.T @ border)
    log_det += 2.0 * float(np.log(chol_s.diagonal()).sum())
    return ArrowheadFactor(
        blocks=blocks,
        chol=chol,
        inv=inv,
        border=border,
        chol_s=chol_s,
        inv_s=np.linalg.inv(chol_s),
        log_det=log_det,
    )


def _factor(blocks: LatentBlocks, H: tuple) -> ArrowheadFactor:
    """Factor H = (H_gg, H_lg, flat H_ll); on failure retry once with RIDGE on the diagonal."""
    try:
        return _arrowhead_factor(blocks, *H)
    except np.linalg.LinAlgError:
        pass
    gg, lg, ll = H
    ll = ll.copy()
    ll[blocks.diag] += RIDGE
    try:
        return _arrowhead_factor(blocks, gg + RIDGE * np.eye(blocks.p), lg, ll)
    except np.linalg.LinAlgError:
        raise NumericError("conditional precision is not positive definite")


@dataclass(eq=False)
class GaussianApprox:
    """Gaussian approximation (or exact posterior) of the latent field.

    The precision at the mode is kept as its block-arrowhead factor; the
    mode and every result are in latent order.
    """

    mode: np.ndarray
    factor: ArrowheadFactor
    converged_in: int
    log_density_at_mode: float

    @property
    def dim(self) -> int:
        return int(self.mode.size)

    @property
    def log_det_precision(self) -> float:
        return self.factor.log_det

    def marginal_sd(self, indices=None) -> np.ndarray:
        """Marginal posterior standard deviations by selected inversion."""
        sd = self.factor.blocks.to_latent(np.sqrt(self.factor.variances()))
        if indices is None:
            return sd
        return sd[np.atleast_1d(np.asarray(indices, dtype=int))]

    def logpdf(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != self.mode.shape:
            raise SpecError("dimension mismatch: x has %d entries, mode %d" % (x.size, self.dim))
        u = (x - self.mode)[self.factor.blocks.perm]
        quad = self.factor.quadratic(u)
        return -0.5 * self.dim * LOG_2PI + 0.5 * self.log_det_precision - 0.5 * quad

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> np.ndarray:
        d = self.dim
        z = rng.standard_normal(size=(d,) if size is None else (d, size))
        shift = self.factor.blocks.to_latent(self.factor.backsolve(z))
        if size is None:
            return self.mode + shift
        return self.mode[:, None] + shift


def _hessian(cond: Conditional, w: np.ndarray) -> tuple:
    """(H_gg, H_lg, flat H_ll) of the rows with curvature weights w plus the prior."""
    blocks = cond.blocks
    p, m = blocks.p, blocks.m
    k = blocks.n_global_rows
    Ag = cond.A[:k]
    wg = w[:k]
    prior = cond.prior_prec[blocks.perm]
    gg = (Ag.T * wg) @ Ag
    gg.flat[::p + 1] += prior[:p]
    if not m:
        return gg, np.zeros((0, p)), np.zeros(0)
    # with no global components (p = 0) bincount sees no entries and
    # returns integers, hence the cast
    lg = np.bincount(
        blocks.border_index,
        weights=((wg[:, None] * cond.vals[:k])[:, :, None] * Ag[:, None, :]).ravel(),
        minlength=m * p,
    ).reshape(m, p).astype(float, copy=False)
    wv = w[:, None] * cond.vals
    ll = np.bincount(blocks.pair_index, weights=(wv[:, :, None] * cond.vals[:, None, :]).ravel(),
                     minlength=blocks.n_flat)
    ll[blocks.diag] += prior[p:]
    return gg, lg, ll


def _grad_hess(cond: Conditional, v: np.ndarray, hess: bool = True):
    """Gradient (in work order) of the log density at v, and its negative Hessian blocks."""
    # Gaussian-row gradient in residual form: forming tau * (obs - eta) row
    # by row keeps the stiff copy rows accurate near the mode, where the
    # expanded normal-equation form loses all signal to cancellation.
    blocks = cond.blocks
    p = blocks.p
    eta = cond.eta(v)
    score = cond.gauss_hess * (cond.obs - eta)
    w = cond.gauss_hess
    if cond.trials_ng is not None:
        rows = cond.reg_slice
        s, W = families.score_weight(cond.family, cond.obs[rows], cond.trials_ng, eta[rows])
        score[rows] += s
        w = w.copy()
        w[rows] = W
    g = (cond.bp - cond.prior_prec * v)[blocks.perm]
    g[:p] += cond.A.T @ score
    g[p:] += np.bincount(blocks.slots.ravel(), weights=(cond.vals * score[:, None]).ravel(),
                         minlength=blocks.m)
    return g, (_hessian(cond, w) if hess else None)


def _newton(cond: Conditional, init: Optional[np.ndarray]) -> GaussianApprox:
    d = cond.dim
    blocks = cond.blocks
    v = np.zeros(d) if init is None else np.array(init, dtype=float)
    if v.shape != (d,):
        raise SpecError("initial latent vector has shape %r, expected (%d,)" % (v.shape, d))
    f = cond.log_density(v)
    if not math.isfinite(f):
        v = np.zeros(d)
        f = cond.log_density(v)
    # with every row Gaussian the Hessian does not depend on v, so it is
    # assembled and factored once per solve
    constant = cond.trials_ng is None
    H = F = None
    steps = 0
    for _ in range(MAX_NEWTON_ITER):
        g, H_v = _grad_hess(cond, v, hess=H is None or not constant)
        if H_v is not None:
            H, F = H_v, None
        # The gradient of a quadratic with curvature h can only be computed
        # to about eps * h * |v| in floating point, so stiff coordinates
        # (e.g. the 1e9 copy coupling) get a curvature-scaled floor; mode
        # displacement along them at that floor is O(eps * |v|).
        diag = np.concatenate((H[0].diagonal(), H[2][blocks.diag]))
        floor = 16.0 * _EPS * (1.0 + float(np.abs(v).max(initial=0.0)))
        converged = (np.abs(g) <= np.maximum(NEWTON_TOL, floor * diag)).all()
        if F is None:
            F = _factor(blocks, H)
        if converged:
            return GaussianApprox(v, F, steps, f)
        step_w = F.solve(g)
        decrement_sq = float(g @ step_w)
        step = blocks.to_latent(step_w)
        if decrement_sq <= 64.0 * _EPS * (1.0 + abs(f)):
            # the predicted gain from this step is below the roundoff floor
            # of the objective, so no line search can certify progress (this
            # happens when a warm start lands inside the resolution basin of
            # the mode); the full step still sharpens the mode estimate, so
            # take it when it keeps f flat and finish
            v_new = v + step
            f_new = cond.log_density(v_new)
            if math.isfinite(f_new) and f_new >= f - 1.0e-10 * (1.0 + abs(f)):
                v, f = v_new, f_new
                steps += 1
                if not constant:
                    F = _factor(blocks, _grad_hess(cond, v)[1])
            return GaussianApprox(v, F, steps, f)
        # accept steps that keep f flat to within roundoff, not only strict
        # ascents: near the mode the objective is quadratic in a step below
        # sqrt(eps), so demanding f_new >= f exactly would damp the step to
        # nothing and strand the gradient just above its tolerance
        slack = 4.0 * _EPS * (1.0 + abs(f))
        t = 1.0
        for _ in range(MAX_HALVINGS):
            v_new = v + t * step
            f_new = cond.log_density(v_new)
            if math.isfinite(f_new) and f_new >= f - slack:
                break
            t *= 0.5
        else:
            if not (math.isfinite(f_new) and f_new >= f - 1.0e-10 * (1.0 + abs(f))):
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
    """Closed-form latent posterior when every likelihood block is Gaussian.

    The log density is quadratic, so its mean is the Newton step from zero:
    the precision H solves against the gradient at the origin.
    """
    if model.family != "gaussian":
        raise SpecError("exact posterior requires a gaussian outcome family, got %r" % model.family)
    cond = assemble_conditional(model, theta)
    g, H = _grad_hess(cond, np.zeros(cond.dim))
    F = _factor(cond.blocks, H)
    mean = cond.blocks.to_latent(F.solve(g))
    return GaussianApprox(mean, F, 0, cond.log_density(mean))
