"""Block-arrowhead Gaussian numerics for the latent field given hyperparameters.

Given theta the latent precision is block-arrowhead (see
`model.LatentBlocks`): a small dense global block coupled to many small
local blocks that do not touch each other. Newton steps with step halving
factor the local blocks in stacked batches, one per block size, and then
the Schur complement of the global block; log determinants add over the
blocks, and marginal variances come from selected inversion, so no d x d
or N x d matrix is ever formed. The precisions, Newton Hessians and
factors of a batch share one flat layout, a row of `LatentBlocks.n_hess`
entries per point, and only `LatentBlocks` computes positions in it:
this module reaches the blocks through its views (`split`,
`local_groups`), its products (`local_product`) and its scatter-adds
(`scatter`, whose hess_index holds positions in the flat row), and it
reads H_gg as the row's first p*p entries. Models whose likelihood
blocks are all Gaussian have a closed-form posterior, where the Newton
result is exact after a single step.

The engine iterates in work order (`LatentBlocks.perm`), the order of
the gradient, the Hessian and its factor; a solve converts only its init
and its results to and from latent order.

The Gaussian rows, the latent prior's among them, reach the engine
already summed into a quadratic in block form (`model.Conditional`), so
the gradient, the Hessian and the log density of a Newton iteration pass
row by row only over the binomial or Poisson outcome rows and the copy
links, which share one global design; everything else costs O(d) per
point. A Gaussian response without copy links has no such rows.

Every solve runs on a batch: the conditionals at K hyperparameter points
(`assemble_conditional` with a K x m theta) are iterated together, and a
point leaves the batch when it converges or fails; a failure is that
point's result alone. Each operation acts on one point's own rows
(elementwise arithmetic, sums along the row axis, scatter-adds into the
point's own bins, and LAPACK and matrix products per stacked matrix), so
a point's result does not depend on the batch it was solved in.
`latent_gaussian_approx` is the batch of one. Only numpy's linear algebra
is used, so a single OpenBLAS thread pool serves every solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import families
from .errors import NumericError, SpecError
from .model import Conditional, JointModel, LatentBlocks, assemble_conditional
from .priors import LOG_2PI

__all__ = [
    "ArrowheadFactor",
    "GaussianApprox",
    "LatentBatch",
    "latent_gaussian_approx",
    "latent_gaussian_batches",
    "exact_linear_gaussian_posterior",
    "BATCH_ELEMENTS",
    "NEWTON_TOL",
    "MAX_NEWTON_ITER",
]

NEWTON_TOL = 1.0e-8
MAX_NEWTON_ITER = 100
RIDGE = 1.0e-8
MAX_HALVINGS = 60
# points x stacked rows per batched solve. Once a model's scatter indices
# are built (`LatentBlocks.scatter`), a full batch and its marginal SDs
# peak (tracemalloc) at about 76 bytes per element on framingham_like
# (n = 140; 75 at n = 2000), 127 on ibex_like and 415 on seedling_like,
# whose 5 x 5 local blocks outweigh its 75 rows: 4.8, 8.0 and 25.9 MiB.
# A model's first full batch also builds those indices, 0.75 MiB more on
# framingham_like and 4.0 MiB more on seedling_like. At n = 140 every
# shell of the framingham_like walk fits in one batch.
BATCH_ELEMENTS = 1 << 16
_EPS = float(np.finfo(float).eps)


def _mv(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Stacked matrices times stacked vectors: (K, a, b) by (K, b) gives (K, a).

    numpy multiplies point by point; the vectors are made C-ordered first,
    since the product's rounding can depend on a vector's stride.
    """
    return (M @ np.ascontiguousarray(x)[..., None])[..., 0]


def _t(M: np.ndarray) -> np.ndarray:
    return np.swapaxes(M, -1, -2)


@dataclass(eq=False)
class ArrowheadFactor:
    """Cholesky factors H = L L' of K block-arrowhead precisions.

    With the local components ordered first, L = [[L_ll, 0], [B', L_S]],
    where B = L_ll^{-1} H_lg and L_S is the factor of the Schur complement
    S = H_gg - B'B. inv stores the K factors flat, like the precisions
    (`LatentBlocks.split`, K x n_hess): row k holds point k's L_S^{-1} in
    the H_gg slot, B in the H_lg slot and the local blocks' L_ll^{-1} in
    the H_ll slots. log_det holds log det H per point. Vectors are K x d,
    in work order (global components, then slots).
    """

    blocks: LatentBlocks
    inv: np.ndarray
    log_det: np.ndarray

    def subset(self, points) -> "ArrowheadFactor":
        """The factors of the points indexed (or masked) by points."""
        return ArrowheadFactor(self.blocks, self.inv[points], self.log_det[points])

    def put(self, points, other: "ArrowheadFactor") -> None:
        """Overwrite the factors of the points indexed by points with other's."""
        self.inv[points], self.log_det[points] = other.inv, other.log_det

    def solve(self, r: np.ndarray) -> np.ndarray:
        """H^{-1} r by block elimination of the local components."""
        p, local = self.blocks.p, self.blocks.local_product
        inv_s, border, inv_ll = self.blocks.split(self.inv)
        y = local(inv_ll, r[:, p:])
        x_g = _mv(_t(inv_s), _mv(inv_s, r[:, :p] - _mv(_t(border), y)))
        x_l = local(inv_ll, y - _mv(border, x_g), transpose=True)
        return np.concatenate((x_g, x_l), axis=1)

    def quadratic(self, u: np.ndarray) -> np.ndarray:
        """u' H u as ||L' u||^2, per point, with L' u solved against the inverses."""
        p = self.blocks.p
        inv_s, border, inv_ll = self.blocks.split(self.inv)
        t_g = np.linalg.solve(_t(inv_s), u[:, :p, None])[..., 0]
        t_l = _mv(border, u[:, :p])
        for slots, M in self.blocks.local_groups(inv_ll):
            seg = u[:, p:][:, slots].reshape(M.shape[:3] + (1,))
            t_l[:, slots] += np.linalg.solve(_t(M), seg).reshape(t_l[:, slots].shape)
        return (t_l * t_l).sum(axis=1) + (t_g * t_g).sum(axis=1)

    def backsolve(self, z: np.ndarray) -> np.ndarray:
        """L'^{-1} z for z of shape (K, d, S): standard normal draws to draws with precision H."""
        p = self.blocks.p
        inv_s, border, inv_ll = self.blocks.split(self.inv)
        x_g = _t(inv_s) @ z[:, :p]
        x_l = self.blocks.local_product(inv_ll, z[:, p:] - border @ x_g, transpose=True)
        return np.concatenate((x_g, x_l), axis=1)

    def variances(self) -> np.ndarray:
        """diag(H^{-1}) by selected inversion, K x d.

        The global block's covariance is S^{-1}. A local block k adds to
        its own inverse H_kk^{-1} the term C C' with C = L_kk^{-T} B_k L_S^{-T},
        so only the diagonals of block-sized products are formed.
        """
        inv_s, border, inv_ll = self.blocks.split(self.inv)
        C = self.blocks.local_product(inv_ll, border @ _t(inv_s), transpose=True)
        local = (C * C).sum(axis=2)
        for slots, M in self.blocks.local_groups(inv_ll):
            local[:, slots] += (M * M).sum(axis=2).reshape(local[:, slots].shape)
        return np.concatenate(((inv_s * inv_s).sum(axis=1), local), axis=1)


def _cholesky(M: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Stacked Cholesky factors of the K matrices (or matrix stacks) in M.

    A point whose matrix is not positive definite is flagged in ok and
    gets identity factors, so the batch's arithmetic stays finite.
    """
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        pass
    out = np.empty_like(M)
    for k in range(M.shape[0]):
        try:
            out[k] = np.linalg.cholesky(M[k])
        except np.linalg.LinAlgError:
            ok[k] = False
            out[k] = np.eye(M.shape[-1])
    return out


def _arrowhead_factor(blocks: LatentBlocks, H: np.ndarray) -> tuple:
    """(factor, ok): the factors of K precisions stored flat (K x n_hess),
    and which were positive definite."""
    K = H.shape[0]
    gg, lg, ll = blocks.split(H)
    ok = np.ones(K, dtype=bool)
    inv = np.empty(H.shape)
    inv_s, border, inv_ll = blocks.split(inv)
    log_det = np.zeros(K)
    for _, M, Linv in blocks.local_groups(ll, inv_ll):
        if M.shape[-1] == 1:
            pd = (M > 0.0).reshape(K, -1).all(axis=1)
            ok &= pd
            L = np.sqrt(M if pd.all() else np.where(pd[:, None, None, None], M, 1.0))
            np.divide(1.0, L, out=Linv)
            log_det += 2.0 * np.log(L).reshape(K, -1).sum(axis=1)
        else:
            L = _cholesky(M, ok)
            Linv[:] = np.linalg.inv(L)
            log_det += 2.0 * np.log(np.diagonal(L, axis1=2, axis2=3)).reshape(K, -1).sum(axis=1)
    blocks.local_product(inv_ll, lg, out=border)
    chol_s = _cholesky(gg - _t(border) @ border, ok)
    log_det += 2.0 * np.log(np.diagonal(chol_s, axis1=1, axis2=2)).sum(axis=1)
    inv_s[:] = np.linalg.inv(chol_s)
    return ArrowheadFactor(blocks, inv, log_det), ok


def _factor(blocks: LatentBlocks, H: np.ndarray) -> tuple:
    """(factor, ok) of K precisions stored flat (K x n_hess).

    A point that is not positive definite is retried once with RIDGE on
    its diagonal; ok is False where that fails too.
    """
    F, ok = _arrowhead_factor(blocks, H)
    if ok.all():
        return F, ok
    bad = np.flatnonzero(~ok)
    ridged = H[bad]
    ridged[:, blocks.diag] += RIDGE
    F_ridged, ok_ridged = _arrowhead_factor(blocks, ridged)
    F.put(bad, F_ridged)
    ok[bad] = ok_ridged
    return F, ok


@dataclass(eq=False)
class GaussianApprox:
    """Gaussian approximation (or exact posterior) of the latent field.

    The precision at the mode is kept as its block-arrowhead factor (a
    batch of one); the mode and every result are in latent order.
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
        return float(self.factor.log_det[0])

    def marginal_sd(self, indices=None) -> np.ndarray:
        """Marginal posterior standard deviations by selected inversion."""
        sd = self.factor.blocks.to_latent(np.sqrt(self.factor.variances()))[0]
        if indices is None:
            return sd
        return sd[np.atleast_1d(np.asarray(indices, dtype=int))]

    def logpdf(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != self.mode.shape:
            raise SpecError("dimension mismatch: x has %d entries, mode %d" % (x.size, self.dim))
        u = (x - self.mode)[self.factor.blocks.perm]
        quad = float(self.factor.quadratic(u[None])[0])
        return -0.5 * self.dim * LOG_2PI + 0.5 * self.log_det_precision - 0.5 * quad

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> np.ndarray:
        d = self.dim
        z = rng.standard_normal(size=(d,) if size is None else (d, size))
        work = self.factor.backsolve(z.reshape(1, d, -1))[0]
        shift = self.factor.blocks.to_latent(work.T).T
        if size is None:
            return self.mode + shift[:, 0]
        return self.mode[:, None] + shift


@dataclass(eq=False)
class LatentBatch:
    """Gaussian approximations of the latent field at K hyperparameter points.

    Row k of mode, log_density_at_mode, log_det_precision and converged_in
    belongs to point k, and error[k] is None or the NumericError that ended
    its solve (its rows then hold no result). factor holds the K factors,
    allocated with the batch. A batch starts empty and is filled in as its
    points finish or fail.
    """

    mode: np.ndarray
    log_density_at_mode: np.ndarray
    converged_in: np.ndarray
    error: list
    factor: ArrowheadFactor

    def finish(self, points, u, F: ArrowheadFactor, steps, f) -> None:
        """Record the results of the indexed points: modes u (in work
        order), factors F, Newton iterations steps and log densities f."""
        self.mode[points] = self.factor.blocks.to_latent(u)
        self.factor.put(points, F)
        self.converged_in[points] = steps
        self.log_density_at_mode[points] = f

    def fail(self, points, message: str) -> None:
        for k in points:
            self.error[k] = NumericError(message)

    @property
    def size(self) -> int:
        return len(self.error)

    @property
    def dim(self) -> int:
        return int(self.mode.shape[1])

    @property
    def log_det_precision(self) -> np.ndarray:
        return self.factor.log_det

    def marginal_sd(self, points) -> np.ndarray:
        """Marginal standard deviations at the indexed points, one row each."""
        factor = self.factor.subset(points)
        return factor.blocks.to_latent(np.sqrt(factor.variances()))

    def approx(self, k: int) -> GaussianApprox:
        """Point k's approximation; raises its NumericError if its solve failed."""
        if self.error[k] is not None:
            raise self.error[k]
        return GaussianApprox(self.mode[k].copy(), self.factor.subset([k]),
                              int(self.converged_in[k]), float(self.log_density_at_mode[k]))


def _hessian(cond: Conditional, w: np.ndarray) -> np.ndarray:
    """The negative Hessians, stored flat (K x n_hess), for curvature
    weights w (K x n) of the one-by-one rows: their border and pair
    products in one `LatentBlocks.scatter` through hess_index, plus the
    Gaussian rows' block form cond.gauss_hess, plus the rows' H_gg (the
    first p*p entries), summed per point. With no such rows this is
    cond.gauss_hess itself.
    """
    if not w.shape[1]:
        return cond.gauss_hess
    vals, p = cond.vals, cond.blocks.p
    K, q, n = vals.shape
    wv = (w[:, None, :] * vals)[:, :, None, :]
    products = np.empty((K, q, p + q, n))
    np.multiply(wv, cond.A.T, out=products[:, :, :p])
    np.multiply(wv, vals[:, None, :, :], out=products[:, :, p:])
    H = cond.blocks.scatter("hess_index", products)
    H += cond.gauss_hess
    # H_gg sums w_r a_r a_r' over the rows: one matrix-vector product
    # per point against the rows' outer products
    H[:, :p * p] += (w[:, None, :] @ cond.row_gram.T)[:, 0, :]
    return H


def _grad_hess(cond: Conditional, v: np.ndarray, hess: bool = True, maps: Optional[tuple] = None):
    """Gradients (K x d) of the batch's log densities at the rows of the
    work-order v, and their negative Hessians stored flat (`_hessian`);
    maps is `cond.linear_maps(v)` when known."""
    # the Gaussian rows' gradient is gauss_lin - Q u; the copy links keep
    # the residual form tau * (0 - eta) row by row, which stays accurate
    # near the mode, where their expanded form loses all signal to
    # cancellation
    p = cond.blocks.p
    eta, Qu = cond.linear_maps(v) if maps is None else maps
    g = cond.gauss_lin - Qu
    score = np.empty(eta.shape)
    w = np.empty(eta.shape)
    rows = cond.copy_rows
    score[:, rows] = -cond.copy_precision * eta[:, rows]
    w[:, rows] = cond.copy_precision
    if cond.trials_ng is not None:
        rows = cond.family_rows
        score[:, rows], w[:, rows] = families.score_weight(cond.family, cond.obs[rows], cond.trials_ng,
                                                           eta[:, rows])
    if eta.shape[1]:
        g[:, :p] += (score[:, None, :] @ cond.A)[:, 0, :]
        g[:, p:] += cond.blocks.scatter("slots", cond.vals * score[:, None, :])
    return g, (_hessian(cond, w) if hess else None)


def _finish_flat(out: LatentBatch, cond: Conditional, points, v, step, f, F: ArrowheadFactor,
                 steps: int, constant: bool) -> None:
    """Finish the points whose Newton step cannot certify a gain: each takes
    its full step if that keeps its log density flat to within 1e-10, and
    leaves with the curvature at the point it ends on."""
    v_new = v + step
    maps_new = cond.linear_maps(v_new)
    f_new = cond.log_density(v_new, maps_new)
    take = np.isfinite(f_new) & (f_new >= f - 1.0e-10 * (1.0 + np.abs(f)))
    ok = np.ones(take.size, dtype=bool)
    if not constant and take.any():
        moved, moved_maps = cond, maps_new
        if not take.all():
            moved, moved_maps = cond.subset(take), tuple(a[take] for a in maps_new)
        F_new, ok[take] = _factor(cond.blocks, _grad_hess(moved, v_new[take], maps=moved_maps)[1])
        F.put(np.flatnonzero(take), F_new)
    out.fail(points[~ok], "conditional precision is not positive definite")
    out.finish(points[ok], np.where(take[:, None], v_new, v)[ok], F.subset(ok), steps + take[ok],
               np.where(take, f_new, f)[ok])


def _newton(cond: Conditional, init: Optional[np.ndarray]) -> LatentBatch:
    """Newton with step halving on every point of a batched conditional.

    Every point starts from init (one latent vector), or from zero where
    init is None or its log density is not finite there; the iterates are
    in work order. All points still iterating take the same iteration
    together: each either converges, finishes with a step below the
    round-off floor, or takes a line-searched step; a point that cannot
    be factored or whose line search fails leaves with its NumericError.
    The linear maps of the accepted step (`Conditional.linear_maps`) are
    carried into the next iteration's gradient.
    """
    d = cond.dim
    blocks = cond.blocks
    K = cond.gauss_hess.shape[0]
    v = np.zeros((K, d))
    if init is not None:
        v0 = np.array(init, dtype=float)
        if v0.shape != (d,):
            raise SpecError("initial latent vector has shape %r, expected (%d,)" % (v0.shape, d))
        v[:] = v0[blocks.perm]
    maps = cond.linear_maps(v)
    f = cond.log_density(v, maps)
    cold = ~np.isfinite(f)
    if cold.any():
        v[cold] = 0.0
        cold_cond = cond.subset(cold)
        cold_maps = cold_cond.linear_maps(v[cold])
        f[cold] = cold_cond.log_density(v[cold], cold_maps)
        for a, b in zip(maps, cold_maps):
            a[cold] = b
    out = LatentBatch(np.zeros((K, d)), np.full(K, -math.inf), np.zeros(K, dtype=int), [None] * K,
                      ArrowheadFactor(blocks, np.zeros((K, blocks.n_hess)), np.zeros(K)))
    points = np.arange(K)
    # with every row Gaussian the Hessian does not depend on v, so it is
    # assembled and factored once per solve
    constant = cond.trials_ng is None
    H = F = None

    def narrow(keep):
        """Drop the points not in the mask keep from the iteration."""
        nonlocal points, v, f, step, maps, cond, H, F
        points, v, f, step = points[keep], v[keep], f[keep], step[keep]
        maps = tuple(a[keep] for a in maps)
        cond = cond.subset(keep)
        if constant:
            H, F = H[keep], F.subset(keep)

    for steps in range(MAX_NEWTON_ITER):
        if H is None:
            g, H = _grad_hess(cond, v, maps=maps)
        else:
            g = _grad_hess(cond, v, hess=False, maps=maps)[0]
        # The gradient of a quadratic with curvature h can only be computed
        # to about eps * h * |v| in floating point, so stiff coordinates
        # (e.g. the 1e9 copy coupling) get a curvature-scaled floor; mode
        # displacement along them at that floor is O(eps * |v|).
        floor = 16.0 * _EPS * (1.0 + np.abs(v).max(axis=1, initial=0.0))
        scaled = floor[:, None] * H[:, blocks.diag]
        converged = (np.abs(g) <= np.maximum(NEWTON_TOL, scaled)).all(axis=1)
        ok = np.ones(points.size, dtype=bool)
        if F is None:
            F, ok = _factor(blocks, H)
        out.fail(points[~ok], "conditional precision is not positive definite")
        done = converged & ok
        if done.any():
            out.finish(points[done], v[done], F.subset(done), steps, f[done])
        stay = ok & ~converged
        if not stay.any():
            return out

        step = F.solve(g)
        decrement_sq = (g * step).sum(axis=1)
        # the predicted gain from this step is below the roundoff floor of
        # the objective, so no line search can certify progress (this
        # happens when a warm start lands inside the resolution basin of the
        # mode); the full step still sharpens the mode estimate, so take it
        # when it keeps f flat and finish
        tiny = stay & (decrement_sq <= 64.0 * _EPS * (1.0 + np.abs(f)))
        F_tiny = F.subset(tiny) if tiny.any() else None
        if not constant:
            # this iteration's curvature is spent
            H = F = None
        if F_tiny is not None:
            _finish_flat(out, cond.subset(tiny), points[tiny], v[tiny], step[tiny], f[tiny],
                         F_tiny, steps, constant)
            stay &= ~tiny

        # the line search runs on the points still iterating, and no more
        if not stay.any():
            return out
        if not stay.all():
            narrow(stay)

        # accept steps that keep f flat to within roundoff, not only strict
        # ascents: near the mode the objective is quadratic in a step below
        # sqrt(eps), so demanding f_new >= f exactly would damp the step to
        # nothing and strand the gradient just above its tolerance
        pending = np.arange(f.size)
        slack = 4.0 * _EPS * (1.0 + np.abs(f))
        t = np.ones(f.size)
        v_new, f_new, maps_new = v.copy(), f.copy(), tuple(a.copy() for a in maps)
        for _ in range(MAX_HALVINGS):
            v_try = v[pending] + t[pending, None] * step[pending]
            try_cond = cond if pending.size == f.size else cond.subset(pending)
            maps_try = try_cond.linear_maps(v_try)
            f_try = try_cond.log_density(v_try, maps_try)
            v_new[pending], f_new[pending] = v_try, f_try
            for a, b in zip(maps_new, maps_try):
                a[pending] = b
            pending = pending[~(np.isfinite(f_try) & (f_try >= f[pending] - slack[pending]))]
            if not pending.size:
                break
            t[pending] *= 0.5
        stuck = pending[~(np.isfinite(f_new[pending])
                          & (f_new[pending] >= f[pending] - 1.0e-10 * (1.0 + np.abs(f[pending]))))]
        out.fail(points[stuck], "Newton line search failed to improve the objective")
        v, f, maps = v_new, f_new, maps_new
        if stuck.size:
            if stuck.size == f.size:
                return out
            keep = np.ones(f.size, dtype=bool)
            keep[stuck] = False
            narrow(keep)
    out.fail(points, "Newton did not converge within %d iterations" % MAX_NEWTON_ITER)
    return out


def latent_gaussian_approx(model: JointModel, theta, init: Optional[np.ndarray] = None) -> GaussianApprox:
    """Mode and curvature of log p(v | y, theta) by Newton with step halving.

    For models whose likelihood blocks are all Gaussian the objective is an
    exact quadratic and the first Newton step lands on the mode.
    """
    return _newton(assemble_conditional(model, theta), init).approx(0)


def latent_gaussian_batches(model: JointModel, thetas, init: Optional[np.ndarray] = None) -> Iterator[LatentBatch]:
    """Gaussian approximations at every row of thetas (K x m, natural scale).

    The rows are solved in order, in batches of at most BATCH_ELEMENTS
    points x stacked rows (at least one point each), and one LatentBatch
    is yielded per batch, so memory stays bounded however many rows there
    are. Every point starts from init and its result does not depend on
    the batch it falls in.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    per_batch = max(1, BATCH_ELEMENTS // max(model.n_rows, 1))
    for start in range(0, thetas.shape[0], per_batch):
        yield _newton(assemble_conditional(model, thetas[start:start + per_batch]), init)


def exact_linear_gaussian_posterior(model: JointModel, theta) -> GaussianApprox:
    """Closed-form latent posterior when every likelihood block is Gaussian.

    The log density is quadratic, so its mean is the Newton step from zero:
    the precision H solves against the gradient at the origin.
    """
    if model.family != "gaussian":
        raise SpecError("exact posterior requires a gaussian outcome family, got %r" % model.family)
    cond = assemble_conditional(model, theta)
    g, H = _grad_hess(cond, np.zeros((1, cond.dim)))
    F, ok = _factor(cond.blocks, H)
    if not ok[0]:
        raise NumericError("conditional precision is not positive definite")
    mean = F.solve(g)
    return GaussianApprox(cond.blocks.to_latent(mean)[0], F, 0, float(cond.log_density(mean)[0]))
