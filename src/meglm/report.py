"""Fit orchestration and file reports.

Runs the naive, grid-approximation, and sampler fits on a parsed model and
dataset, reduces each to per-parameter marginals, and writes them as plain
files: one summary JSON per method, one `value,density` CSV per parameter,
and a side-by-side comparison table when several methods ran.

Every summary statistic is computed from the written marginal grid by
trapezoid quadrature, so recomputing the summary from a report's own CSV
files reproduces the JSON exactly. Wall-clock time is reported on stdout
only; the files themselves are bit-reproducible for a fixed seed.
"""

import json
import math
import os
import re
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.stats import gaussian_kde

from .approx import (
    MARGINAL_GRID_SIZE,
    PosteriorMarginal,
    explore_grid,
    hyper_marginal,
    latent_marginals,
    marginal_from_grid,
)
from .data import Dataset, read_model_config
from .errors import DataError, NumericError, SpecError
from .mcmc import ChainConfig, ChainOutput, run_chain
from .model import JointModel, ModelSpec, build_joint_model, naive_spec

# copy_augment is not called here; the binding stays because
# perfbench/run.py traces model builds through report.copy_augment
from .model import copy_augment  # noqa: F401

__all__ = [
    "METHODS",
    "RunConfig",
    "ParameterSummary",
    "PosteriorReport",
    "naive_marginals",
    "laplace_marginals",
    "mcmc_marginals",
    "build_report",
    "write_report",
    "write_comparison",
    "read_marginal_csv",
    "summarize_grid",
    "attenuation_note",
    "run_fit",
]

METHODS = ("naive", "laplace", "mcmc")

# latent blocks whose components are reported as model parameters; the
# per-unit x, x_star, and gamma components are fit artifacts, not parameters
PARAMETER_BLOCKS = ("beta0", "beta_x", "beta_z", "alpha0", "alpha_z")

DEFAULT_DZ = 0.5
DEFAULT_DIFF_LOGDENS = 20.0


@dataclass(frozen=True)
class RunConfig:
    """One fit request: where the inputs live, what to run, where to write."""

    config_path: str
    data_path: str
    method: str
    outdir: str
    dz: float = DEFAULT_DZ
    diff_logdens: float = DEFAULT_DIFF_LOGDENS
    iterations: int = 100_000
    burn_in: int = 10_000
    thin: int = 10
    seed: Optional[int] = None

    def __post_init__(self):
        if self.method not in METHODS + ("all",):
            raise SpecError(
                "unknown method %r: expected one of naive, laplace, mcmc, all" % (self.method,)
            )
        if self.method in ("mcmc", "all") and self.seed is None:
            raise SpecError("method %r draws random numbers: --seed is required" % (self.method,))
        if self.dz <= 0.0:
            raise SpecError("dz must be positive, got %g" % self.dz)
        if self.diff_logdens <= 0.0:
            raise SpecError("diff-logdens must be positive, got %g" % self.diff_logdens)

    def chain_config(self) -> ChainConfig:
        return ChainConfig(
            iterations=self.iterations,
            burn_in=self.burn_in,
            thin=self.thin,
            seed=self.seed,
        )


@dataclass(frozen=True)
class ParameterSummary:
    parameter: str
    method: str
    mean: float
    sd: float
    q025: float
    q50: float
    q975: float

    def to_record(self) -> dict:
        return {
            "parameter": self.parameter,
            "method": self.method,
            "mean": self.mean,
            "sd": self.sd,
            "q025": self.q025,
            "q50": self.q50,
            "q975": self.q975,
        }


@dataclass
class PosteriorReport:
    """Per-parameter summaries plus the marginal files backing them."""

    method: str
    parameters: tuple
    marginal_files: dict
    wall_clock_seconds: float = field(default=0.0, compare=False)

    def __post_init__(self):
        names = [p.parameter for p in self.parameters]
        if len(set(names)) != len(names):
            raise SpecError("duplicate parameter in report: %r" % (names,))

    def summary(self, parameter: str) -> ParameterSummary:
        for p in self.parameters:
            if p.parameter == parameter:
                return p
        raise SpecError(
            "report for method %r has no parameter %r (has %s)"
            % (self.method, parameter, ", ".join(p.parameter for p in self.parameters))
        )


def summarize_grid(values: np.ndarray, density: np.ndarray) -> PosteriorMarginal:
    """Normalize a gridded density and compute its trapezoid summaries."""
    values = np.asarray(values, dtype=float)
    density = np.asarray(density, dtype=float)
    if values.ndim != 1 or values.shape != density.shape or values.size < 3:
        raise SpecError("marginal grid needs matching 1-D value/density arrays")
    if np.any(np.diff(values) <= 0.0):
        raise SpecError("marginal grid values must be strictly increasing")
    if np.any(density < 0.0):
        raise SpecError("marginal density must be nonnegative")
    return marginal_from_grid(values, density)


def _canonical_order(spec: ModelSpec) -> list:
    order = ["beta_0", "beta_x"]
    order += ["beta_%s" % c for c in spec.covariates]
    order += ["alpha_0"]
    order += ["alpha_%s" % c for c in spec.covariates]
    order += ["tau_u", "tau_x", "tau_eps", "tau_gamma"]
    return order


def _ordered(spec: ModelSpec, found: dict) -> dict:
    out = {}
    for name in _canonical_order(spec):
        if name in found:
            out[name] = found[name]
    for name in found:
        if name not in out:
            out[name] = found[name]
    return out


def _grid_fit(model: JointModel, dz: float, diff_logdens: float) -> dict:
    grid = explore_grid(model, dz=dz, diff_logdens=diff_logdens)
    names = model.latent_names()
    indices, latent_names = [], []
    for block in PARAMETER_BLOCKS:
        sl = model.layout.slice(block)
        if sl is None or sl.stop == sl.start:
            continue
        for i in range(sl.start, sl.stop):
            indices.append(i)
            latent_names.append(names[i])
    found = {}
    if indices:
        for name, marg in zip(latent_names, latent_marginals(model, grid, indices)):
            found[name] = marg
    for j, name in enumerate(grid.names):
        found[name] = hyper_marginal(grid, j)
    return _ordered(model.spec, found)


def naive_marginals(
    spec: ModelSpec,
    dataset: Dataset,
    dz: float = DEFAULT_DZ,
    diff_logdens: float = DEFAULT_DIFF_LOGDENS,
) -> dict:
    """Marginals of the no-error refit: proxies enter as ordinary covariates."""
    model = build_joint_model(naive_spec(spec), dataset)
    return _grid_fit(model, dz, diff_logdens)


def laplace_marginals(
    spec: ModelSpec,
    dataset: Dataset,
    dz: float = DEFAULT_DZ,
    diff_logdens: float = DEFAULT_DIFF_LOGDENS,
) -> dict:
    """Marginals of the corrected fit via the hyperparameter-grid approximation.

    The grid runs on the plain model: for error models the slope beta_x is a
    grid hyperparameter that multiplies the latent true covariate x directly
    in the regression rows. That is the exact limit of the paper's
    high-precision copy link (`copy_augment`), without the doubled latent
    field and the stiff coupling the copy brings.
    """
    model = build_joint_model(spec, dataset)
    return _grid_fit(model, dz, diff_logdens)


def _chain_marginal(draws: np.ndarray) -> PosteriorMarginal:
    sd = float(np.std(draws, ddof=1))
    if not np.isfinite(sd) or sd <= 0.0:
        raise NumericError("chain draws are degenerate, cannot form a density")
    kde = gaussian_kde(draws)
    bandwidth = float(kde.factor) * sd
    lo = float(np.min(draws)) - 3.0 * bandwidth
    hi = float(np.max(draws)) + 3.0 * bandwidth
    values = np.linspace(lo, hi, MARGINAL_GRID_SIZE)
    return marginal_from_grid(values, np.asarray(kde(values), dtype=float))


def mcmc_marginals(spec: ModelSpec, dataset: Dataset, config: ChainConfig) -> tuple:
    """Sampler fit reduced to per-parameter marginals.

    Returns (marginals, chain). Chain draws are smoothed to a density on a
    75-point grid so the written artifact has the same schema as the other
    methods; summaries come from that grid.
    """
    model = build_joint_model(spec, dataset)
    chain = run_chain(model, config)
    found = {}
    for name in chain.names:
        if re.fullmatch(r"x_\d+", name):
            continue
        found[name] = _chain_marginal(chain.column(name))
    return _ordered(spec, found), chain


def build_report(method: str, marginals: dict, wall_clock_seconds: float = 0.0) -> PosteriorReport:
    if method not in METHODS:
        raise SpecError("unknown method %r" % (method,))
    params = tuple(
        ParameterSummary(
            parameter=name,
            method=method,
            mean=m.mean,
            sd=m.sd,
            q025=m.q025,
            q50=m.q50,
            q975=m.q975,
        )
        for name, m in marginals.items()
    )
    files = {name: _marginal_relpath(method, name) for name in marginals}
    return PosteriorReport(
        method=method,
        parameters=params,
        marginal_files=files,
        wall_clock_seconds=wall_clock_seconds,
    )


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


def _marginal_relpath(method: str, parameter: str) -> str:
    return os.path.join("marginals", "%s_%s.csv" % (method, _safe_name(parameter)))


def _write_marginal_csv(path: str, marginal: PosteriorMarginal) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("value,density\n")
        for v, d in zip(marginal.values, marginal.density):
            fh.write("%.17g,%.17g\n" % (v, d))


def read_marginal_csv(path) -> tuple:
    """Read one `value,density` artifact back into arrays."""
    data = Dataset.from_csv(path)
    if data.names != ("value", "density"):
        raise DataError("%s: expected columns value,density, found %r" % (path, data.names))
    return data.column("value"), data.column("density")


def write_report(report: PosteriorReport, marginals: dict, outdir) -> str:
    """Write summary JSON plus one marginal CSV per parameter.

    Returns the summary path. Timing is deliberately not written: output
    files must be byte-identical across reruns of a seeded command.
    """
    outdir = str(outdir)
    os.makedirs(os.path.join(outdir, "marginals"), exist_ok=True)
    for name in report.marginal_files:
        _write_marginal_csv(
            os.path.join(outdir, report.marginal_files[name]), marginals[name]
        )
    payload = {
        "method": report.method,
        "parameters": [p.to_record() for p in report.parameters],
        "marginal_files": dict(report.marginal_files),
    }
    path = os.path.join(outdir, "%s_summary.json" % report.method)
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
    return path


COMPARISON_HEADER = "parameter,method,mean,sd,q025,q50,q975"


def write_comparison(reports: dict, outdir) -> str:
    """Side-by-side long-format table, one row per parameter and method."""
    if not reports:
        raise SpecError("no reports to compare")
    ordered_params = []
    for method in METHODS:
        if method not in reports:
            continue
        for p in reports[method].parameters:
            if p.parameter not in ordered_params:
                ordered_params.append(p.parameter)
    lines = [COMPARISON_HEADER]
    for name in ordered_params:
        for method in METHODS:
            rep = reports.get(method)
            if rep is None:
                continue
            try:
                s = rep.summary(name)
            except SpecError:
                continue
            lines.append(
                "%s,%s,%.17g,%.17g,%.17g,%.17g,%.17g"
                % (name, method, s.mean, s.sd, s.q025, s.q50, s.q975)
            )
    path = os.path.join(str(outdir), "comparison.csv")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def attenuation_note(reports: dict) -> Optional[str]:
    """Flag the naive slope shrinking toward zero next to a corrected fit."""
    naive = reports.get("naive")
    corrected = reports.get("laplace") or reports.get("mcmc")
    if naive is None or corrected is None:
        return None
    try:
        b_naive = naive.summary("beta_x").mean
        b_corr = corrected.summary("beta_x").mean
    except SpecError:
        return None
    if abs(b_naive) < abs(b_corr):
        return (
            "note: beta_x from the naive fit (%.6g) is attenuated toward zero "
            "relative to the corrected fit (%.6g)" % (b_naive, b_corr)
        )
    return None


def run_fit(cfg: RunConfig, log=print) -> dict:
    """Execute one RunConfig end to end; returns reports keyed by method."""
    spec = read_model_config(cfg.config_path)
    dataset = Dataset.from_csv(cfg.data_path)
    outdir = str(cfg.outdir)
    os.makedirs(outdir, exist_ok=True)
    if not os.access(outdir, os.W_OK):
        raise DataError("output directory %s is not writable" % outdir)

    wanted = METHODS if cfg.method == "all" else (cfg.method,)
    reports = {}
    for method in wanted:
        t0 = time.perf_counter()
        if method == "naive":
            marginals = naive_marginals(spec, dataset, cfg.dz, cfg.diff_logdens)
        elif method == "laplace":
            marginals = laplace_marginals(spec, dataset, cfg.dz, cfg.diff_logdens)
        else:
            marginals, _ = mcmc_marginals(spec, dataset, cfg.chain_config())
        elapsed = time.perf_counter() - t0
        report = build_report(method, marginals, wall_clock_seconds=elapsed)
        path = write_report(report, marginals, outdir)
        reports[method] = report
        log("%s: %d parameters -> %s (%.1fs)" % (method, len(report.parameters), path, elapsed))
    if cfg.method == "all":
        cmp_path = write_comparison(reports, outdir)
        log("comparison table -> %s" % cmp_path)
        note = attenuation_note(reports)
        if note:
            log(note)
    return reports
