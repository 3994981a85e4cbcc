"""Fit orchestration and file reports.

Runs the naive, grid-approximation, and sampler fits on a parsed model and
dataset, reduces each to per-parameter marginals, and writes them as plain
files: one summary JSON per method, one `value,density` CSV per parameter,
and a side-by-side comparison table when several methods ran. All three
methods report the parameters of one table, `JointModel.parameter_names`,
under its names and in its order.

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
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .approx import (
    DEFAULT_DIFF_LOGDENS,
    DEFAULT_DZ,
    MARGINAL_GRID_SIZE,
    IntegrationGrid,
    PosteriorMarginal,
    _mixture_density,
    explore_grid,
    hyper_marginal,
    latent_marginals,
    marginal_from_grid,
)
from .data import Dataset, read_model_config
from .errors import DataError, NumericError, SpecError
from .mcmc import MIN_ESS_DRAWS, ChainConfig, ChainOutput, effective_sample_size, run_chain
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
    "read_report",
    "write_comparison",
    "read_marginal_csv",
    "summarize_grid",
    "attenuation_note",
    "run_fit",
]

METHODS = ("naive", "laplace", "mcmc")

# `meglm fit` warns when the smallest effective sample size over a chain's
# reported parameters falls below this many draws
ESS_WARNING_FLOOR = 100.0


@dataclass(frozen=True)
class RunConfig:
    """One fit request: where the inputs live, what to run, where to write."""

    config_path: str
    data_path: str
    method: str
    outdir: str
    dz: float = DEFAULT_DZ
    diff_logdens: float = DEFAULT_DIFF_LOGDENS
    iterations: int = ChainConfig.iterations
    burn_in: int = ChainConfig.burn_in
    thin: int = ChainConfig.thin
    seed: Optional[int] = None

    def __post_init__(self):
        if self.method not in METHODS + ("all",):
            raise SpecError(
                "unknown method %r: expected one of naive, laplace, mcmc, all" % (self.method,)
            )
        if self.method in ("mcmc", "all") and self.seed is None:
            raise SpecError("method %r draws random numbers: --seed is required" % (self.method,))
        if not (math.isfinite(self.dz) and self.dz > 0.0):
            raise SpecError("dz must be finite and positive, got %g" % self.dz)
        if not (math.isfinite(self.diff_logdens) and self.diff_logdens > 0.0):
            raise SpecError("diff-logdens must be finite and positive, got %g" % self.diff_logdens)
        if self.method in ("mcmc", "all"):
            # checked before any fit runs, so a bad chain writes nothing
            self.chain_config()

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


@dataclass
class PosteriorReport:
    """Per-parameter summaries plus the marginal files backing them."""

    method: str
    parameters: tuple
    marginal_files: dict
    # never written to a file; perfbench/run.py reads it for its per-method
    # fit times
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


def _grid_fit(model: JointModel, dz: float, diff_logdens: float) -> tuple:
    grid = explore_grid(model, dz=dz, diff_logdens=diff_logdens)
    # the free coefficients, the first latent components, and the free
    # hyperparameters are the model parameters; the per-unit x, x_star and
    # gamma components are fit artifacts, not parameters
    coefs = [c.name for c in model.coefficients if c.free]
    found = dict(zip(coefs, latent_marginals(model, grid, range(len(coefs)))))
    found.update((name, hyper_marginal(grid, j)) for j, name in enumerate(grid.names))
    return {name: found[name] for name in model.parameter_names()}, grid


def naive_marginals(
    spec: ModelSpec,
    dataset: Dataset,
    dz: float = DEFAULT_DZ,
    diff_logdens: float = DEFAULT_DIFF_LOGDENS,
) -> tuple:
    """(marginals, grid) of the no-error refit: proxies enter as ordinary covariates."""
    model = build_joint_model(naive_spec(spec), dataset)
    return _grid_fit(model, dz, diff_logdens)


def laplace_marginals(
    spec: ModelSpec,
    dataset: Dataset,
    dz: float = DEFAULT_DZ,
    diff_logdens: float = DEFAULT_DIFF_LOGDENS,
) -> tuple:
    """(marginals, grid) of the corrected fit via the hyperparameter-grid approximation.

    The grid runs on the plain model: for error models the slope beta_x is a
    grid hyperparameter that multiplies the latent true covariate x directly
    in the regression rows. That is the exact limit of the paper's
    high-precision copy link (`copy_augment`), without the doubled latent
    field and the stiff coupling the copy brings.
    """
    model = build_joint_model(spec, dataset)
    return _grid_fit(model, dz, diff_logdens)


def _chain_marginal(draws: np.ndarray) -> PosteriorMarginal:
    """Gaussian kernel density of the draws on a 75-point grid.

    The same estimate as scipy's gaussian_kde(draws) with its default
    bandwidth: the equal-weight Gaussian mixture over the draws with a
    kernel sd of Scott's factor n**(-1/5) times their unbiased sd. The grid
    reaches 3 bandwidths past the extreme draws.
    """
    sd = float(np.std(draws, ddof=1))
    if not np.isfinite(sd) or sd <= 0.0:
        raise NumericError("chain draws are degenerate, cannot form a density")
    h = draws.size ** -0.2 * sd
    values = np.linspace(float(np.min(draws)) - 3.0 * h, float(np.max(draws)) + 3.0 * h,
                         MARGINAL_GRID_SIZE)
    return marginal_from_grid(values, _mixture_density(values, draws, h, 1.0 / draws.size))


def mcmc_marginals(spec: ModelSpec, dataset: Dataset, config: ChainConfig) -> tuple:
    """Sampler fit reduced to per-parameter marginals.

    Returns (marginals, chain); the chain's draws and the marginals both
    follow the model's table of reported parameters
    (`JointModel.parameter_names`). Each parameter's draws are smoothed by
    a Gaussian kernel density estimate with Scott's bandwidth factor (the
    estimate scipy's gaussian_kde makes, computed in numpy) to a
    density on a 75-point grid, so the written artifact has the same
    schema as the other methods; summaries come from that grid.
    """
    model = build_joint_model(spec, dataset)
    chain = run_chain(model, config)
    return {name: _chain_marginal(chain.column(name)) for name in model.parameter_names()}, chain


def _grid_diagnostics(method: str, grid: IntegrationGrid) -> list:
    """Stdout lines: the grid's size and latent solve counts, and warnings
    for a grid cut short by its point cap or by failed solves."""
    lines = [
        "%s: grid %d points, %d latent solves, %d Newton iterations"
        % (method, grid.size, grid.solves, grid.newton_iters)
    ]
    if grid.truncated:
        lines.append("warning: %s grid hit its point cap at %d points" % (method, grid.size))
    if grid.skipped:
        lines.append(
            "warning: %s grid skipped %d points whose latent solve failed" % (method, grid.skipped)
        )
    return lines


def _chain_diagnostics(chain: ChainOutput) -> list:
    """Stdout lines: per-block acceptance and the smallest reported ESS."""
    rates = ", ".join("%s %.3f" % item for item in chain.acceptance_rates.items())
    lines = ["mcmc: acceptance %s" % rates]
    kept = chain.draws.shape[0]
    if kept < MIN_ESS_DRAWS or not chain.names:
        lines.append(
            "mcmc: ESS not estimated (%d draws kept, need %d)" % (kept, MIN_ESS_DRAWS)
        )
        return lines
    ess, name = min((effective_sample_size(chain.column(n)), n) for n in chain.names)
    lines.append("mcmc: min ESS %.1f of %d draws (%s)" % (ess, kept, name))
    if ess < ESS_WARNING_FLOOR:
        lines.append(
            "warning: mcmc min ESS %.1f (%s) is below %g; run a longer chain"
            % (ess, name, ESS_WARNING_FLOOR)
        )
    return lines


def build_report(method: str, marginals: dict, wall_clock_seconds: float = 0.0) -> PosteriorReport:
    """Per-parameter summaries of the marginals, each taken from the grid as
    written (its values and normalized density), so that re-summarizing a
    written CSV with summarize_grid gives its summary exactly. A summary
    that is not finite raises NumericError naming the method and parameter,
    and two parameters whose marginal files would share a name raise
    SpecError naming both.
    """
    if method not in METHODS:
        raise SpecError("unknown method %r" % (method,))
    files = _marginal_files(method, marginals)
    params = []
    for name, m in marginals.items():
        s = marginal_from_grid(m.values, m.density)
        stats = (s.mean, s.sd, s.q025, s.q50, s.q975)
        if not np.all(np.isfinite(stats)):
            raise NumericError("%s marginal of %s has a non-finite summary (mean, sd, q025, "
                               "q50, q975 = %g, %g, %g, %g, %g)" % ((method, name) + stats))
        params.append(ParameterSummary(name, method, *stats))
    return PosteriorReport(
        method=method,
        parameters=tuple(params),
        marginal_files=files,
        wall_clock_seconds=wall_clock_seconds,
    )


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


def _marginal_relpath(method: str, parameter: str) -> str:
    return os.path.join("marginals", "%s_%s.csv" % (method, _safe_name(parameter)))


def _marginal_files(method: str, names) -> dict:
    """{parameter: its marginal CSV's path in the output directory} for the
    parameters names; two whose files would share a name raise SpecError
    naming both."""
    files, owner = {}, {}
    for name in names:
        files[name] = path = _marginal_relpath(method, name)
        if path in owner:
            raise SpecError("parameters %r and %r would both write %s" % (owner[path], name, path))
        owner[path] = name
    return files


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
        "parameters": [asdict(p) for p in report.parameters],
        "marginal_files": dict(report.marginal_files),
    }
    path = os.path.join(outdir, "%s_summary.json" % report.method)
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
    return path


def read_report(path) -> PosteriorReport:
    """Read a summary JSON that write_report wrote back into its report."""
    try:
        with open(path, "r") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DataError("cannot read summary %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise DataError("%s is not valid JSON: %s" % (path, exc))
    try:
        params = tuple(
            ParameterSummary(
                parameter=rec["parameter"],
                method=rec["method"],
                mean=float(rec["mean"]),
                sd=float(rec["sd"]),
                q025=float(rec["q025"]),
                q50=float(rec["q50"]),
                q975=float(rec["q975"]),
            )
            for rec in payload["parameters"]
        )
        return PosteriorReport(
            method=payload["method"],
            parameters=params,
            marginal_files=dict(payload.get("marginal_files", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError("%s does not look like a fit summary: %s" % (path, exc))


COMPARISON_HEADER = "parameter,method,mean,sd,q025,q50,q975"


def write_comparison(reports: dict, outdir) -> str:
    """Side-by-side long-format table, one row per parameter and method.

    Parameters come in the order of the corrected fits (laplace, then
    mcmc), then any the naive fit adds: the naive model's parameter table
    is a subsequence of the error model's, so the rows follow the latter.
    """
    if not reports:
        raise SpecError("no reports to compare")
    ordered_params = []
    for method in ("laplace", "mcmc", "naive"):
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
    # the parameters are known before any fit runs, and so are file clashes
    for method in wanted:
        model = build_joint_model(naive_spec(spec) if method == "naive" else spec, dataset)
        _marginal_files(method, model.parameter_names())
    reports = {}
    for method in wanted:
        t0 = time.perf_counter()
        if method == "mcmc":
            marginals, chain = mcmc_marginals(spec, dataset, cfg.chain_config())
        else:
            grid_fit = naive_marginals if method == "naive" else laplace_marginals
            marginals, grid = grid_fit(spec, dataset, cfg.dz, cfg.diff_logdens)
        elapsed = time.perf_counter() - t0
        report = build_report(method, marginals, wall_clock_seconds=elapsed)
        path = write_report(report, marginals, outdir)
        reports[method] = report
        log("%s: %d parameters -> %s (%.1fs)" % (method, len(report.parameters), path, elapsed))
        if method == "mcmc":
            diagnostics = _chain_diagnostics(chain)
        else:
            diagnostics = _grid_diagnostics(method, grid)
        for line in diagnostics:
            log(line)
    if cfg.method == "all":
        cmp_path = write_comparison(reports, outdir)
        log("comparison table -> %s" % cmp_path)
        note = attenuation_note(reports)
        if note:
            log(note)
    return reports
