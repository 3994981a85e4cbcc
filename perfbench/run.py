"""Benchmark of `meglm fit`: end-to-end fit times and a traced per-layer breakdown.

Run from the repository root, one process per workload:

    python3 perfbench/run.py --workload fit_all_ibex --seed 1 --seconds 50 --trace 0

Set-up simulates the workload's study with `simulate_study`, writes it with
`write_study` (the CSV column order is shuffled by --seed) and is timed in
fresh interpreters. The timed loop then repeats the public
`meglm.report.run_fit(RunConfig(...))` call that `meglm fit` makes until
--seconds have passed, and checks every fit against the stored reference
summaries in reference.json. A run makes at least two fits, and fit_s
leaves out the first, which warms the process. With --trace 1 the run makes two untraced fits, then
traced fits until --seconds have passed; the traced fits wrap the
cross-module entry points of each layer from this file, so per-layer spans
and counters are measured without hooks in the package. The last line of
stdout is the result JSON; the line before it records the machine and the
per-fit samples.

`--make-reference` refits a workload and rewrites its entry in reference.json.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# BLAS reads its thread count when numpy loads, so set it before the import.
# One thread: on a 2-CPU machine a laplace_framingham fit took 10-11 s with
# one OpenBLAS thread and 14-16 s with two, and spread more between fits.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import meglm  # noqa: E402
from meglm import approx, gaussian, report  # noqa: E402
from meglm.data import Dataset  # noqa: E402
from meglm.gaussian import latent_gaussian_approx  # noqa: E402
from meglm.mcmc import effective_sample_size  # noqa: E402
from meglm.model import assemble_conditional, build_joint_model, copy_augment  # noqa: E402
from meglm.report import METHODS, RunConfig, run_fit  # noqa: E402
from meglm.studies import make_recipe, simulate_study, write_study  # noqa: E402

if not os.path.abspath(meglm.__file__).startswith(SRC + os.sep):
    raise SystemExit("meglm was imported from %s, not from %s" % (meglm.__file__, SRC))

REFERENCE_PATH = os.path.join(HERE, "reference.json")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPS = 4
# Sizes of the traced solve-scaling probe (copy-augmented framingham_like).
PROBE_SIZES = (200, 500, 1000)
PROBE_CALLS = 3
# The mcmc reference comes from a chain this many times longer (and thinned
# as much more), so it is far more precise than any benchmarked chain.
REFERENCE_CHAIN_FACTOR = 8
# Criterion-6 tolerances, in units of the reference posterior sd.
MEAN_TOL_SD = 0.1
SD_TOL_REL = 0.1

GRID_METHODS = ("naive", "laplace")


@dataclasses.dataclass(frozen=True)
class Workload:
    study: str
    recipe: dict
    fit: dict

    @property
    def methods(self) -> tuple:
        method = self.fit["method"]
        return METHODS if method == "all" else (method,)


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    "fit_all_ibex": Workload(
        study="ibex_like",
        recipe={"n": 26, "seed": 1},
        fit={"method": "all", "dz": 1.0, "diff_logdens": 6.0,
             "iterations": 10_000, "burn_in": 2_000, "thin": 2, "seed": 11},
    ),
    "laplace_framingham": Workload(
        study="framingham_like",
        recipe={"n": 140, "beta_0": -1.4, "seed": 42},
        fit={"method": "laplace", "dz": 1.0, "diff_logdens": 4.0},
    ),
}

END_TO_END = {"fit_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units(probe_sizes=PROBE_SIZES) -> dict:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for m in GRID_METHODS:
        for name, unit in (
            ("gaussian.solves", "count"),
            ("gaussian.newton_iters", "count"),
            ("gaussian.self_s", "s"),
            ("gaussian.ms_per_solve", "ms"),
            ("gaussian.failures", "count"),
            ("model.assemble_calls", "count"),
            ("model.assemble_s", "s"),
            ("model.log_density_calls", "count"),
            ("approx.explore_grid_s", "s"),
            ("approx.explore_grid_solves", "count"),
            ("approx.grid_points", "count"),
            ("approx.grid_truncated", "flag"),
            ("approx.points_per_solve", "ratio"),
            ("approx.latent_marginals_s", "s"),
            ("approx.latent_marginals_solves", "count"),
            ("approx.hyper_marginal_s", "s"),
        ):
            units["%s.%s" % (m, name)] = unit
    for m in METHODS:
        units["%s.model.build_s" % m] = "s"
        units["%s.model.latent_dim" % m] = "count"
        units["%s.model.theta_dim" % m] = "count"
        units["%s_s" % m] = "s"
    units.update({
        "mcmc.run_chain_s": "s",
        "mcmc.us_per_iter": "us",
        "mcmc.min_ess": "draws",
        "mcmc.ess_per_s": "1/s",
        "mcmc.accept.x": "ratio",
        "mcmc.accept.beta": "ratio",
        "mcmc.accept.gamma": "ratio",
        "report.chain_density_s": "s",
        "report.write_s": "s",
        "report.files_written": "count",
        "report.bytes_written": "B",
        "data.read_s": "s",
        "trace.overhead_s": "s",
        "cold_fit_s": "s",
    })
    for n in probe_sizes:
        units["gaussian.probe_ms.n%d" % n] = "ms"
        units["gaussian.probe_dim.n%d" % n] = "count"
        units["gaussian.probe_dense_bytes.n%d" % n] = "B-computed"
    return units


TIME_UNITS = ("s", "ms", "us", "1/s")


# ---------------------------------------------------------------------------
# set-up


def make_inputs(study: str, recipe: dict, seed: int, directory: str) -> dict:
    """Simulate the study and write it; the seed shuffles the CSV column order.

    Only the column order varies with the seed, so every seed fits the same
    posterior with bit-identical arithmetic. Shuffling rows instead changes
    the round-off of the copy-augmented grid fits, and with it the path of
    the hyperparameter mode search and the number of solves.
    """
    sim = simulate_study(make_recipe(study, **recipe))
    names = list(sim.dataset.names)
    order = np.random.default_rng(seed).permutation(len(names))
    data = Dataset.from_arrays(**{names[i]: sim.dataset.column(names[i]) for i in order})
    return write_study(dataclasses.replace(sim, dataset=data), directory)


_SETUP_CODE = (
    "import sys, json; sys.path.insert(0, sys.argv[1]); import run; "
    "run.make_inputs(*json.loads(sys.argv[2]), int(sys.argv[3]), sys.argv[4])"
)


def time_setup(workload: Workload, seed: int, directory: str, reps: int) -> list:
    """Wall time of fresh interpreters that import meglm and build the inputs."""
    times = []
    for k in range(reps):
        args = [sys.executable, "-c", _SETUP_CODE, HERE,
                json.dumps([workload.study, workload.recipe]), str(seed),
                os.path.join(directory, "setup%d" % k)]
        t = time.perf_counter()
        subprocess.run(args, check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - t)
    return times


# ---------------------------------------------------------------------------
# fits and output checks


def _quiet(*_args):
    pass


def check_outputs(outdir: str, workload: Workload, reference: dict):
    """Return None when every file is present and every summary matches, else why not."""
    for m in workload.methods:
        path = os.path.join(outdir, "%s_summary.json" % m)
        if not os.path.isfile(path):
            return "missing %s" % path
        with open(path) as fh:
            summary = json.load(fh)
        for rel in summary["marginal_files"].values():
            if not os.path.isfile(os.path.join(outdir, rel)):
                return "missing %s" % rel
        got = {p["parameter"]: p for p in summary["parameters"]}
        want = reference[m]
        if set(got) != set(want):
            return "%s parameters %s, reference has %s" % (m, sorted(got), sorted(want))
        for name, ref in want.items():
            mean, sd = got[name]["mean"], got[name]["sd"]
            if not abs(mean - ref["mean"]) <= MEAN_TOL_SD * ref["sd"]:
                return "%s %s mean %.6g, reference %.6g +- %.2g" % (
                    m, name, mean, ref["mean"], MEAN_TOL_SD * ref["sd"])
            if not abs(sd - ref["sd"]) <= SD_TOL_REL * ref["sd"]:
                return "%s %s sd %.6g, reference %.6g" % (m, name, sd, ref["sd"])
    if len(workload.methods) > 1 and not os.path.isfile(os.path.join(outdir, "comparison.csv")):
        return "missing comparison.csv"
    return None


def snapshot(outdir: str) -> dict:
    """Relative path -> bytes of every file a fit wrote."""
    files = {}
    for dirpath, _, names in os.walk(outdir):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, outdir)] = fh.read()
    return files


@dataclasses.dataclass
class Fit:
    seconds: float
    method_seconds: dict
    problem: object  # None, or why the fit counts as failed
    files: dict


def fit_once(workload: Workload, paths: dict, outdir: str, reference: dict, tracer=None) -> Fit:
    """One `meglm fit` through run_fit, timed and checked."""
    cfg = RunConfig(config_path=paths["config"], data_path=paths["data"], outdir=outdir,
                    **workload.fit)
    fit = run_fit if tracer is None else tracer.wrap("report.run_fit", run_fit)
    t = time.perf_counter()
    try:
        reports = fit(cfg, log=_quiet)
    except Exception:
        elapsed = time.perf_counter() - t
        traceback.print_exc()
        return Fit(elapsed, {}, "run_fit raised", {})
    elapsed = time.perf_counter() - t
    try:
        problem = check_outputs(outdir, workload, reference)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problem = "unreadable summary: %r" % (exc,)
    return Fit(elapsed, {m: r.wall_clock_seconds for m, r in reports.items()}, problem,
               snapshot(outdir))


# ---------------------------------------------------------------------------
# tracing


class Span:
    __slots__ = ("id", "name", "parent", "fit", "method", "start", "end", "failed", "attrs")

    def __init__(self, sid, name, parent, fit, method):
        self.id, self.name, self.parent, self.fit, self.method = sid, name, parent, fit, method
        self.start = self.end = 0.0
        self.failed = False
        self.attrs = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _grid_attrs(args, kwargs, grid):
    return {"points": grid.size, "truncated": int(grid.truncated)}


def _model_attrs(args, kwargs, model):
    return {"latent_dim": model.layout.dim, "theta_dim": model.theta.dim}


def _chain_attrs(args, kwargs, chain):
    return {"iterations": chain.config.iterations, "chain": chain}


def _solve_attrs(args, kwargs, result):
    return {"iters": result.converged_in}


class Tracer:
    """Spans around calls into each layer, kept in memory until the run ends.

    Each span records its name, start, end, parent span, fit id and the
    method (naive, laplace, mcmc) whose marginals call it runs under.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._fit = None

    def wrap(self, name, fn, method=None, describe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, None if parent is None else parent.id, self._fit,
                        method or (parent.method if parent else None))
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if describe is not None:
                span.attrs = describe(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, fit_id):
        """Wrap the entry points each layer is called through, then restore them."""
        targets = [
            (report, "naive_marginals", "report.naive_marginals", "naive", None),
            (report, "laplace_marginals", "report.laplace_marginals", "laplace", None),
            (report, "mcmc_marginals", "report.mcmc_marginals", "mcmc", None),
            (report, "read_model_config", "data.read_model_config", None, None),
            (report, "build_joint_model", "model.build_joint_model", None, _model_attrs),
            (report, "copy_augment", "model.copy_augment", None, _model_attrs),
            (report, "explore_grid", "approx.explore_grid", None, _grid_attrs),
            (report, "latent_marginals", "approx.latent_marginals", None, None),
            (report, "hyper_marginal", "approx.hyper_marginal", None, None),
            (report, "run_chain", "mcmc.run_chain", None, _chain_attrs),
            (report, "write_report", "report.write_report", None, None),
            (report, "write_comparison", "report.write_comparison", None, None),
            (approx, "latent_gaussian_approx", "gaussian.latent_gaussian_approx", None,
             _solve_attrs),
            (approx, "joint_log_density", "model.joint_log_density", None, None),
            (gaussian, "assemble_conditional", "model.assemble_conditional", None, None),
        ]
        saved = []
        try:
            for module, attr, name, method, describe in targets:
                orig = getattr(module, attr)
                saved.append((module, attr, orig))
                setattr(module, attr, self.wrap(name, orig, method, describe))
            # run_fit reads its dataset through report.Dataset.from_csv
            saved.append((report, "Dataset", report.Dataset))
            report.Dataset = types.SimpleNamespace(
                from_csv=self.wrap("data.from_csv", Dataset.from_csv))
            self._fit = fit_id
            yield
        finally:
            self._fit = None
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                attrs = {k: v for k, v in s.attrs.items() if k != "chain"}
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent, "fit": s.fit,
                    "method": s.method, "start": s.start, "end": s.end,
                    "failed": s.failed, **attrs}) + "\n")


def layer_metrics(spans: list, fit_id, files: dict) -> dict:
    """Per-layer metrics of one traced fit, from its spans and the files it wrote."""
    mine = [s for s in spans if s.fit == fit_id]
    child_s = defaultdict(float)
    for s in mine:
        if s.parent is not None:
            child_s[s.parent] += s.seconds

    def select(name, method=None):
        return [s for s in mine if s.name == name and (method is None or s.method == method)]

    def total(group):
        return sum(s.seconds for s in group)

    def inside(s, ancestor):
        while s.parent is not None:
            s = spans[s.parent]
            if s.name == ancestor:
                return True
        return False

    out = {}
    for m in GRID_METHODS:
        solves = select("gaussian.latent_gaussian_approx", m)
        grid = select("approx.explore_grid", m)
        grid_solves = sum(1 for s in solves if inside(s, "approx.explore_grid"))
        points = sum(s.attrs.get("points", 0) for s in grid)
        assemble = select("model.assemble_conditional", m)
        out.update({
            "%s.gaussian.solves" % m: len(solves),
            "%s.gaussian.newton_iters" % m: sum(s.attrs.get("iters", 0) for s in solves),
            "%s.gaussian.self_s" % m: sum(s.seconds - child_s[s.id] for s in solves),
            "%s.gaussian.ms_per_solve" % m: 1000.0 * total(solves) / len(solves) if solves else 0.0,
            "%s.gaussian.failures" % m: sum(1 for s in solves if s.failed),
            "%s.model.assemble_calls" % m: len(assemble),
            "%s.model.assemble_s" % m: total(assemble),
            "%s.model.log_density_calls" % m: len(select("model.joint_log_density", m)),
            "%s.approx.explore_grid_s" % m: total(grid),
            "%s.approx.explore_grid_solves" % m: grid_solves,
            "%s.approx.grid_points" % m: points,
            "%s.approx.grid_truncated" % m: max((s.attrs.get("truncated", 0) for s in grid),
                                                default=0),
            "%s.approx.points_per_solve" % m: points / grid_solves if grid_solves else 0.0,
            "%s.approx.latent_marginals_s" % m: total(select("approx.latent_marginals", m)),
            "%s.approx.latent_marginals_solves" % m: sum(
                1 for s in solves if inside(s, "approx.latent_marginals")),
            "%s.approx.hyper_marginal_s" % m: total(select("approx.hyper_marginal", m)),
        })
    for m in METHODS:
        built = select("model.build_joint_model", m) + select("model.copy_augment", m)
        last = max(built, key=lambda s: s.start).attrs if built else {}
        out["%s.model.build_s" % m] = total(built)
        out["%s.model.latent_dim" % m] = last.get("latent_dim", 0)
        out["%s.model.theta_dim" % m] = last.get("theta_dim", 0)

    chains = select("mcmc.run_chain")
    chain_s = total(chains)
    accept, min_ess, iterations = {}, 0.0, 0
    for s in chains:
        if s.failed:
            continue
        chain = s.attrs["chain"]
        iterations += s.attrs["iterations"]
        accept = chain.acceptance_rates
        # the same columns mcmc_marginals reduces to reported marginals
        reported = [n for n in chain.names if not (n.startswith("x_") and n[2:].isdigit())]
        min_ess = min(effective_sample_size(chain.column(n)) for n in reported)
    out.update({
        "mcmc.run_chain_s": chain_s,
        "mcmc.us_per_iter": 1e6 * chain_s / iterations if iterations else 0.0,
        "mcmc.min_ess": min_ess,
        "mcmc.ess_per_s": min_ess / chain_s if chain_s else 0.0,
        "mcmc.accept.x": accept.get("x", 0.0),
        "mcmc.accept.beta": accept.get("beta", 0.0),
        "mcmc.accept.gamma": accept.get("gamma", 0.0),
        "report.chain_density_s": total(select("report.mcmc_marginals")) - chain_s,
        "report.write_s": total(select("report.write_report") + select("report.write_comparison")),
        "data.read_s": total(select("data.read_model_config") + select("data.from_csv")),
    })
    out["report.files_written"] = len(files)
    out["report.bytes_written"] = sum(len(b) for b in files.values())
    return out


def solve_probe(sizes=PROBE_SIZES, calls=PROBE_CALLS) -> dict:
    """Time one latent solve at the prior-initial hyperparameters as n grows.

    The model is copy-augmented framingham_like (criterion-6 design). Dense
    bytes are computed from the shapes of the design and Hessian arrays.
    """
    out = {}
    for n in sizes:
        sim = simulate_study(make_recipe("framingham_like", n=n, beta_0=-1.4, seed=42))
        spec = meglm.parse_model_config(sim.model_config)
        model = copy_augment(build_joint_model(spec, sim.dataset))
        theta = model.theta.init_natural()
        latent_gaussian_approx(model, theta)  # fills the model's design cache
        times = []
        for _ in range(calls):
            t = time.perf_counter()
            latent_gaussian_approx(model, theta)
            times.append(time.perf_counter() - t)
        cond = assemble_conditional(model, theta)
        out["gaussian.probe_ms.n%d" % n] = 1000.0 * statistics.median(times)
        out["gaussian.probe_dim.n%d" % n] = cond.dim
        out["gaussian.probe_dense_bytes.n%d" % n] = cond.A.nbytes + cond.gauss_hess.nbytes
    return out


# ---------------------------------------------------------------------------
# runs


def _deadline_passed(start: float, seconds: float, durations: list) -> bool:
    """True when another operation of the typical length would overrun."""
    return time.perf_counter() - start + statistics.median(durations) > seconds


def _combine(samples: list, units: dict) -> tuple:
    """Median of time metrics; counters must repeat exactly across fits."""
    out, problem = {}, None
    for name in samples[0]:
        values = [s[name] for s in samples]
        if units[name] in TIME_UNITS:
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                problem = "counter %s differs across traced fits: %r" % (name, values)
    return out, problem


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, reference: dict,
                 workdir: str, setup_reps: int = SETUP_REPS, probe_sizes=PROBE_SIZES,
                 spans_path=None) -> tuple:
    """Measure one workload; returns (result, details) where result is the JSON contract."""
    paths = make_inputs(workload.study, workload.recipe, seed, os.path.join(workdir, "inputs"))
    fits, problems = [], []
    metrics = {}

    def record(fit: Fit, label: str):
        if fit.problem is None and fits and fit.files != fits[0].files:
            # every fit of a run reads the same inputs, so files must not change
            fit.problem = "output files differ from the run's first fit"
        fits.append(fit)
        if fit.problem is not None:
            problems.append("%s: %s" % (label, fit.problem))

    if not trace:
        setup = time_setup(workload, seed, workdir, setup_reps)
        start = time.perf_counter()
        durations = []
        while True:
            k = len(fits)
            record(fit_once(workload, paths, os.path.join(workdir, "fit%d" % k), reference),
                   "fit %d" % k)
            durations.append(fits[-1].seconds)
            if len(fits) >= 2 and _deadline_passed(start, seconds, durations):
                break
        # The first fit warms the process: on ibex_like at the README grid it
        # ran 20-30% slower than the next ones, so fit_s leaves it out and
        # every run makes at least one more. Traced runs report the first fit
        # as cold_fit_s.
        metrics = {
            "fit_s": statistics.median(f.seconds for f in fits[1:]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        details = {"setup_s": setup}
    else:
        units = per_layer_units(probe_sizes)
        start = time.perf_counter()
        for k in range(2):
            record(fit_once(workload, paths, os.path.join(workdir, "plain%d" % k), reference),
                   "untraced fit %d" % k)
        cold, untraced = fits
        tracer = Tracer()
        layer_samples, traced, durations = [], [], []
        while True:
            k = len(layer_samples)
            with tracer.patched(k):
                record(fit_once(workload, paths, os.path.join(workdir, "traced%d" % k),
                                reference, tracer), "traced fit %d" % k)
            traced.append(fits[-1])
            layer_samples.append(layer_metrics(tracer.spans, k, traced[-1].files))
            durations.append(traced[-1].seconds)
            if _deadline_passed(start, seconds, durations):
                break
        layers, problem = _combine(layer_samples, units)
        if problem:
            problems.append(problem)
        metrics.update(layers)
        # after the fits: freeing the probe's large arrays raises glibc's
        # mmap threshold, which would spare later fits their page faults
        metrics.update(solve_probe(probe_sizes))
        metrics["cold_fit_s"] = cold.seconds
        for m in METHODS:
            metrics["%s_s" % m] = untraced.method_seconds.get(m, 0.0)
        metrics["trace.overhead_s"] = (statistics.median(f.seconds for f in traced)
                                       - untraced.seconds)
        if spans_path:
            tracer.dump(spans_path)
        details = {}
    details["fit_s"] = [f.seconds for f in fits]
    details["problems"] = problems
    result = {
        "correct": not problems,
        "attempted": len(fits),
        "failed": sum(1 for f in fits if f.problem is not None),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, details


# ---------------------------------------------------------------------------
# machine record and reference


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": BLAS_THREADS,
        "commit": _git_commit(),
    }


def load_reference(name: str) -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[name]


def _summaries(outdir: str, methods) -> dict:
    ref = {}
    for m in methods:
        with open(os.path.join(outdir, "%s_summary.json" % m)) as fh:
            params = json.load(fh)["parameters"]
        ref[m] = {p["parameter"]: {"mean": p["mean"], "sd": p["sd"]} for p in params}
    return ref


def make_reference(workload: Workload, workdir: str, chain_factor=REFERENCE_CHAIN_FACTOR) -> dict:
    """Reference mean/sd per method and parameter, from this tree's own fits.

    Grid methods come from one fit of the workload. The mcmc entry comes from
    a chain chain_factor times longer and thinned chain_factor times more, so
    it keeps the same number of draws with a larger effective sample size.
    """
    paths = make_inputs(workload.study, workload.recipe, 0, os.path.join(workdir, "inputs"))
    grid = [m for m in workload.methods if m != "mcmc"]
    ref = {}
    if grid:
        outdir = os.path.join(workdir, "grid")
        run_fit(RunConfig(config_path=paths["config"], data_path=paths["data"], outdir=outdir,
                          **workload.fit), log=_quiet)
        ref.update(_summaries(outdir, grid))
    if "mcmc" in workload.methods:
        outdir = os.path.join(workdir, "chain")
        fit = dict(workload.fit, method="mcmc")
        for key in ("iterations", "burn_in", "thin"):
            fit[key] = fit[key] * chain_factor
        run_fit(RunConfig(config_path=paths["config"], data_path=paths["data"], outdir=outdir,
                          **fit), log=_quiet)
        ref.update(_summaries(outdir, ["mcmc"]))
    return ref


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-reference", action="store_true",
                        help="refit the workload and rewrite its entry in reference.json")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT_ROOT, exist_ok=True)
    workdir = os.path.join(OUT_ROOT, "%s-s%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        if args.make_reference:
            ref = make_reference(workload, workdir)
            table = {}
            if os.path.isfile(REFERENCE_PATH):
                with open(REFERENCE_PATH) as fh:
                    table = json.load(fh)
            table[args.workload] = ref
            with open(REFERENCE_PATH, "w") as fh:
                fh.write(json.dumps(table, indent=2, sort_keys=True) + "\n")
            return 0
        spans = os.path.join(OUT_ROOT, "spans-%s-s%d.jsonl" % (args.workload, args.seed))
        result, details = run_workload(
            workload, args.seed, args.seconds, bool(args.trace), load_reference(args.workload),
            workdir, spans_path=spans if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in details["problems"]:
        print("check failed: %s" % problem, file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "machine": machine(), "samples": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
