"""Command-line interface: fit, simulate, elicit, compare.

Exit codes: 0 on success, 1 for usage, configuration, or data errors, and 2
for numerical failures. All randomness flows through an explicit --seed;
commands that draw random numbers refuse to run without one.
"""

import argparse
import json
import os
import sys

from .data import DataError
from .elicit import (
    gamma_from_quantiles,
    lognormal_from_quantiles,
    precision_from_uniform_range,
)
from .errors import NumericError, SpecError
from .report import (
    METHODS,
    RunConfig,
    attenuation_note,
    read_report,
    run_fit,
    write_comparison,
)
from .studies import STUDY_NAMES, make_recipe, simulate_study, write_study

__all__ = ["main", "build_parser"]


class _UsageError(SpecError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError("%s: %s" % (self.prog, message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="meglm",
        description="Measurement-error GLM fitting, simulation, and prior elicitation.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    fit = sub.add_parser("fit", help="fit a model by naive, laplace, or mcmc methods")
    fit.add_argument("--config", required=True, help="model configuration file (INI)")
    fit.add_argument("--data", required=True, help="dataset CSV")
    fit.add_argument("--method", required=True, choices=METHODS + ("all",))
    fit.add_argument("--outdir", required=True, help="directory for report files")
    fit.add_argument("--dz", type=float, default=None, help="grid step in standardized units")
    fit.add_argument(
        "--diff-logdens", type=float, default=None, help="log-density drop kept on the grid"
    )
    fit.add_argument("--iterations", type=int, default=None, help="total chain iterations")
    fit.add_argument("--burn-in", type=int, default=None, help="discarded initial iterations")
    fit.add_argument("--thin", type=int, default=None, help="keep every thin-th draw")
    fit.add_argument("--seed", type=int, default=None, help="chain seed (required for mcmc)")

    sim = sub.add_parser("simulate", help="generate a synthetic study")
    sim.add_argument("--study", required=True, help="one of: %s" % ", ".join(STUDY_NAMES))
    sim.add_argument("--seed", type=int, default=None, required=False)
    sim.add_argument("--n", type=int, default=None, help="sample size override")
    sim.add_argument("--outdir", default=".", help="directory for the study files")
    sim.add_argument("--stem", default=None, help="file-name stem (default: study name)")

    eli = sub.add_parser("elicit", help="fit prior parameters from elicited summaries")
    eli_sub = eli.add_subparsers(dest="target", metavar="target")
    gam = eli_sub.add_parser("gamma", help="Gamma(shape, rate) from two quantiles")
    gam.add_argument("--q", nargs=2, type=float, required=True, metavar=("LO", "HI"))
    gam.add_argument("--p", nargs=2, type=float, default=(0.025, 0.975), metavar=("PLO", "PHI"))
    logn = eli_sub.add_parser("lognormal", help="log-normal(mu, sigma^2) from two quantiles")
    logn.add_argument("--q", nargs=2, type=float, required=True, metavar=("LO", "HI"))
    logn.add_argument("--p", nargs=2, type=float, default=(0.025, 0.975), metavar=("PLO", "PHI"))
    uni = eli_sub.add_parser(
        "uniform-precision", help="precision matching a uniform error of given width"
    )
    uni.add_argument("--width", type=float, required=True)

    cmp_ = sub.add_parser("compare", help="merge existing summary JSONs into one table")
    cmp_.add_argument("summaries", nargs="+", help="summary JSON files from fit runs")
    cmp_.add_argument("--outdir", default=".", help="directory for comparison.csv")

    return parser


def _cmd_fit(args) -> int:
    kwargs = {}
    for name in ("dz", "diff_logdens", "iterations", "burn_in", "thin"):
        value = getattr(args, name)
        if value is not None:
            kwargs[name] = value
    cfg = RunConfig(
        config_path=args.config,
        data_path=args.data,
        method=args.method,
        outdir=args.outdir,
        seed=args.seed,
        **kwargs,
    )
    run_fit(cfg)
    return 0


def _cmd_simulate(args) -> int:
    if args.seed is None:
        raise _UsageError("meglm simulate: --seed is required (no silent nondeterminism)")
    overrides = {"seed": args.seed}
    if args.n is not None:
        overrides["n"] = args.n
    recipe = make_recipe(args.study, **overrides)
    sim = simulate_study(recipe)
    files = write_study(sim, args.outdir, stem=args.stem)
    for kind in ("data", "truth", "config"):
        print("%s -> %s" % (kind, files[kind]))
    return 0


def _cmd_elicit(args) -> int:
    if args.target == "gamma":
        fit = gamma_from_quantiles(args.q[0], args.q[1], args.p[0], args.p[1])
        payload = {"distribution": "gamma", "shape": fit.shape, "rate": fit.rate}
    elif args.target == "lognormal":
        fit = lognormal_from_quantiles(args.q[0], args.q[1], args.p[0], args.p[1])
        payload = {"distribution": "lognormal", "mu": fit.mu, "sigma_sq": fit.sigma2}
    elif args.target == "uniform-precision":
        payload = {
            "distribution": "uniform-precision",
            "width": args.width,
            "precision": precision_from_uniform_range(args.width),
        }
    else:
        raise _UsageError(
            "meglm elicit: choose a target: gamma, lognormal, uniform-precision"
        )
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_compare(args) -> int:
    reports = {}
    for path in args.summaries:
        report = read_report(path)
        if report.method in reports:
            raise DataError("two summaries claim method %r" % report.method)
        reports[report.method] = report
    os.makedirs(args.outdir, exist_ok=True)
    path = write_comparison(reports, args.outdir)
    print("comparison table -> %s" % path)
    note = attenuation_note(reports)
    if note:
        print(note)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "elicit":
            return _cmd_elicit(args)
        if args.command == "compare":
            return _cmd_compare(args)
        raise _UsageError("meglm: unknown command %r" % args.command)
    except (SpecError, DataError) as exc:
        print("meglm: error: %s" % exc, file=sys.stderr)
        return 1
    except NumericError as exc:
        print("meglm: numerical failure: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
