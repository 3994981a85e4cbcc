"""Cold start: `import meglm` loads numpy and no scipy submodule.

scipy's submodules take a large share of a short run's start-up, so each
is imported where it is first used, and the package imports no
scipy.stats at all (the chain's kernel density is numpy). These tests run
fresh interpreters: some check what an import, a grid fit or a chain
loads, the others run the commands whose first call reaches each deferred
import, so a missing one fails here rather than as a NameError in a
user's run.
"""

import json
import os
import subprocess
import sys

import meglm

SRC = os.path.dirname(os.path.dirname(os.path.abspath(meglm.__file__)))


def fresh_python(*args, cwd=None):
    """Run a new interpreter that imports this checkout's meglm."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path),
        cwd=cwd,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
    )


def run_meglm(*argv, cwd=None):
    proc = fresh_python("-m", "meglm", *argv, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout


def test_import_loads_no_scipy_submodule():
    proc = fresh_python(
        "-c",
        "import json, sys, meglm, meglm.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy.'))))",
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_framingham_simulation_loads_no_scipy_submodule():
    proc = fresh_python(
        "-c",
        "import json, sys\n"
        "from meglm.studies import make_recipe, simulate_study\n"
        "simulate_study(make_recipe('framingham', n=50, seed=1))\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy.'))))",
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_elicit_commands_in_fresh_interpreters():
    gamma = json.loads(run_meglm("elicit", "gamma", "--q", "0.5", "2.0"))
    assert gamma["distribution"] == "gamma" and gamma["shape"] > 0.0
    lognormal = json.loads(run_meglm("elicit", "lognormal", "--q", "40", "130"))
    assert lognormal["sigma_sq"] > 0.0


def test_framingham_simulation_and_binomial_fit(tmp_path):
    run_meglm("simulate", "--study", "framingham", "--n", "40", "--seed", "1",
              "--outdir", "sim", cwd=tmp_path)
    run_meglm("fit", "--config", "sim/framingham_like_model.ini",
              "--data", "sim/framingham_like.csv", "--method", "naive",
              "--outdir", "out", cwd=tmp_path)
    assert (tmp_path / "out" / "naive_summary.json").is_file()


def test_fit_all_on_a_tiny_ibex_design(tmp_path):
    run_meglm("simulate", "--study", "ibex", "--seed", "1", "--outdir", "sim", cwd=tmp_path)
    out = run_meglm("fit", "--config", "sim/ibex_like_model.ini", "--data", "sim/ibex_like.csv",
                    "--method", "all", "--outdir", "out", "--dz", "1.0", "--diff-logdens", "3",
                    "--iterations", "400", "--burn-in", "100", "--thin", "1", "--seed", "3",
                    cwd=tmp_path)
    assert "comparison table" in out
    marginals = tmp_path / "out" / "marginals"
    # a spline-interpolated hyperparameter density and a kernel density
    for name in ("laplace_tau_x.csv", "mcmc_beta_x.csv"):
        rows = (marginals / name).read_text().splitlines()
        assert rows[0] == "value,density" and len(rows) > 3


def scipy_modules_after_fit(study, n, method, cwd):
    """The scipy modules a fresh interpreter has loaded after simulating a
    study and fitting it with `meglm fit --method <method>`: a coarse grid,
    or a short chain."""
    run_meglm("simulate", "--study", study, "--n", str(n), "--seed", "1", "--outdir", "sim", cwd=cwd)
    proc = fresh_python(
        "-c",
        "import json, sys\n"
        "from meglm.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
        "sys.exit(code)",
        "fit", "--config", "sim/%s_like_model.ini" % study, "--data", "sim/%s_like.csv" % study,
        "--method", method, "--outdir", "out", "--dz", "1.0", "--diff-logdens", "3",
        "--iterations", "400", "--burn-in", "100", "--thin", "1", "--seed", "3",
        cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_gaussian_grid_fit_loads_no_scipy(tmp_path):
    assert scipy_modules_after_fit("ibex", 26, "laplace", tmp_path) == []


def test_binomial_grid_fit_loads_scipy_special_only(tmp_path):
    loaded = scipy_modules_after_fit("framingham", 40, "laplace", tmp_path)
    assert "scipy.special" in loaded
    for module in ("scipy.interpolate", "scipy.stats", "scipy.linalg"):
        assert module not in loaded


def test_gaussian_chain_loads_scipy_linalg_and_no_scipy_stats(tmp_path):
    loaded = scipy_modules_after_fit("ibex", 26, "mcmc", tmp_path)
    assert "scipy.linalg" in loaded
    for module in ("scipy.stats", "scipy.interpolate", "scipy.optimize"):
        assert module not in loaded
