"""Self-test of the benchmark at tiny sizes.

Run from the repository root with `python3 -m pytest perfbench`.
"""
import copy
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TINY_ALL = run.Workload(
    study="ibex_like",
    recipe={"n": 12, "seed": 1},
    fit={"method": "all", "dz": 1.5, "diff_logdens": 2.0,
         "iterations": 400, "burn_in": 100, "thin": 1, "seed": 11},
)
TINY_MCMC = run.Workload(
    study="seedling_like",
    recipe={"light_conditions": 2, "shadehouses": 2, "defoliation_levels": 2, "seed": 7},
    fit={"method": "mcmc", "iterations": 400, "burn_in": 100, "thin": 1, "seed": 11},
)
TINY_PROBE = (20,)
COUNTERS = ("gaussian.solves", "gaussian.newton_iters", "approx.grid_points")


def _reference(workload, tmp_path_factory):
    # chain_factor=1 makes the mcmc reference the benchmarked chain itself
    return run.make_reference(workload, str(tmp_path_factory.mktemp("ref")), chain_factor=1)


@pytest.fixture(scope="module")
def ref_all(tmp_path_factory):
    return _reference(TINY_ALL, tmp_path_factory)


@pytest.fixture(scope="module")
def ref_mcmc(tmp_path_factory):
    return _reference(TINY_MCMC, tmp_path_factory)


def measure(workload, reference, workdir, trace, seed=3):
    result, _ = run.run_workload(workload, seed, 0.0, trace, reference, str(workdir),
                                 setup_reps=1, probe_sizes=TINY_PROBE)
    return result


def declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_declared_metrics_match_the_benchmark():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.per_layer_units()


def test_untraced_run_emits_every_end_to_end_metric(tmp_path, ref_all):
    result = measure(TINY_ALL, ref_all, tmp_path, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(result) == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counters_repeat_exactly(tmp_path, ref_all):
    a = measure(TINY_ALL, ref_all, tmp_path / "a", trace=True)
    b = measure(TINY_ALL, ref_all, tmp_path / "b", trace=True)
    assert a["correct"] and b["correct"]
    assert units(a) == run.per_layer_units(TINY_PROBE)
    names = ["%s.%s" % (m, c) for m in run.GRID_METHODS for c in COUNTERS]
    names += ["mcmc.accept.x", "mcmc.accept.beta", "mcmc.accept.gamma", "mcmc.min_ess"]
    for name in names:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name
    assert a["metrics"]["laplace.gaussian.solves"]["value"] > 0
    assert a["metrics"]["mcmc.run_chain_s"]["value"] > 0


def test_layers_that_do_not_run_read_zero(tmp_path, ref_mcmc):
    result = measure(TINY_MCMC, ref_mcmc, tmp_path, trace=True)
    assert result["correct"]
    for m in run.GRID_METHODS:
        assert result["metrics"]["%s.gaussian.solves" % m]["value"] == 0
        assert result["metrics"]["%s_s" % m]["value"] == 0
    assert result["metrics"]["mcmc.run_chain_s"]["value"] > 0
    assert result["metrics"]["mcmc.accept.gamma"]["value"] > 0


def test_wrong_reference_is_a_failed_operation(tmp_path, ref_all):
    wrong = copy.deepcopy(ref_all)
    entry = wrong["laplace"]["beta_x"]
    entry["mean"] += entry["sd"]
    result = measure(TINY_ALL, wrong, tmp_path, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
