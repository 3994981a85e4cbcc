"""Report plumbing: round-trip summaries, determinism, comparison tables."""

import json
import math
import os

import numpy as np
import pytest

from meglm.data import Dataset, DataError, parse_model_config
from meglm.errors import SpecError
from meglm.mcmc import ChainConfig
from meglm.model import build_joint_model, copy_augment
from meglm.report import (
    ParameterSummary,
    PosteriorReport,
    RunConfig,
    _grid_fit,
    attenuation_note,
    build_report,
    laplace_marginals,
    mcmc_marginals,
    naive_marginals,
    read_marginal_csv,
    run_fit,
    summarize_grid,
    write_comparison,
    write_report,
)
from meglm.studies import IbexRecipe, make_recipe, simulate_study, write_study


def ibex_files(tmp_path, n=26, seed=5):
    sim = simulate_study(IbexRecipe(n=n, seed=seed))
    return sim, write_study(sim, tmp_path, stem="ibex")


def small_cfg(files, outdir, method="all"):
    return RunConfig(
        config_path=files["config"],
        data_path=files["data"],
        method=method,
        outdir=str(outdir),
        dz=1.0,
        diff_logdens=4.0,
        iterations=3000,
        burn_in=1000,
        thin=4,
        seed=17,
    )


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(SpecError):
            RunConfig("c", "d", "bogus", "o")
        with pytest.raises(SpecError):
            RunConfig("c", "d", "mcmc", "o")
        with pytest.raises(SpecError):
            RunConfig("c", "d", "all", "o")
        with pytest.raises(SpecError):
            RunConfig("c", "d", "laplace", "o", dz=0.0)
        cfg = RunConfig("c", "d", "mcmc", "o", seed=3)
        assert cfg.chain_config() == ChainConfig(
            iterations=100_000, burn_in=10_000, thin=10, seed=3
        )


class TestSummarizeGrid:
    def test_gaussian_grid_moments(self):
        values = np.linspace(-7.0, 9.0, 801)
        density = np.exp(-0.5 * (values - 1.0) ** 2)
        m = summarize_grid(values, density)
        assert m.mean == pytest.approx(1.0, abs=1.0e-9)
        assert m.sd == pytest.approx(1.0, abs=1.0e-6)
        assert m.q50 == pytest.approx(1.0, abs=1.0e-6)
        assert m.q025 == pytest.approx(1.0 - 1.959964, abs=1.0e-4)

    def test_rejects_bad_grids(self):
        v = np.linspace(0, 1, 11)
        with pytest.raises(SpecError):
            summarize_grid(v[::-1], np.ones(11))
        with pytest.raises(SpecError):
            summarize_grid(v, -np.ones(11))
        with pytest.raises(SpecError):
            summarize_grid(v, np.ones(10))


class TestReportFiles:
    @pytest.fixture(scope="class")
    @staticmethod
    def fitted(tmp_path_factory):
        tmp = tmp_path_factory.mktemp("fit")
        sim, files = ibex_files(tmp)
        outdir = tmp / "out"
        reports = run_fit(small_cfg(files, outdir), log=lambda *a: None)
        return sim, files, outdir, reports

    def test_method_all_writes_three_reports_plus_comparison(self, fitted):
        _, _, outdir, reports = fitted
        assert set(reports) == {"naive", "laplace", "mcmc"}
        for method in reports:
            assert (outdir / ("%s_summary.json" % method)).exists()
        assert (outdir / "comparison.csv").exists()

    def test_every_parameter_once_per_method(self, fitted):
        _, _, _, reports = fitted
        for rep in reports.values():
            names = [p.parameter for p in rep.parameters]
            assert len(names) == len(set(names))
        corrected = {p.parameter for p in reports["laplace"].parameters}
        assert {"beta_0", "beta_x", "alpha_0", "tau_u", "tau_x", "tau_eps"} <= corrected
        naive = {p.parameter for p in reports["naive"].parameters}
        assert "tau_u" not in naive and "alpha_0" not in naive
        assert {"beta_0", "beta_x", "tau_eps"} <= naive
        assert {p.parameter for p in reports["mcmc"].parameters} == corrected

    def test_round_trip_summaries_match_json(self, fitted):
        _, _, outdir, reports = fitted
        for method, rep in reports.items():
            with open(outdir / ("%s_summary.json" % method)) as fh:
                payload = json.load(fh)
            assert payload["method"] == method
            for rec in payload["parameters"]:
                rel = payload["marginal_files"][rec["parameter"]]
                values, density = read_marginal_csv(outdir / rel)
                again = summarize_grid(values, density)
                for key, got in (
                    ("mean", again.mean),
                    ("sd", again.sd),
                    ("q025", again.q025),
                    ("q50", again.q50),
                    ("q975", again.q975),
                ):
                    assert got == pytest.approx(rec[key], abs=1.0e-6), (
                        method,
                        rec["parameter"],
                        key,
                    )

    def test_naive_slope_attenuated_toward_zero(self, fitted):
        sim, _, _, reports = fitted
        truth = sim.truth.parameters["beta_x"]
        naive = reports["naive"].summary("beta_x").mean
        corrected = reports["laplace"].summary("beta_x").mean
        assert abs(naive) < abs(truth)
        assert abs(naive) < abs(corrected)
        assert attenuation_note(reports) is not None

    def test_comparison_rows_grouped_by_parameter(self, fitted):
        _, _, outdir, _ = fitted
        lines = (outdir / "comparison.csv").read_text().splitlines()
        assert lines[0] == "parameter,method,mean,sd,q025,q50,q975"
        rows = [ln.split(",") for ln in lines[1:]]
        beta_x_methods = [r[1] for r in rows if r[0] == "beta_x"]
        assert beta_x_methods == ["naive", "laplace", "mcmc"]
        seen = []
        for r in rows:
            if r[0] not in seen:
                seen.append(r[0])
        assert seen[0] == "beta_0"
        assert set(len(r) for r in rows) == {7}

    def test_seeded_rerun_is_bit_identical(self, fitted, tmp_path):
        _, files, outdir, _ = fitted
        second = tmp_path / "again"
        run_fit(small_cfg(files, second), log=lambda *a: None)
        names = []
        for root, _, fns in os.walk(outdir):
            for fn in fns:
                names.append(os.path.relpath(os.path.join(root, fn), outdir))
        assert names
        for rel in names:
            a = (outdir / rel).read_bytes()
            b = (second / rel).read_bytes()
            assert a == b, rel


class TestMarginalSources:
    def test_mcmc_marginals_skip_latent_picks(self, tmp_path):
        sim, files = ibex_files(tmp_path, seed=8)
        spec = parse_model_config(sim.model_config)
        marginals, chain = mcmc_marginals(
            spec, sim.dataset, ChainConfig(iterations=2000, burn_in=500, thin=3, seed=4)
        )
        assert any(name.startswith("x_") for name in chain.names)
        assert not any(name.startswith("x_") for name in marginals)
        draws = chain.column("beta_x")
        assert marginals["beta_x"].mean == pytest.approx(
            float(np.mean(draws)), abs=0.05 * float(np.std(draws))
        )

    def test_naive_and_laplace_share_regression_names(self, tmp_path):
        sim, _ = ibex_files(tmp_path, seed=9)
        spec = parse_model_config(sim.model_config)
        nai = naive_marginals(spec, sim.dataset, dz=1.0, diff_logdens=4.0)
        lap = laplace_marginals(spec, sim.dataset, dz=1.2, diff_logdens=3.0)
        reg = {"beta_0", "beta_x", "beta_z1", "beta_z2", "beta_z3", "beta_z4"}
        assert reg <= set(nai) and reg <= set(lap)
        assert list(nai)[:2] == ["beta_0", "beta_x"]

    @pytest.mark.parametrize(
        "study, overrides",
        [
            ("ibex", {"n": 26, "seed": 9}),
            ("framingham", {"n": 120, "seed": 9}),
            ("seedling", {"seed": 9}),
        ],
    )
    def test_plain_fit_agrees_with_copy_augmented_fit(self, study, overrides):
        # laplace fits the plain model; the paper's high-precision copy of
        # beta_x * x must give the same marginals at criterion-6 tolerances
        sim = simulate_study(make_recipe(study, **overrides))
        model = build_joint_model(parse_model_config(sim.model_config), sim.dataset)
        plain = _grid_fit(model, dz=1.0, diff_logdens=4.0)
        augmented = _grid_fit(copy_augment(model), dz=1.0, diff_logdens=4.0)
        assert list(plain) == list(augmented)
        for name, ref in augmented.items():
            assert abs(plain[name].mean - ref.mean) < 0.1 * ref.sd, name
            assert abs(plain[name].sd / ref.sd - 1.0) < 0.1, name

    def test_marginal_csv_round_trip_bytes(self, tmp_path):
        values = np.linspace(0.0, 2.0, 75)
        density = np.exp(-values)
        m = summarize_grid(values, density)
        rep = build_report("naive", {"tau_eps": m})
        write_report(rep, {"tau_eps": m}, tmp_path)
        back_v, back_d = read_marginal_csv(tmp_path / "marginals" / "naive_tau_eps.csv")
        assert np.array_equal(back_v, values)
        assert np.max(np.abs(back_d - density / np.trapezoid(density, values))) < 1.0e-15

    def test_read_marginal_rejects_wrong_columns(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(DataError):
            read_marginal_csv(bad)


def _mini_report(method, beta_x_mean):
    summary = ParameterSummary(
        parameter="beta_x",
        method=method,
        mean=beta_x_mean,
        sd=1.0,
        q025=beta_x_mean - 2,
        q50=beta_x_mean,
        q975=beta_x_mean + 2,
    )
    return PosteriorReport(method=method, parameters=(summary,), marginal_files={})


class TestComparisonHelpers:
    def test_attenuation_note_direction(self):
        reports = {"naive": _mini_report("naive", -0.9), "laplace": _mini_report("laplace", -1.5)}
        assert "attenuated" in attenuation_note(reports)
        reports = {"naive": _mini_report("naive", -1.5), "laplace": _mini_report("laplace", -0.9)}
        assert attenuation_note(reports) is None
        assert attenuation_note({"naive": _mini_report("naive", -0.9)}) is None

    def test_write_comparison_requires_reports(self, tmp_path):
        with pytest.raises(SpecError):
            write_comparison({}, tmp_path)

    def test_duplicate_parameter_rejected(self):
        s = ParameterSummary("beta_x", "naive", 0, 1, -2, 0, 2)
        with pytest.raises(SpecError):
            PosteriorReport(method="naive", parameters=(s, s), marginal_files={})
