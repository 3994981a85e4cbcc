"""Report plumbing: round-trip summaries, determinism, comparison tables."""

import json
import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

import meglm.report
from meglm.approx import MARGINAL_GRID_SIZE, marginal_from_grid
from meglm.data import Dataset, DataError, parse_model_config
from meglm.errors import NumericError, SpecError
from meglm.mcmc import ChainConfig
from meglm.model import build_joint_model, copy_augment, naive_spec
from meglm.report import (
    ParameterSummary,
    PosteriorReport,
    RunConfig,
    _chain_marginal,
    _grid_fit,
    attenuation_note,
    build_report,
    laplace_marginals,
    mcmc_marginals,
    naive_marginals,
    read_marginal_csv,
    read_report,
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
        with pytest.raises(SpecError, match="burn_in"):
            RunConfig("c", "d", "all", "o", iterations=100, burn_in=100, seed=3)
        with pytest.raises(SpecError, match="keeps too few draws"):
            RunConfig("c", "d", "mcmc", "o", iterations=10, burn_in=5, thin=10, seed=3)
        # grid methods do not run the chain, so its settings are not checked
        RunConfig("c", "d", "laplace", "o", iterations=10, burn_in=5, thin=10)
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


class TestBuildReport:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_summary_raises_naming_it(self, bad):
        values = np.linspace(0.0, 1.0, 11)
        good = summarize_grid(values, np.ones(11))
        density = np.ones(11)
        density[3] = bad
        broken = replace(good, density=density)
        with np.errstate(invalid="ignore"), pytest.raises(
            NumericError, match="laplace marginal of tau_u has a non-finite summary"
        ):
            build_report("laplace", {"beta_x": good, "tau_u": broken})

    def test_parameters_sharing_a_file_name_raise_before_any_file(self, tmp_path, monkeypatch):
        # covariates "a b" and "a_b" both map to marginals/laplace_beta_a_b.csv,
        # where the second would overwrite the first
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal(30), rng.standard_normal(30)
        Dataset.from_arrays(y=2.0 * a - b + 0.3 * rng.standard_normal(30),
                            **{"a b": a, "a_b": b}).to_csv(tmp_path / "data.csv")
        (tmp_path / "model.ini").write_text(
            "[model]\nfamily = gaussian\ncovariates = a b, a_b\n\n"
            "[prior.beta]\nkind = gaussian\nprecision = 0.01\n\n"
            "[prior.tau_eps]\nkind = gamma\nshape = 1\nrate = 1\n")
        outdir = tmp_path / "out"
        cfg = replace(small_cfg({"config": tmp_path / "model.ini", "data": tmp_path / "data.csv"}, outdir),
                      method="laplace")
        # the clash is found from the model's parameters, before any grid
        def explore_grid(*args, **kwargs):
            raise AssertionError("the grid was walked")

        monkeypatch.setattr(meglm.report, "explore_grid", explore_grid)
        with pytest.raises(SpecError, match="'beta_a b' and 'beta_a_b' would both write"):
            run_fit(cfg, log=lambda *a: None)
        assert not [f for _, _, files in os.walk(outdir) for f in files]


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
                    assert got == rec[key], (method, rec["parameter"], key)

    @pytest.mark.parametrize("method", ["naive", "laplace", "mcmc"])
    def test_read_report_returns_the_written_report(self, fitted, method):
        _, _, outdir, reports = fitted
        assert read_report(outdir / ("%s_summary.json" % method)) == reports[method]

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

    @pytest.mark.parametrize("study, overrides", [("ibex", {"n": 26}), ("seedling", {})])
    @pytest.mark.parametrize(
        "methods", [("naive", "laplace", "mcmc"), ("naive", "mcmc"), ("naive", "laplace")]
    )
    def test_comparison_follows_the_parameter_table(self, study, overrides, methods, tmp_path):
        sim = simulate_study(make_recipe(study, seed=1, **overrides))
        spec = parse_model_config(sim.model_config)
        table = build_joint_model(spec, sim.dataset).parameter_names()
        naive_table = build_joint_model(naive_spec(spec), sim.dataset).parameter_names()
        reports = {}
        for method in methods:
            names = naive_table if method == "naive" else table
            reports[method] = PosteriorReport(
                method,
                tuple(ParameterSummary(n, method, 0.0, 1.0, -2.0, 0.0, 2.0) for n in names),
                {},
            )
        with open(write_comparison(reports, tmp_path)) as fh:
            rows = fh.read().splitlines()[1:]
        assert list(dict.fromkeys(row.split(",")[0] for row in rows)) == list(table)

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
        assert chain.names == tuple(marginals)
        draws = chain.column("beta_x")
        assert marginals["beta_x"].mean == pytest.approx(
            float(np.mean(draws)), abs=0.05 * float(np.std(draws))
        )

    def test_mcmc_marginals_reject_a_chain_of_fewer_than_two_draws(self, tmp_path):
        # (10 - 5) // 10 = 0 draws: refused before the chain runs, with no
        # numpy warning from statistics of an empty chain
        sim, _ = ibex_files(tmp_path, seed=8)
        spec = parse_model_config(sim.model_config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpecError, match=r"the chain keeps too few draws: .* = 0; at least 2"):
                mcmc_marginals(spec, sim.dataset, ChainConfig(iterations=10, burn_in=5, thin=10, seed=1))

    def test_naive_and_laplace_share_regression_names(self, tmp_path):
        sim, _ = ibex_files(tmp_path, seed=9)
        spec = parse_model_config(sim.model_config)
        nai, _ = naive_marginals(spec, sim.dataset, dz=1.0, diff_logdens=4.0)
        lap, _ = laplace_marginals(spec, sim.dataset, dz=1.2, diff_logdens=3.0)
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
        plain, _ = _grid_fit(model, dz=1.0, diff_logdens=4.0)
        augmented, _ = _grid_fit(copy_augment(model), dz=1.0, diff_logdens=4.0)
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


def scipy_chain_marginal(draws):
    """The chain density as scipy.stats.gaussian_kde gives it, on the same grid."""
    from scipy.stats import gaussian_kde

    kde = gaussian_kde(draws)
    bandwidth = float(kde.factor) * float(np.std(draws, ddof=1))
    values = np.linspace(
        float(np.min(draws)) - 3.0 * bandwidth,
        float(np.max(draws)) + 3.0 * bandwidth,
        MARGINAL_GRID_SIZE,
    )
    return marginal_from_grid(values, kde(values))


class TestChainDensity:
    """The numpy kernel density reproduces scipy.stats.gaussian_kde."""

    @staticmethod
    def assert_matches_scipy(marginal, draws):
        want = scipy_chain_marginal(draws)
        np.testing.assert_allclose(marginal.values, want.values, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(marginal.density, want.density, rtol=1e-12, atol=0.0)
        for stat in ("mean", "sd", "q025", "q50", "q975"):
            assert abs(getattr(marginal, stat) - getattr(want, stat)) <= 1e-12 * want.sd, stat

    @pytest.mark.parametrize(
        "study, overrides",
        [("ibex", {"n": 26}), ("framingham", {"n": 60}), ("seedling", {})],
    )
    def test_chain_marginals_match_scipy(self, study, overrides):
        sim = simulate_study(make_recipe(study, seed=3, **overrides))
        spec = parse_model_config(sim.model_config)
        marginals, chain = mcmc_marginals(
            spec, sim.dataset, ChainConfig(iterations=1500, burn_in=500, thin=1, seed=5)
        )
        assert marginals
        for name, marginal in marginals.items():
            self.assert_matches_scipy(marginal, chain.column(name))

    @pytest.mark.parametrize(
        "draws",
        [np.array([0.25, 1.75]), np.random.default_rng(2).standard_t(2.5, size=3000)],
        ids=["two-draws", "heavy-tailed"],
    )
    def test_sample_matches_scipy(self, draws):
        self.assert_matches_scipy(_chain_marginal(draws), draws)


class TestCentering:
    """Reported intercepts are on the centered scale; nothing else moves.

    Centering subtracts a constant from the proxies (m_w) and from each
    continuous covariate (m_zj). Slopes and precisions are unaffected, and
    the intercepts shift: the uncentered fit's beta_0 is
    beta_0 - beta_x m_w - sum_j beta_zj m_zj, and its alpha_0 is
    alpha_0 + m_w - sum_j alpha_zj m_zj, both in the centered fit's terms.
    """

    @staticmethod
    def uncentered_intercepts(means, spec, centering):
        # a covariate absent from a block has no coefficient there
        m_w = centering["+".join(spec.proxies)]
        out = {}
        if "beta_0" in means:
            out["beta_0"] = means["beta_0"] - means["beta_x"] * m_w - sum(
                means.get("beta_%s" % c, 0.0) * centering.get(c, 0.0) for c in spec.covariates)
        if "alpha_0" in means:
            out["alpha_0"] = means["alpha_0"] + m_w - sum(
                means.get("alpha_%s" % c, 0.0) * centering.get(c, 0.0) for c in spec.covariates)
        return out

    @pytest.mark.parametrize("method", ["laplace", "naive"])
    @pytest.mark.parametrize("study", ["ibex", "framingham"])
    def test_only_the_intercepts_move(self, study, method):
        sim = simulate_study(make_recipe(study, seed=1))
        spec = parse_model_config(sim.model_config)
        fit, model_spec = {"laplace": (laplace_marginals, spec),
                           "naive": (naive_marginals, naive_spec(spec))}[method]
        centered, _ = fit(spec, sim.dataset, dz=1.0, diff_logdens=6.0)
        plain, _ = fit(replace(spec, center=False), sim.dataset, dz=1.0, diff_logdens=6.0)
        centering = build_joint_model(model_spec, sim.dataset).centering
        assert list(centered) == list(plain)
        means = {name: m.mean for name, m in centered.items()}
        shifted = self.uncentered_intercepts(means, spec, centering)
        for name, m in centered.items():
            want = shifted.get(name, m.mean)
            assert abs(want - plain[name].mean) < 0.05 * m.sd, name
        if study == "ibex":
            # the written beta_0 is not the uncentered one
            assert abs(centered["beta_0"].mean - plain["beta_0"].mean) > 1.0 * centered["beta_0"].sd


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
