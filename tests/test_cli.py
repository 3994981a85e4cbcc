"""Command-line contract: subcommands, exit codes, seeded reproducibility."""

import json
import os
from dataclasses import replace

import pytest

import meglm.cli as cli
import meglm.report as report
from meglm.approx import explore_grid
from meglm.data import Dataset, read_model_config
from meglm.errors import NumericError
from meglm.mcmc import ChainConfig, effective_sample_size
from meglm.model import build_joint_model
from meglm.report import ESS_WARNING_FLOOR, mcmc_marginals
from meglm.studies import IbexRecipe, simulate_study, write_study


def run_cli(*argv):
    return cli.main(list(argv))


class TestElicit:
    def test_gamma_prints_reference_values(self, capsys):
        assert run_cli("elicit", "gamma", "--q", "0.5", "2.0") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["distribution"] == "gamma"
        assert payload["shape"] == pytest.approx(8.5, rel=0.15)
        assert payload["rate"] == pytest.approx(7.5, rel=0.15)

    def test_lognormal_prints_reference_values(self, capsys):
        assert run_cli("elicit", "lognormal", "--q", "40", "130") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mu"] == pytest.approx(4.3, abs=0.05)
        assert payload["sigma_sq"] == pytest.approx(0.1, abs=0.02)

    def test_uniform_precision_exact(self, capsys):
        assert run_cli("elicit", "uniform-precision", "--width", "0.05") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["precision"] == 4800.0

    def test_missing_target_is_usage_error(self, capsys):
        assert run_cli("elicit") == 1

    def test_invalid_quantiles_exit_one(self, capsys):
        assert run_cli("elicit", "gamma", "--q", "2.0", "0.5") == 1
        assert "error" in capsys.readouterr().err

    def test_infinite_quantile_exits_one(self, capsys):
        assert run_cli("elicit", "lognormal", "--q", "40", "inf") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "q_hi < inf" in captured.err


class TestSimulate:
    def test_seeded_runs_are_bit_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert (
                run_cli("simulate", "--study", "seedling", "--seed", "1", "--outdir", str(out))
                == 0
            )
        for name in os.listdir(a):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_ibex_row_count_and_weight_column(self, tmp_path, capsys):
        assert (
            run_cli(
                "simulate", "--study", "ibex", "--n", "500", "--seed", "2",
                "--outdir", str(tmp_path),
            )
            == 0
        )
        lines = (tmp_path / "ibex_like.csv").read_text().splitlines()
        assert lines[0].split(",")[:3] == ["y", "w", "error.prec"]
        assert len(lines) == 501

    def test_unknown_study_and_missing_seed(self, capsys):
        assert run_cli("simulate", "--study", "martian", "--seed", "1") == 1
        assert "unknown study" in capsys.readouterr().err
        assert run_cli("simulate", "--study", "ibex") == 1
        assert "--seed is required" in capsys.readouterr().err

    def test_negative_seed_exits_one_naming_it(self, tmp_path, capsys):
        assert run_cli("simulate", "--study", "ibex", "--seed", "-1", "--outdir", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("meglm: error: recipe seed") and "-1" in err
        assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def study_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_study")
    sim = simulate_study(IbexRecipe(seed=5))
    files = write_study(sim, tmp, stem="ibex")
    return sim, files


class TestFit:
    def test_usage_errors_exit_one(self, capsys):
        assert run_cli("fit") == 1
        assert run_cli("fit", "--config", "x.ini", "--data", "y.csv",
                       "--method", "bogus", "--outdir", "o") == 1
        assert run_cli("fit", "--config", "x.ini", "--data", "y.csv",
                       "--method", "mcmc", "--outdir", "o") == 1
        err = capsys.readouterr().err
        assert "--seed is required" in err

    def test_missing_files_exit_one(self, tmp_path, capsys):
        assert run_cli(
            "fit", "--config", str(tmp_path / "no.ini"), "--data", str(tmp_path / "no.csv"),
            "--method", "naive", "--outdir", str(tmp_path),
        ) == 1

    @pytest.mark.parametrize("command", ["fit", "simulate"])
    def test_outdir_that_is_a_file_exits_one(self, study_dir, tmp_path, capsys, command):
        _, files = study_dir
        taken = tmp_path / "taken"
        taken.write_text("")
        if command == "fit":
            argv = ("fit", "--config", files["config"], "--data", files["data"], "--method", "naive")
        else:
            argv = ("simulate", "--study", "ibex", "--seed", "1")
        assert run_cli(*argv, "--outdir", str(taken)) == 1
        err = capsys.readouterr().err
        assert err.startswith("meglm: error: ") and str(taken) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value, setting", [
        ("--dz", "nan", "dz"),
        ("--dz", "inf", "dz"),
        ("--diff-logdens", "nan", "diff-logdens"),
        ("--diff-logdens", "inf", "diff-logdens"),
    ])
    def test_non_finite_grid_setting_exits_one(
        self, study_dir, tmp_path, capsys, flag, value, setting
    ):
        _, files = study_dir
        code = run_cli(
            "fit", "--config", files["config"], "--data", files["data"],
            "--method", "laplace", "--outdir", str(tmp_path / "out"), flag, value,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "meglm: error: %s must be finite and positive" % setting in err

    @pytest.mark.parametrize("chain, message", [
        (("100", "100", "1"),
         "burn_in must satisfy 0 <= burn_in < iterations, got 100/100"),
        (("10", "5", "10"),
         "the chain keeps too few draws: (iterations 10 - burn-in 5) // thin 10 = 0; "
         "at least 2 are needed"),
        (("10", "8", "2"),
         "the chain keeps too few draws: (iterations 10 - burn-in 8) // thin 2 = 1; "
         "at least 2 are needed"),
    ])
    def test_bad_chain_settings_exit_one_before_any_fit(
        self, study_dir, tmp_path, capsys, chain, message
    ):
        _, files = study_dir
        outdir = tmp_path / "out"
        iterations, burn_in, thin = chain
        code = run_cli(
            "fit", "--config", files["config"], "--data", files["data"],
            "--method", "all", "--outdir", str(outdir),
            "--iterations", iterations, "--burn-in", burn_in, "--thin", thin, "--seed", "1",
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "meglm: error: %s\n" % message
        assert captured.out == ""
        assert not outdir.exists()

    def test_malformed_csv_names_offending_row(self, study_dir, tmp_path, capsys):
        _, files = study_dir
        bad = tmp_path / "bad.csv"
        with open(files["data"]) as fh:
            lines = fh.read().splitlines()
        lines[3] = lines[3].replace(lines[3].split(",")[0], "not-a-number", 1)
        bad.write_text("\n".join(lines) + "\n")
        code = run_cli(
            "fit", "--config", files["config"], "--data", str(bad),
            "--method", "naive", "--outdir", str(tmp_path / "out"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "line 4" in err and "not-a-number" in err

    def test_non_finite_cell_exits_one_naming_it(self, study_dir, tmp_path, capsys):
        _, files = study_dir
        bad = tmp_path / "bad.csv"
        with open(files["data"]) as fh:
            lines = fh.read().splitlines()
        y = lines[0].split(",").index("y")
        fields = lines[2].split(",")
        fields[y] = "inf"
        lines[2] = ",".join(fields)
        bad.write_text("\n".join(lines) + "\n")
        outdir = tmp_path / "out"
        code = run_cli(
            "fit", "--config", files["config"], "--data", str(bad),
            "--method", "laplace", "--outdir", str(outdir),
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "line 3, column 'y': 'inf' is not a finite number" in captured.err
        assert captured.out == ""
        assert not outdir.exists()

    def test_naive_fit_writes_report_and_flags_attenuation(self, study_dir, tmp_path, capsys):
        sim, files = study_dir
        outdir = tmp_path / "naive_out"
        code = run_cli(
            "fit", "--config", files["config"], "--data", files["data"],
            "--method", "naive", "--outdir", str(outdir),
        )
        assert code == 0
        with open(outdir / "naive_summary.json") as fh:
            payload = json.load(fh)
        rec = {p["parameter"]: p for p in payload["parameters"]}["beta_x"]
        assert abs(rec["mean"]) < abs(sim.truth.parameters["beta_x"])
        assert (outdir / "marginals" / "naive_beta_x.csv").exists()

    def test_mcmc_fit_then_compare(self, study_dir, tmp_path, capsys):
        _, files = study_dir
        outdir = tmp_path / "out"
        code = run_cli(
            "fit", "--config", files["config"], "--data", files["data"],
            "--method", "mcmc", "--outdir", str(outdir),
            "--iterations", "2000", "--burn-in", "500", "--thin", "3", "--seed", "11",
        )
        assert code == 0
        code = run_cli(
            "fit", "--config", files["config"], "--data", files["data"],
            "--method", "naive", "--outdir", str(outdir),
        )
        assert code == 0
        capsys.readouterr()
        code = run_cli(
            "compare",
            str(outdir / "naive_summary.json"),
            str(outdir / "mcmc_summary.json"),
            "--outdir", str(outdir),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "comparison.csv" in out
        lines = (outdir / "comparison.csv").read_text().splitlines()
        methods = {ln.split(",")[1] for ln in lines[1:]}
        assert methods == {"naive", "mcmc"}

    def test_mcmc_fit_prints_acceptance_and_min_ess(self, study_dir, tmp_path, capsys):
        _, files = study_dir
        code = run_cli(
            "fit", "--config", files["config"], "--data", files["data"],
            "--method", "mcmc", "--outdir", str(tmp_path),
            "--iterations", "2000", "--burn-in", "500", "--thin", "3", "--seed", "11",
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        # the same seeded chain, run again, gives the figures the fit prints
        _, chain = mcmc_marginals(
            read_model_config(files["config"]), Dataset.from_csv(files["data"]),
            ChainConfig(iterations=2000, burn_in=500, thin=3, seed=11),
        )
        ess = {n: effective_sample_size(chain.column(n)) for n in chain.names}
        worst = min(ess, key=ess.get)
        assert "mcmc: acceptance x 1.000, beta 1.000" in out
        assert "mcmc: min ESS %.1f of 500 draws (%s)" % (ess[worst], worst) in out
        warned = [ln for ln in out if ln.startswith("warning: mcmc min ESS")]
        assert len(warned) == int(ess[worst] < ESS_WARNING_FLOOR)

    def test_short_chain_skips_ess(self, study_dir, tmp_path, capsys):
        _, files = study_dir
        code = run_cli(
            "fit", "--config", files["config"], "--data", files["data"],
            "--method", "mcmc", "--outdir", str(tmp_path),
            "--iterations", "30", "--burn-in", "5", "--thin", "3", "--seed", "11",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mcmc: ESS not estimated (8 draws kept, need 10)" in out
        assert "warning" not in out

    def test_grid_fit_warns_on_truncated_or_skipped_grid(
        self, study_dir, tmp_path, monkeypatch, capsys
    ):
        _, files = study_dir

        def fit(outdir):
            code = run_cli(
                "fit", "--config", files["config"], "--data", files["data"],
                "--method", "naive", "--outdir", str(outdir),
            )
            assert code == 0
            return capsys.readouterr().out

        assert "warning" not in fit(tmp_path / "clean")
        real_explore = report.explore_grid

        def flagged(*args, **kwargs):
            return replace(real_explore(*args, **kwargs), truncated=True, skipped=3)

        monkeypatch.setattr(report, "explore_grid", flagged)
        out = fit(tmp_path / "flagged").splitlines()
        assert any(ln.startswith("warning: naive grid hit its point cap") for ln in out)
        assert "warning: naive grid skipped 3 points whose latent solve failed" in out
        # the warnings go to stdout only
        written = [p for p in (tmp_path / "clean").rglob("*") if p.is_file()]
        assert written
        for path in written:
            twin = tmp_path / "flagged" / path.relative_to(tmp_path / "clean")
            assert twin.read_bytes() == path.read_bytes()

    def test_grid_fit_prints_its_solve_counts(self, study_dir, tmp_path, capsys):
        _, files = study_dir
        code = run_cli(
            "fit", "--config", files["config"], "--data", files["data"],
            "--method", "laplace", "--outdir", str(tmp_path / "out"),
            "--dz", "1.0", "--diff-logdens", "4",
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        model = build_joint_model(read_model_config(files["config"]), Dataset.from_csv(files["data"]))
        grid = explore_grid(model, dz=1.0, diff_logdens=4.0)
        assert grid.solves >= grid.size > 1 and grid.newton_iters > 0
        line = "laplace: grid %d points, %d latent solves, %d Newton iterations" % (
            grid.size, grid.solves, grid.newton_iters)
        assert line in out

    def test_one_point_grid_writes_finite_marginals(self, tmp_path, capsys):
        # at dz 3 the ibex lattice keeps its origin alone, and every
        # hyperparameter marginal is then its one Gaussian kernel
        assert run_cli(
            "simulate", "--study", "ibex", "--n", "26", "--seed", "1", "--outdir", str(tmp_path)
        ) == 0
        outdir = tmp_path / "out"
        assert run_cli(
            "fit", "--config", str(tmp_path / "ibex_like_model.ini"),
            "--data", str(tmp_path / "ibex_like.csv"), "--method", "laplace",
            "--outdir", str(outdir), "--dz", "3", "--diff-logdens", "0.5",
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert any(ln.startswith("laplace: grid 1 points,") for ln in out)

        def no_constant(name):
            raise AssertionError("summary holds %s" % name)

        with open(outdir / "laplace_summary.json") as fh:
            payload = json.load(fh, parse_constant=no_constant)
        assert {"beta_x", "tau_u", "tau_x", "tau_eps"} <= set(payload["marginal_files"])
        for rec in payload["parameters"]:
            values, density = report.read_marginal_csv(
                outdir / payload["marginal_files"][rec["parameter"]]
            )
            again = report.summarize_grid(values, density)
            assert rec["sd"] > 0.0
            for stat in ("mean", "sd", "q025", "q50", "q975"):
                assert getattr(again, stat) == rec[stat], (rec["parameter"], stat)

    def test_compare_rejects_duplicates_and_junk(self, study_dir, tmp_path, capsys):
        junk = tmp_path / "junk.json"
        junk.write_text('{"something": "else"}')
        assert run_cli("compare", str(junk)) == 1
        good = tmp_path / "a.json"
        good.write_text(json.dumps({
            "method": "naive",
            "parameters": [{"parameter": "beta_x", "method": "naive", "mean": 0.0,
                            "sd": 1.0, "q025": -2.0, "q50": 0.0, "q975": 2.0}],
            "marginal_files": {},
        }))
        assert run_cli("compare", str(good), str(good)) == 1
        assert "claim method" in capsys.readouterr().err


class TestDispatcher:
    def test_no_command_prints_help(self, capsys):
        assert run_cli() == 1
        assert "fit" in capsys.readouterr().out

    def test_numeric_failures_exit_two(self, monkeypatch, capsys):
        def boom(cfg, log=print):
            raise NumericError("synthetic divergence")

        monkeypatch.setattr(cli, "run_fit", boom)
        code = run_cli(
            "fit", "--config", "c.ini", "--data", "d.csv",
            "--method", "naive", "--outdir", "o",
        )
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err
