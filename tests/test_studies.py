"""Synthetic study generators: structure, determinism, and recovery."""

import numpy as np
import pytest

from meglm.closedforms import naive_glm_fit
from meglm.data import parse_model_config
from meglm.errors import SpecError
from meglm.mcmc import ChainConfig, run_chain
from meglm.model import build_joint_model
from meglm.studies import (
    FRAMINGHAM_LIKE,
    IBEX_LIKE,
    SEEDLING_LIKE,
    FraminghamRecipe,
    IbexRecipe,
    SeedlingRecipe,
    make_recipe,
    simulate_study,
    write_study,
)


def columns_equal(a, b) -> bool:
    return a.names == b.names and all(
        np.array_equal(a.columns[name], b.columns[name]) for name in a.names
    )


class TestDeterminism:
    @pytest.mark.parametrize(
        "recipe",
        [IbexRecipe(seed=7), FraminghamRecipe(n=200, seed=7), SeedlingRecipe(seed=7)],
        ids=["ibex", "framingham", "seedling"],
    )
    def test_same_seed_bitwise_identical(self, recipe):
        first = simulate_study(recipe)
        second = simulate_study(recipe)
        assert columns_equal(first.dataset, second.dataset)
        assert first.truth.to_json() == second.truth.to_json()
        assert first.model_config == second.model_config

    def test_different_seed_differs(self):
        a = simulate_study(IbexRecipe(seed=1))
        b = simulate_study(IbexRecipe(seed=2))
        assert not np.array_equal(a.dataset.column("y"), b.dataset.column("y"))

    def test_write_study_roundtrip(self, tmp_path):
        sim = simulate_study(SeedlingRecipe(seed=3))
        paths = write_study(sim, tmp_path)
        from meglm.data import Dataset, read_model_config

        reread = Dataset.from_csv(paths["data"])
        assert columns_equal(reread, sim.dataset)
        spec = read_model_config(paths["config"])
        assert spec.observation.family == "poisson"
        import json

        with open(paths["truth"]) as fh:
            truth = json.load(fh)
        assert truth["study"] == SEEDLING_LIKE
        assert len(truth["x"]) == 15


class TestIbexLike:
    def test_weight_law_holds_exactly(self):
        recipe = IbexRecipe(n=200, seed=11)
        sim = simulate_study(recipe)
        w = sim.dataset.column("w")
        d = sim.dataset.column("error.prec")
        law = 1.0 / np.maximum(recipe.weight_c0 + recipe.weight_c1 * w, 0.05)
        assert np.max(np.abs(d - law)) < 1.0e-12
        order = np.argsort(w)
        assert np.all(np.diff(d[order]) <= 0.0)

    def test_proxy_noise_matches_declared_precision(self):
        recipe = IbexRecipe(n=50_000, seed=13)
        sim = simulate_study(recipe)
        x = np.asarray(sim.truth.x)
        w = sim.dataset.column("w")
        d = sim.dataset.column("error.prec")
        standardized = (w - x) * np.sqrt(recipe.tau_u * d)
        assert abs(np.mean(standardized)) < 3.0 / np.sqrt(standardized.size)
        assert abs(np.std(standardized, ddof=1) - 1.0) < 0.02

    def test_error_free_limit(self):
        sim = simulate_study(IbexRecipe(n=200, tau_u=1.0e12, seed=5))
        dev = np.abs(sim.dataset.column("w") - np.asarray(sim.truth.x))
        assert np.max(dev) < 1.0e-4

    def test_config_builds_joint_model(self):
        sim = simulate_study(IbexRecipe(seed=1))
        spec = parse_model_config(sim.model_config)
        model = build_joint_model(spec, sim.dataset)
        assert model.theta.names == ("beta_x", "tau_u", "tau_x", "tau_eps")
        assert model.n_x == sim.recipe.n
        assert set(sim.truth.parameters) <= set(
            model.latent_names() + model.theta.names
        ) | {"alpha_0"}

    def test_naive_slope_is_attenuated(self):
        recipe = IbexRecipe(n=2000, seed=23)
        sim = simulate_study(recipe)
        z = np.column_stack(
            [sim.dataset.column("z%d" % (j + 1)) for j in range(len(recipe.beta_z))]
        )
        fit = naive_glm_fit(
            sim.dataset.column("y"), sim.dataset.column("w"), z, family="gaussian"
        )
        naive_slope = fit.coefficient("beta_x")
        assert abs(naive_slope) < abs(recipe.beta_x)
        assert naive_slope * recipe.beta_x > 0.0

    def test_invalid_sizes_and_parameters(self):
        with pytest.raises(SpecError):
            IbexRecipe(n=2)
        with pytest.raises(SpecError):
            IbexRecipe(tau_u=0.0)


class TestFraminghamLike:
    def test_variance_identity(self):
        recipe = FraminghamRecipe(n=100_000, seed=29)
        sim = simulate_study(recipe)
        target = 1.0 / recipe.tau_x + 1.0 / recipe.tau_u
        got = np.var(sim.dataset.column("w1"), ddof=1)
        assert abs(got - target) / target < 0.01

    def test_replicates_share_the_latent_value(self):
        recipe = FraminghamRecipe(n=20_000, seed=31)
        sim = simulate_study(recipe)
        w1 = sim.dataset.column("w1")
        w2 = sim.dataset.column("w2")
        x = np.asarray(sim.truth.x)
        # Replicate deviations from the shared x are independent: their
        # covariance vanishes while each has variance 1/tau_u.
        dev1, dev2 = w1 - x, w2 - x
        assert abs(np.mean(dev1 * dev2)) < 3.0 / (recipe.tau_u * np.sqrt(x.size))
        assert np.var(dev1, ddof=1) == pytest.approx(1.0 / recipe.tau_u, rel=0.05)

    def test_binary_pieces(self):
        recipe = FraminghamRecipe(n=5000, seed=37, alpha_z=0.5)
        sim = simulate_study(recipe)
        y = sim.dataset.column("y")
        z = sim.dataset.column("z")
        assert set(np.unique(y)) <= {0.0, 1.0}
        assert set(np.unique(z)) <= {0.0, 1.0}
        assert abs(np.mean(z) - recipe.smoking_rate) < 0.03
        x = np.asarray(sim.truth.x)
        gap = np.mean(x[z == 1.0]) - np.mean(x[z == 0.0])
        assert gap == pytest.approx(recipe.alpha_z, abs=0.05)

    def test_error_free_limit(self):
        sim = simulate_study(FraminghamRecipe(n=500, tau_u=1.0e12, seed=3))
        x = np.asarray(sim.truth.x)
        for col in ("w1", "w2"):
            assert np.max(np.abs(sim.dataset.column(col) - x)) < 1.0e-4

    def test_config_builds_joint_model(self):
        sim = simulate_study(FraminghamRecipe(n=50, seed=2))
        spec = parse_model_config(sim.model_config)
        assert spec.proxies == ("w1", "w2")
        model = build_joint_model(spec, sim.dataset)
        assert model.theta.names == ("beta_x", "tau_u", "tau_x")
        assert model.block_sizes[2] == 2 * 50

    def test_single_replicate(self):
        sim = simulate_study(FraminghamRecipe(n=40, replicates=1, seed=2))
        assert "w1" in sim.dataset.names
        assert "w2" not in sim.dataset.names
        spec = parse_model_config(sim.model_config)
        assert spec.proxies == ("w1",)


class TestSeedlingLike:
    def test_default_nesting_counts(self):
        sim = simulate_study(SeedlingRecipe(seed=0))
        assert sim.dataset.n_rows == 60
        assert np.unique(sim.dataset.column("w")).size == 3
        assert np.unique(np.asarray(sim.truth.x)).size == 15
        assert np.unique(sim.dataset.column("house")).size == 15
        assert len(sim.truth.gamma) == 60

    def test_proxy_constant_within_house_and_centered(self):
        sim = simulate_study(SeedlingRecipe(seed=4))
        w = sim.dataset.column("w")
        house = sim.dataset.column("house")
        for h in np.unique(house):
            assert np.unique(w[house == h]).size == 1
        house_w = [w[house == h][0] for h in np.unique(house)]
        assert abs(np.mean(house_w)) < 1.0e-12
        z = sim.dataset.column("z")
        assert abs(np.mean(z)) < 1.0e-12

    def test_overridden_nesting(self):
        recipe = SeedlingRecipe(light_conditions=4, shadehouses=3, defoliation_levels=2)
        sim = simulate_study(recipe)
        assert sim.dataset.n_rows == 24
        assert np.unique(sim.dataset.column("w")).size == 4
        assert np.unique(np.asarray(sim.truth.x)).size == 12

    def test_error_free_limit(self):
        sim = simulate_study(SeedlingRecipe(tau_u=1.0e12, seed=6))
        w = sim.dataset.column("w")
        house = sim.dataset.column("house").astype(int) - 1
        x_rows = np.asarray(sim.truth.x)[house]
        assert np.max(np.abs(x_rows - w)) < 1.0e-4

    def test_counts_are_poisson_like(self):
        sim = simulate_study(SeedlingRecipe(seed=8))
        y = sim.dataset.column("y")
        assert np.all(y >= 0.0)
        assert np.all(y == np.round(y))

    def test_config_builds_joint_model(self):
        sim = simulate_study(SeedlingRecipe(seed=9))
        spec = parse_model_config(sim.model_config)
        model = build_joint_model(spec, sim.dataset)
        assert model.theta.names == ("beta_x", "tau_u", "tau_gamma")
        assert model.n_x == 15
        assert model.layout.has("gamma")

    def test_invalid_sizes(self):
        with pytest.raises(SpecError):
            SeedlingRecipe(light_conditions=1)
        with pytest.raises(SpecError):
            SeedlingRecipe(shadehouses=0)


class TestMakeRecipe:
    def test_dispatch(self):
        assert isinstance(make_recipe(IBEX_LIKE, n=40), IbexRecipe)
        assert isinstance(make_recipe(FRAMINGHAM_LIKE), FraminghamRecipe)
        assert isinstance(make_recipe(SEEDLING_LIKE, shadehouses=2), SeedlingRecipe)

    def test_unknown_study(self):
        with pytest.raises(SpecError):
            make_recipe("trout_like")

    def test_unknown_field(self):
        with pytest.raises(SpecError):
            make_recipe(IBEX_LIKE, bananas=3)

    def test_not_a_recipe(self):
        with pytest.raises(SpecError):
            simulate_study(object())

    @pytest.mark.parametrize("study", [IBEX_LIKE, FRAMINGHAM_LIKE, SEEDLING_LIKE])
    @pytest.mark.parametrize("seed", [-1, 1.5, None])
    def test_seed_must_be_a_nonnegative_integer(self, study, seed):
        with pytest.raises(SpecError, match="recipe seed"):
            make_recipe(study, seed=seed)


def _proxy_center(spec, centering):
    joint = "+".join(spec.proxies)
    if joint in centering:
        return centering[joint]
    return centering.get(spec.proxies[0], 0.0)


def _original_scale_draws(out, spec, centering):
    """Map centered-scale chain columns back to original-scale draws.

    Centering shifts only the two intercepts: slopes and precisions are
    invariant, so they pass through unchanged. The map is applied per draw,
    which keeps the joint law exact.
    """
    m_w = _proxy_center(spec, centering)
    draws = {name: out.column(name) for name in out.names}
    if "beta_0" in draws:
        shifted = draws["beta_0"] - draws["beta_x"] * m_w
        for cov in spec.covariates:
            col = "beta_%s" % cov
            if col in draws:
                shifted = shifted - draws[col] * centering.get(cov, 0.0)
        draws["beta_0"] = shifted
    if "alpha_0" in draws:
        shifted = draws["alpha_0"] + m_w
        for cov in spec.covariates:
            col = "alpha_%s" % cov
            if col in draws:
                shifted = shifted - draws[col] * centering.get(cov, 0.0)
        draws["alpha_0"] = shifted
    return draws


@pytest.mark.slow
class TestCoverage:
    """Corrected-fit credible intervals should cover the generating values.

    For each study at a size where the posterior is informative, the 95%
    interval from the error-corrected sampler must cover each true parameter
    in at least 80 of 100 seeded replications (a loose smoke bound: nominal
    coverage is 95%, and interval endpoints carry Monte Carlo noise).
    """

    REPLICATIONS = 100
    MINIMUM_COVERED = 80

    @pytest.mark.parametrize(
        "study, overrides",
        [
            ("ibex_like", {"n": 500}),
            ("framingham_like", {"n": 2000}),
            ("seedling_like", {"shadehouses": 20}),
        ],
        ids=["ibex-500", "framingham-2000", "seedling-3x20x4"],
    )
    def test_corrected_interval_covers_truth(self, study, overrides):
        covered = {}
        for rep in range(self.REPLICATIONS):
            sim = simulate_study(make_recipe(study, seed=1000 + rep, **overrides))
            spec = parse_model_config(sim.model_config)
            model = build_joint_model(spec, sim.dataset)
            out = run_chain(
                model,
                ChainConfig(iterations=30000, burn_in=5000, thin=5, seed=rep + 1),
            )
            draws = _original_scale_draws(out, spec, model.centering)
            for name, true_value in sim.truth.parameters.items():
                lo, hi = np.quantile(draws[name], [0.025, 0.975])
                hit = bool(lo <= true_value <= hi)
                covered[name] = covered.get(name, 0) + int(hit)
        assert set(covered) == set(sim.truth.parameters)
        for name, count in sorted(covered.items()):
            assert count >= self.MINIMUM_COVERED, (
                "%s covered in only %d of %d replications"
                % (name, count, self.REPLICATIONS)
            )
