"""Synthetic study generators with known ground truth.

Three designs mirror the structures that motivate the package: a Gaussian
response with a heteroscedastic classical proxy (ibex-like), a logistic
response with two replicate proxies and a binary error-free covariate
(framingham-like), and a Poisson count with a nested Berkson design and
i.i.d. overdispersion effects (seedling-like).

Each generator returns the dataset, a ground-truth record, and a ready-to-fit
model configuration whose priors are elicited around the recipe's true
values. Generation is deterministic given the recipe seed.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .data import Dataset
from .errors import SpecError

__all__ = [
    "IBEX_LIKE",
    "FRAMINGHAM_LIKE",
    "SEEDLING_LIKE",
    "STUDY_NAMES",
    "IbexRecipe",
    "FraminghamRecipe",
    "SeedlingRecipe",
    "GroundTruth",
    "SimulatedStudy",
    "make_recipe",
    "simulate_study",
    "write_study",
]

IBEX_LIKE = "ibex_like"
FRAMINGHAM_LIKE = "framingham_like"
SEEDLING_LIKE = "seedling_like"
STUDY_NAMES = (IBEX_LIKE, FRAMINGHAM_LIKE, SEEDLING_LIKE)

# Centered log target-light values for the three light conditions of the
# seedling design (dark, middle, light).
SEEDLING_LIGHT_TARGETS = (1.22, 0.10, -1.32)

# Iterations for the proxy/weight self-consistency solve in the ibex design.
_WEIGHT_FIXED_POINT_ITER = 80


def _require_positive(name: str, value: float) -> None:
    if not (np.isfinite(value) and value > 0.0):
        raise SpecError("%s must be a positive finite number, got %r" % (name, value))


def _require_seed(seed) -> None:
    # numpy's generators take any nonnegative integer; say so before they do
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise SpecError("recipe seed must be a nonnegative integer, got %r" % (seed,))


@dataclass(frozen=True)
class IbexRecipe:
    """Gaussian response, classical proxy with per-unit error precisions.

    The proxy precision weights follow d_i = 1/(c0 + c1 * w_i): larger proxy
    values are measured less precisely. The emitted column is named
    error.prec and enters the fit as known weights on tau_u.
    """

    n: int = 26
    beta_0: float = 0.3
    beta_x: float = -1.5
    beta_z: tuple = (0.4, -0.3, 0.25, -0.2)
    alpha_0: float = 0.2
    tau_x: float = 59.0
    tau_u: float = 400.0
    tau_eps: float = 400.0
    weight_c0: float = 1.0
    weight_c1: float = 2.0
    seed: int = 0

    def __post_init__(self):
        _require_seed(self.seed)
        if self.n < 3:
            raise SpecError("ibex-like design needs n >= 3, got %d" % self.n)
        for name in ("tau_x", "tau_u", "tau_eps", "weight_c0"):
            _require_positive(name, getattr(self, name))

    @property
    def study(self) -> str:
        return IBEX_LIKE


@dataclass(frozen=True)
class FraminghamRecipe:
    """Bernoulli-logit response, replicate proxies, binary covariate.

    The latent exposure is Gaussian given the binary covariate and each unit
    carries `replicates` independent homoscedastic proxy measurements.
    """

    n: int = 641
    replicates: int = 2
    beta_0: float = -2.0
    beta_x: float = 0.6
    beta_z: float = 0.4
    alpha_0: float = 0.0
    alpha_z: float = 0.0
    tau_x: float = 10.0
    tau_u: float = 100.0
    smoking_rate: float = 0.4
    seed: int = 0

    def __post_init__(self):
        _require_seed(self.seed)
        if self.n < 3:
            raise SpecError("framingham-like design needs n >= 3, got %d" % self.n)
        if self.replicates < 1:
            raise SpecError("replicates must be >= 1, got %d" % self.replicates)
        for name in ("tau_x", "tau_u"):
            _require_positive(name, getattr(self, name))
        if not 0.0 < self.smoking_rate < 1.0:
            raise SpecError("smoking_rate must lie in (0, 1), got %r" % (self.smoking_rate,))

    @property
    def study(self) -> str:
        return FRAMINGHAM_LIKE


@dataclass(frozen=True)
class SeedlingRecipe:
    """Poisson counts under Berkson error in a nested light/house design.

    Each light condition has one centered target value w shared by its
    shadehouses; every shadehouse realizes its own true light level
    x = w + u. Each seedling within a house receives a distinct centered
    defoliation level z and an i.i.d. Gaussian overdispersion effect.
    """

    light_conditions: int = 3
    shadehouses: int = 5
    defoliation_levels: int = 4
    beta_0: float = 2.0
    beta_x: float = 0.4
    beta_z: float = -1.5
    tau_u: float = 10.0
    tau_gamma: float = 25.0
    seed: int = 0

    def __post_init__(self):
        _require_seed(self.seed)
        for name in ("light_conditions", "shadehouses", "defoliation_levels"):
            if getattr(self, name) < 1:
                raise SpecError("%s must be >= 1, got %d" % (name, getattr(self, name)))
        if self.light_conditions < 2:
            raise SpecError(
                "seedling-like design needs at least 2 light conditions, got %d"
                % self.light_conditions
            )
        for name in ("tau_u", "tau_gamma"):
            _require_positive(name, getattr(self, name))

    @property
    def n(self) -> int:
        return self.light_conditions * self.shadehouses * self.defoliation_levels

    @property
    def study(self) -> str:
        return SEEDLING_LIKE


@dataclass(frozen=True)
class GroundTruth:
    """True parameter values and latent draws behind a simulated dataset."""

    study: str
    seed: int
    parameters: dict
    x: tuple
    gamma: Optional[tuple] = None

    def to_json(self) -> str:
        payload = {
            "study": self.study,
            "seed": self.seed,
            "parameters": self.parameters,
            "x": list(self.x),
            "gamma": None if self.gamma is None else list(self.gamma),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class SimulatedStudy:
    recipe: object
    dataset: Dataset
    truth: GroundTruth
    model_config: str


def make_recipe(study: str, **overrides):
    """Build a recipe for a study named by one of the STUDY_NAMES tokens.

    Short names without the _like suffix are accepted as aliases.
    """
    classes = {
        IBEX_LIKE: IbexRecipe,
        FRAMINGHAM_LIKE: FraminghamRecipe,
        SEEDLING_LIKE: SeedlingRecipe,
    }
    if study in ("ibex", "framingham", "seedling"):
        study = study + "_like"
    if study not in classes:
        raise SpecError(
            "unknown study %r (expected one of: %s)" % (study, ", ".join(STUDY_NAMES))
        )
    cls = classes[study]
    allowed = {f.name for f in fields(cls)}
    unknown = set(overrides) - allowed
    if unknown:
        raise SpecError(
            "unknown recipe fields for %s: %s" % (study, ", ".join(sorted(unknown)))
        )
    if "beta_z" in overrides and study == IBEX_LIKE:
        overrides["beta_z"] = tuple(overrides["beta_z"])
    return cls(**overrides)


def _prior_section(name: str, kind: str, **params) -> str:
    lines = ["[prior.%s]" % name, "kind = %s" % kind]
    lines.extend("%s = %.17g" % (key, value) for key, value in params.items())
    return "\n".join(lines) + "\n"


def _gamma_around(name: str, mean: float, shape: float = 2.0) -> str:
    return _prior_section(name, "gamma", shape=shape, rate=shape / mean)


def _ibex_config(recipe: IbexRecipe) -> str:
    covs = ", ".join("z%d" % (j + 1) for j in range(len(recipe.beta_z)))
    parts = [
        "[model]\n"
        "family = gaussian\n"
        "error = classical\n"
        "response = y\n"
        "proxy = w\n"
        "weights = error.prec\n"
        "covariates = %s\n" % covs,
        _prior_section("beta", "gaussian", mean=0.0, precision=1.0e-4),
        _prior_section("beta_x", "gaussian", mean=0.0, precision=1.0e-4),
        # The exposure is independent of the error-free covariates, so all
        # alpha_z coefficients are pinned at zero and only alpha_0 is free.
        _prior_section("alpha", "fixed", value=0.0),
        _prior_section("alpha_0", "gaussian", mean=0.0, precision=1.0),
        _gamma_around("tau_x", recipe.tau_x),
        _gamma_around("tau_u", recipe.tau_u),
        _gamma_around("tau_eps", recipe.tau_eps),
    ]
    return "\n".join(parts)


def _framingham_config(recipe: FraminghamRecipe) -> str:
    proxies = ", ".join("w%d" % (j + 1) for j in range(recipe.replicates))
    parts = [
        "[model]\n"
        "family = binomial\n"
        "error = classical\n"
        "response = y\n"
        "proxy = %s\n"
        "covariates = z\n" % proxies,
        _prior_section("beta", "gaussian", mean=0.0, precision=1.0e-2),
        _prior_section("beta_x", "gaussian", mean=0.0, precision=1.0e-2),
        _prior_section("alpha", "gaussian", mean=0.0, precision=1.0),
        _prior_section("tau_x", "gamma", shape=10.0, rate=10.0 / recipe.tau_x),
        _prior_section("tau_u", "gamma", shape=100.0, rate=100.0 / recipe.tau_u),
    ]
    return "\n".join(parts)


def _seedling_config(recipe: SeedlingRecipe) -> str:
    parts = [
        "[model]\n"
        "family = poisson\n"
        "error = berkson\n"
        "response = y\n"
        "proxy = w\n"
        "group = house\n"
        "covariates = z\n"
        "random_effect = iid\n",
        _prior_section("beta", "gaussian", mean=0.0, precision=1.0e-2),
        _prior_section("beta_x", "gaussian", mean=0.0, precision=1.0e-2),
        _prior_section("tau_u", "gamma", shape=1.0, rate=1.0 / recipe.tau_u),
        _prior_section("tau_gamma", "gamma", shape=1.0, rate=1.0 / recipe.tau_gamma),
    ]
    return "\n".join(parts)


def _simulate_ibex(recipe: IbexRecipe) -> SimulatedStudy:
    rng = np.random.default_rng(recipe.seed)
    n = recipe.n
    k = len(recipe.beta_z)
    z = rng.standard_normal((n, k))
    x = recipe.alpha_0 + rng.standard_normal(n) / np.sqrt(recipe.tau_x)
    shock = rng.standard_normal(n)

    # The weight law ties each unit's error precision to its own proxy value,
    # so the proxy draw and the weight must agree at a fixed point: iterate
    # w = x + shock / sqrt(tau_u * d(w)) with d(w) = 1/(c0 + c1 w) until the
    # pair (w, d) is self-consistent. The map is a strong contraction at the
    # default constants, and the floor keeps d positive for extreme shocks.
    def weight_of(w_values: np.ndarray) -> np.ndarray:
        return 1.0 / np.maximum(recipe.weight_c0 + recipe.weight_c1 * w_values, 0.05)

    w = x.copy()
    for _ in range(_WEIGHT_FIXED_POINT_ITER):
        w_next = x + shock / np.sqrt(recipe.tau_u * weight_of(w))
        if np.max(np.abs(w_next - w)) < 1.0e-14:
            w = w_next
            break
        w = w_next
    d = weight_of(w)

    eta = recipe.beta_0 + recipe.beta_x * x + z @ np.asarray(recipe.beta_z)
    y = eta + rng.standard_normal(n) / np.sqrt(recipe.tau_eps)

    columns = {"y": y, "w": w, "error.prec": d}
    for j in range(k):
        columns["z%d" % (j + 1)] = z[:, j]
    dataset = Dataset.from_arrays(**columns)
    parameters = {
        "beta_0": recipe.beta_0,
        "beta_x": recipe.beta_x,
        "alpha_0": recipe.alpha_0,
        "tau_x": recipe.tau_x,
        "tau_u": recipe.tau_u,
        "tau_eps": recipe.tau_eps,
    }
    for j, val in enumerate(recipe.beta_z):
        parameters["beta_z%d" % (j + 1)] = val
    truth = GroundTruth(
        study=IBEX_LIKE, seed=recipe.seed, parameters=parameters, x=tuple(x.tolist())
    )
    return SimulatedStudy(recipe, dataset, truth, _ibex_config(recipe))


def _simulate_framingham(recipe: FraminghamRecipe) -> SimulatedStudy:
    rng = np.random.default_rng(recipe.seed)
    n = recipe.n
    z = (rng.uniform(size=n) < recipe.smoking_rate).astype(float)
    x = recipe.alpha_0 + recipe.alpha_z * z + rng.standard_normal(n) / np.sqrt(recipe.tau_x)
    proxies = [
        x + rng.standard_normal(n) / np.sqrt(recipe.tau_u) for _ in range(recipe.replicates)
    ]
    # a numpy logistic, so simulating loads no scipy submodule
    prob = 1.0 / (1.0 + np.exp(-(recipe.beta_0 + recipe.beta_x * x + recipe.beta_z * z)))
    y = (rng.uniform(size=n) < prob).astype(float)

    columns = {"y": y}
    for j, wj in enumerate(proxies):
        columns["w%d" % (j + 1)] = wj
    columns["z"] = z
    dataset = Dataset.from_arrays(**columns)
    parameters = {
        "beta_0": recipe.beta_0,
        "beta_x": recipe.beta_x,
        "beta_z": recipe.beta_z,
        "alpha_0": recipe.alpha_0,
        "alpha_z": recipe.alpha_z,
        "tau_x": recipe.tau_x,
        "tau_u": recipe.tau_u,
    }
    truth = GroundTruth(
        study=FRAMINGHAM_LIKE, seed=recipe.seed, parameters=parameters, x=tuple(x.tolist())
    )
    return SimulatedStudy(recipe, dataset, truth, _framingham_config(recipe))


def _light_targets(levels: int) -> np.ndarray:
    if levels == len(SEEDLING_LIGHT_TARGETS):
        return np.asarray(SEEDLING_LIGHT_TARGETS, dtype=float)
    raw = np.linspace(1.3, -1.3, levels)
    return raw - raw.mean()


def _simulate_seedling(recipe: SeedlingRecipe) -> SimulatedStudy:
    rng = np.random.default_rng(recipe.seed)
    n_light = recipe.light_conditions
    n_house = recipe.shadehouses
    n_leaf = recipe.defoliation_levels
    targets = _light_targets(n_light)

    # Defoliation fractions are equally spaced in [0, 0.75] for four levels
    # (0%, 25%, 50%, 75%) and scale accordingly for other counts; they are
    # centered before use.
    frac = 0.25 * np.arange(n_leaf)
    z_levels = frac - frac.mean()

    houses = n_light * n_house
    x_house = np.repeat(targets, n_house) + rng.standard_normal(houses) / np.sqrt(recipe.tau_u)

    w = np.repeat(np.repeat(targets, n_house), n_leaf)
    x_rows = np.repeat(x_house, n_leaf)
    house_idx = np.repeat(np.arange(1, houses + 1), n_leaf)
    z = np.tile(z_levels, houses)
    gamma = rng.standard_normal(houses * n_leaf) / np.sqrt(recipe.tau_gamma)
    eta = recipe.beta_0 + recipe.beta_x * x_rows + recipe.beta_z * z + gamma
    y = rng.poisson(np.exp(eta)).astype(float)

    dataset = Dataset.from_arrays(
        y=y, w=w, z=z, house=house_idx.astype(float)
    )
    parameters = {
        "beta_0": recipe.beta_0,
        "beta_x": recipe.beta_x,
        "beta_z": recipe.beta_z,
        "tau_u": recipe.tau_u,
        "tau_gamma": recipe.tau_gamma,
    }
    truth = GroundTruth(
        study=SEEDLING_LIKE,
        seed=recipe.seed,
        parameters=parameters,
        x=tuple(x_house.tolist()),
        gamma=tuple(gamma.tolist()),
    )
    return SimulatedStudy(recipe, dataset, truth, _seedling_config(recipe))


def simulate_study(recipe) -> SimulatedStudy:
    """Simulate a dataset plus ground truth for a study recipe."""
    if isinstance(recipe, IbexRecipe):
        return _simulate_ibex(recipe)
    if isinstance(recipe, FraminghamRecipe):
        return _simulate_framingham(recipe)
    if isinstance(recipe, SeedlingRecipe):
        return _simulate_seedling(recipe)
    raise SpecError("not a study recipe: %r" % (recipe,))


def write_study(sim: SimulatedStudy, directory, stem: Optional[str] = None) -> dict:
    """Write dataset CSV, truth JSON and model INI; returns the paths."""
    stem = stem or sim.truth.study
    os.makedirs(directory, exist_ok=True)
    paths = {
        "data": os.path.join(directory, "%s.csv" % stem),
        "truth": os.path.join(directory, "%s_truth.json" % stem),
        "config": os.path.join(directory, "%s_model.ini" % stem),
    }
    sim.dataset.to_csv(paths["data"])
    with open(paths["truth"], "w") as fh:
        fh.write(sim.truth.to_json())
    with open(paths["config"], "w") as fh:
        fh.write(sim.model_config)
    return paths
