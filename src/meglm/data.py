"""Dataset loading and model configuration parsing.

Datasets are plain CSV files with a header row; every cell is either a
finite number or the literal token NA marking an absent value (stored as
NaN). Cells such as inf, nan or 1e999 are refused, not read as absent.
Model configurations are INI files with a [model] section naming the
family, error kind and column bindings, plus one [prior.<name>] section
per parameter block.
"""
from __future__ import annotations

import configparser
import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError, SpecError
from .priors import FixedValue, GammaPrior, GaussianPrior, Prior
from .model import ErrorModel, ExposureModel, ModelSpec, ObservationModel

__all__ = ["Dataset", "parse_model_config", "read_model_config"]

NA_TOKEN = "NA"


@dataclass
class Dataset:
    """Column-oriented numeric table; absent values are NaN."""

    names: tuple
    columns: dict

    @property
    def n_rows(self) -> int:
        if not self.names:
            return 0
        return int(self.columns[self.names[0]].size)

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise DataError(
                "no column named %r (dataset has: %s)" % (name, ", ".join(self.names))
            )
        return self.columns[name]

    @classmethod
    def from_arrays(cls, **columns) -> "Dataset":
        """Dataset of the given columns; NaN marks an absent value, and an
        infinity is refused as `from_csv` refuses it."""
        arrays = {name: np.asarray(vals, dtype=float).ravel() for name, vals in columns.items()}
        sizes = {name: a.size for name, a in arrays.items()}
        if len(set(sizes.values())) > 1:
            raise DataError("columns differ in length: %r" % (sizes,))
        for name, a in arrays.items():
            if np.any(np.isinf(a)):
                raise DataError(
                    "column %r holds an infinite value (NaN marks an absent value)" % (name,)
                )
        return cls(names=tuple(columns), columns=arrays)

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        try:
            # utf-8-sig drops the byte-order mark that some spreadsheets write
            with open(path, "r", newline="", encoding="utf-8-sig") as fh:
                return cls._parse(fh, str(path))
        except OSError as exc:
            raise DataError("cannot read dataset %s: %s" % (path, exc))

    @classmethod
    def _parse(cls, fh, label: str) -> "Dataset":
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("%s: empty file, expected a header row" % label)
        names = tuple(h.strip() for h in header)
        if len(set(names)) != len(names):
            raise DataError("%s: duplicate column names in header" % label)
        if any(not n for n in names):
            raise DataError("%s: blank column name in header" % label)
        cols = [[] for _ in names]
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(names):
                raise DataError(
                    "%s line %d: expected %d fields, found %d" % (label, lineno, len(names), len(row))
                )
            for j, cell in enumerate(row):
                cell = cell.strip()
                if cell == NA_TOKEN:
                    cols[j].append(math.nan)
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise DataError(
                        "%s line %d, column %r: %r is not a finite number (%s marks an absent value)"
                        % (label, lineno, names[j], cell, NA_TOKEN)
                    )
                cols[j].append(value)
        columns = {name: np.asarray(vals, dtype=float) for name, vals in zip(names, cols)}
        return cls(names=names, columns=columns)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.names)
            mat = np.column_stack([self.columns[n] for n in self.names])
            for row in mat:
                writer.writerow([NA_TOKEN if math.isnan(v) else ("%.17g" % v) for v in row])


# ---------------------------------------------------------------------------
# model configuration


def _get(section, key: str, cast, default=None, required: bool = False):
    if key not in section:
        if required:
            raise SpecError("[%s] is missing required key %r" % (section.name, key))
        return default
    raw = section[key].strip()
    try:
        return cast(raw)
    except ValueError:
        raise SpecError("[%s] key %r: cannot parse %r" % (section.name, key, raw))


def _as_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _as_list(raw: str) -> tuple:
    items = tuple(part.strip() for part in raw.split(",") if part.strip())
    return items


def _parse_prior(cfg, name: str, allowed: tuple, required: bool = False,
                 default: Optional[Prior] = None) -> Optional[Prior]:
    section_name = "prior.%s" % name
    if not cfg.has_section(section_name):
        if required:
            raise SpecError("missing required section [%s]" % section_name)
        return default
    section = cfg[section_name]
    kind = _get(section, "kind", str, required=True).lower()
    if kind not in allowed:
        raise SpecError(
            "[%s] kind %r not allowed here (expected one of: %s)"
            % (section_name, kind, ", ".join(allowed))
        )
    known = {"kind", "mean", "precision", "shape", "rate", "value"}
    for key in section:
        if key not in known:
            raise SpecError("[%s] has unknown key %r" % (section_name, key))
    if kind == "gaussian":
        mean = _get(section, "mean", float, default=0.0)
        prec = _get(section, "precision", float, required=True)
        return GaussianPrior(mean=mean, precision=prec)
    if kind == "gamma":
        shape = _get(section, "shape", float, required=True)
        rate = _get(section, "rate", float, required=True)
        return GammaPrior(shape=shape, rate=rate)
    value = _get(section, "value", float, required=True)
    return FixedValue(value=value)


def parse_model_config(text: str, label: str = "<string>") -> ModelSpec:
    """Parse an INI model configuration into a validated ModelSpec."""
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        cfg.read_string(text, source=label)
    except configparser.Error as exc:
        raise SpecError("cannot parse model configuration %s: %s" % (label, exc))
    if not cfg.has_section("model"):
        raise SpecError("%s: missing [model] section" % label)
    model = cfg["model"]
    known = {
        "family", "error", "response", "proxy", "covariates",
        "weights", "group", "trials", "random_effect", "center",
    }
    for key in model:
        if key not in known:
            raise SpecError("[model] has unknown key %r" % key)

    family = _get(model, "family", str, required=True).lower()
    error_kind = _get(model, "error", str, default="none").lower()
    if error_kind not in ("classical", "berkson", "none"):
        raise SpecError("[model] error must be classical, berkson or none, got %r" % error_kind)
    response = _get(model, "response", str, default="y")
    proxies = _get(model, "proxy", _as_list, default=())
    covariates = _get(model, "covariates", _as_list, default=())
    weights = _get(model, "weights", str)
    group = _get(model, "group", str)
    trials = _get(model, "trials", str)
    random_effect = _get(model, "random_effect", str, default="none").lower()
    if random_effect not in ("iid", "none"):
        raise SpecError("[model] random_effect must be iid or none, got %r" % random_effect)
    center = _get(model, "center", _as_bool, default=True)

    gamma_kinds = ("gamma", "fixed")
    gauss_kinds = ("gaussian", "fixed")

    residual = None
    if family == "gaussian":
        residual = _parse_prior(cfg, "tau_eps", gamma_kinds, required=True)
    elif cfg.has_section("prior.tau_eps"):
        raise SpecError("[prior.tau_eps] only applies to the gaussian family")
    re_prior = None
    if random_effect == "iid":
        re_prior = _parse_prior(cfg, "tau_gamma", gamma_kinds, required=True)
    elif cfg.has_section("prior.tau_gamma"):
        raise SpecError("[prior.tau_gamma] requires random_effect = iid")
    observation = ObservationModel(family=family, residual_precision=residual, random_effect=re_prior)

    beta_default = _parse_prior(cfg, "beta", gauss_kinds)
    beta0 = _parse_prior(cfg, "beta_0", gauss_kinds, default=beta_default)
    if beta0 is None:
        raise SpecError("no prior for beta_0: add [prior.beta_0] or a [prior.beta] default")
    beta_z = []
    for col in covariates:
        pr = _parse_prior(cfg, "beta_%s" % col, gauss_kinds, default=beta_default)
        if pr is None:
            raise SpecError(
                "no prior for beta_%s: add [prior.beta_%s] or a [prior.beta] default" % (col, col)
            )
        beta_z.append(pr)

    error = None
    exposure = None
    beta_x: Prior = GaussianPrior(mean=0.0, precision=0.0)
    if error_kind != "none":
        tau_u = _parse_prior(cfg, "tau_u", gamma_kinds, required=True)
        error = ErrorModel(kind=error_kind, tau_u=tau_u)
        beta_x = _parse_prior(cfg, "beta_x", gauss_kinds, required=True)
        if error_kind == "classical":
            alpha_default = _parse_prior(cfg, "alpha", gauss_kinds)
            alpha0 = _parse_prior(cfg, "alpha_0", gauss_kinds, default=alpha_default)
            if alpha0 is None:
                raise SpecError(
                    "classical error needs an explicit alpha_0 prior: "
                    "add [prior.alpha_0] (kind = gaussian or fixed) or a [prior.alpha] default"
                )
            alpha_z = []
            for col in covariates:
                pr = _parse_prior(cfg, "alpha_%s" % col, gauss_kinds, default=alpha_default)
                if pr is None:
                    raise SpecError(
                        "no prior for alpha_%s: add [prior.alpha_%s] or a [prior.alpha] default"
                        % (col, col)
                    )
                alpha_z.append(pr)
            tau_x = _parse_prior(cfg, "tau_x", gamma_kinds, required=True)
            exposure = ExposureModel(alpha0=alpha0, alpha_z=tuple(alpha_z), tau_x=tau_x)
        elif cfg.has_section("prior.tau_x"):
            raise SpecError("[prior.tau_x] only applies to classical error models")
    else:
        if cfg.has_section("prior.tau_u"):
            raise SpecError("[prior.tau_u] requires a measurement error model")
        if cfg.has_section("prior.beta_x") and proxies:
            beta_x = _parse_prior(cfg, "beta_x", gauss_kinds)
        elif proxies:
            beta_x = beta_default if beta_default is not None else beta_x
            if beta_default is None:
                raise SpecError(
                    "no prior for beta_x: add [prior.beta_x] or a [prior.beta] default"
                )

    recognized = {
        "model", "prior.beta", "prior.beta_0", "prior.beta_x",
        "prior.alpha", "prior.alpha_0",
        "prior.tau_x", "prior.tau_u", "prior.tau_eps", "prior.tau_gamma",
    }
    for col in covariates:
        recognized.add("prior.beta_%s" % col)
        recognized.add("prior.alpha_%s" % col)
    for section in cfg.sections():
        if section not in recognized:
            raise SpecError("%s: unknown section [%s]" % (label, section))

    spec = ModelSpec(
        observation=observation,
        error=error,
        exposure=exposure,
        beta0=beta0,
        beta_x=beta_x,
        beta_z=tuple(beta_z),
        response=response,
        proxies=proxies,
        covariates=covariates,
        weights=weights,
        group=group,
        trials=trials,
        center=center,
    )
    spec.validate()
    return spec


def read_model_config(path) -> ModelSpec:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError("cannot read model configuration %s: %s" % (path, exc))
    return parse_model_config(text, label=str(path))
