"""Flat `section.key = value` experiment configuration.

The format is deliberately line-oriented: every value serializes to one
line, floats with 17 significant digits, so parse(serialize(cfg)) == cfg
bit-exactly and configs diff cleanly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .optimizers import OptimizerConfig
from .problems import (NOISE_FAMILIES, NoiseSpec, Problem, make_logistic,
                       make_mlp, make_quadratic)

PROBLEM_KINDS = ("quadratic", "logistic", "mlp")


class ConfigError(ValueError):
    """Malformed configuration text or inconsistent field values."""


@dataclass(frozen=True)
class ProblemSpec:
    kind: str = "quadratic"
    dim: int = 10
    lipschitz: tuple = (1.0,)     # broadcast to dim if a single value
    x_opt: tuple = (0.0,)
    x0: tuple = (1.0,)
    noise_family: str = "gaussian"
    sigma: tuple = (1.0,)
    dataset_seed: int = 0
    n_points: int = 100           # logistic/mlp dataset size
    layer_widths: tuple = (2, 8, 1)


OptimizerSpec = OptimizerConfig  # the `optimizer.*` section


@dataclass(frozen=True)
class RunSpec:
    steps: int = 1000
    batch_size: int = 1
    seeds: tuple = (0,)
    record_stride: int = 0        # 0 = automatic (1 up to 1e4 steps)
    theorem_mode: bool = False    # force delta = 1/sqrt(L1 * K)
    decay_every: int = 0          # optional step-decay schedule, 0 = off
    decay_factor: float = 1.0


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec = field(default_factory=ProblemSpec)
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    run: RunSpec = field(default_factory=RunSpec)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _parse_scalar(text: str, kind: type):
    if kind is bool:
        if text not in ("true", "false"):
            raise ConfigError(f"expected true/false, got {text!r}")
        return text == "true"
    if kind is float:
        return float(text)
    if kind is int:
        return int(text)
    return text


def _parse_value(text: str, template):
    if isinstance(template, bool):
        return _parse_scalar(text, bool)
    if isinstance(template, tuple):
        elem = type(template[0]) if template else float
        if text == "":
            return ()
        return tuple(_parse_scalar(t.strip(), elem) for t in text.split(","))
    return _parse_scalar(text, type(template))


_SECTIONS = {"problem": ProblemSpec, "optimizer": OptimizerSpec, "run": RunSpec}


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = []
    for section in ("problem", "optimizer", "run"):
        spec = getattr(cfg, section)
        for f in fields(spec):
            lines.append(f"{section}.{f.name} = {_fmt(getattr(spec, f.name))}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> ExperimentConfig:
    values = {name: {} for name in _SECTIONS}
    defaults = {name: cls() for name, cls in _SECTIONS.items()}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if "." not in key:
            raise ConfigError(f"line {lineno}: key must be 'section.name'")
        section, name = key.split(".", 1)
        if section not in _SECTIONS:
            raise ConfigError(f"line {lineno}: unknown section {section!r}")
        template = getattr(defaults[section], name, None)
        if not hasattr(defaults[section], name):
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[section][name] = _parse_value(val, template)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    try:
        optimizer = OptimizerSpec(**values["optimizer"])
    except ValueError as exc:
        raise ConfigError(f"optimizer: {exc}") from exc
    cfg = ExperimentConfig(problem=ProblemSpec(**values["problem"]),
                           optimizer=optimizer, run=RunSpec(**values["run"]))
    validate_config(cfg)
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_config(cfg))


def validate_config(cfg: ExperimentConfig) -> None:
    p, r = cfg.problem, cfg.run
    if p.kind not in PROBLEM_KINDS:
        raise ConfigError(f"unknown problem kind {p.kind!r}")
    if p.noise_family not in NOISE_FAMILIES:
        raise ConfigError(f"unknown noise family {p.noise_family!r}")
    if p.dim < 1 or r.steps < 1 or r.batch_size < 1:
        raise ConfigError("dim, steps and batch_size must be >= 1")
    if not r.seeds:
        raise ConfigError("at least one seed is required")
    for name in ("lipschitz", "x_opt", "x0", "sigma"):
        vec = getattr(p, name)
        if len(vec) not in (1, p.dim) and p.kind == "quadratic":
            raise ConfigError(f"problem.{name} must have 1 or dim entries")


def _broadcast(values: tuple, dim: int) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 1:
        return np.full(dim, arr[0])
    if arr.size != dim:
        raise ConfigError(f"expected 1 or {dim} entries, got {arr.size}")
    return arr


def build_problem(cfg: ExperimentConfig) -> Problem:
    p = cfg.problem
    if p.kind == "quadratic":
        noise = NoiseSpec(p.noise_family, _broadcast(p.sigma, p.dim))
        return make_quadratic(_broadcast(p.lipschitz, p.dim),
                              _broadcast(p.x_opt, p.dim), noise)
    if p.kind == "logistic":
        noise = NoiseSpec(p.noise_family, _broadcast(p.sigma, p.dim))
        return make_logistic(p.dataset_seed, p.dim, p.n_points, noise)
    # mlp: the parameter count derives from the layer widths
    from .problems import _layer_shapes
    widths = tuple(int(w) for w in p.layer_widths)
    dim = sum(int(np.prod(s)) for s in _layer_shapes(list(widths)))
    noise = NoiseSpec(p.noise_family, _broadcast(p.sigma, dim))
    return make_mlp(p.dataset_seed, widths, noise, n_points=p.n_points)


def initial_point(cfg: ExperimentConfig, problem: Problem) -> np.ndarray:
    return _broadcast(cfg.problem.x0, problem.dim)
