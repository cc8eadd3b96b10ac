"""Flat `section.key = value` experiment configuration.

The format is deliberately line-oriented: every value serializes to one
line, floats with 17 significant digits, so parse(serialize(cfg)) == cfg
bit-exactly and configs diff cleanly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .optimizers import OptimizerConfig
from .problems import (NOISE_FAMILIES, NoiseSpec, Problem, make_logistic,
                       make_mlp, make_quadratic, mlp_depth_factor,
                       mlp_n_params)

PROBLEM_KINDS = ("quadratic", "logistic", "mlp")

_SEED_LIMIT = 2**64  # seeds are 64-bit unsigned Philox keys
# numpy's largest array, in float64 entries
_MAX_VECTOR = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize

# natural logs of the normal float range; a decayed stepsize must stay in it
_LOG_MIN = math.log(sys.float_info.min)
_LOG_MAX = math.log(sys.float_info.max / 2)


class ConfigError(ValueError):
    """Malformed configuration text or inconsistent field values."""


# Each section validates itself on construction, and ExperimentConfig checks
# the rules that span sections. Comparisons are written so that NaN fails.

@dataclass(frozen=True)
class ProblemSpec:
    kind: str = "quadratic"
    dim: int = 10
    lipschitz: tuple = (1.0,)     # broadcast to n_params if a single value
    x_opt: tuple = (0.0,)
    x0: tuple = (1.0,)
    noise_family: str = "gaussian"
    sigma: tuple = (1.0,)
    dataset_seed: int = 0
    n_points: int = 100           # logistic/mlp dataset size
    layer_widths: tuple = (2, 8, 1)

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            raise ValueError(f"unknown problem.kind {self.kind!r}")
        if self.noise_family not in NOISE_FAMILIES:
            raise ValueError(
                f"unknown problem.noise_family {self.noise_family!r}")
        if not (self.dim >= 1 and self.n_points >= 1):
            raise ValueError("problem.dim and problem.n_points must be >= 1")
        if not 0 <= self.dataset_seed < _SEED_LIMIT:
            raise ValueError("problem.dataset_seed must be in [0, 2^64)")
        widths = self.layer_widths
        if self.kind == "mlp" and not (len(widths) >= 3 and widths[-1] == 1
                                       and all(w >= 1 for w in widths)):
            raise ValueError("problem.layer_widths needs >= 3 entries, "
                             "each >= 1, ending in 1")
        if self.kind == "mlp":
            try:
                mlp_depth_factor(len(widths) - 1)
            except OverflowError:
                raise ValueError(f"problem.layer_widths: {len(widths) - 1} "
                                 f"layers overflow the MLP's curvature "
                                 f"estimate") from None
        n = self.n_params
        if n > _MAX_VECTOR:
            raise ValueError(f"problem has {n} parameters; numpy's largest "
                             f"float64 array holds {_MAX_VECTOR}")
        for name in ("lipschitz", "x_opt", "x0", "sigma"):
            vec = getattr(self, name)
            if len(vec) not in (1, n):
                raise ValueError(f"problem.{name} needs 1 or {n} entries, "
                                 f"got {len(vec)}")
            if not all(math.isfinite(v) for v in vec):
                raise ValueError(f"problem.{name} must be finite")
            if name in ("lipschitz", "sigma") and not all(v >= 0 for v in vec):
                raise ValueError(f"problem.{name} must be >= 0")

    @property
    def n_params(self) -> int:
        """Length of the parameter vector: `dim`, or for an MLP the count
        of its weights and biases."""
        if self.kind != "mlp":
            return self.dim
        return mlp_n_params(self.layer_widths)


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

    def __post_init__(self):
        if not (self.steps >= 1 and self.batch_size >= 1):
            raise ValueError("run.steps and run.batch_size must be >= 1")
        if not (self.seeds and all(0 <= s < _SEED_LIMIT for s in self.seeds)):
            raise ValueError("run.seeds needs at least one seed, "
                             "each in [0, 2^64)")
        if not (self.record_stride >= 0 and self.decay_every >= 0):
            raise ValueError("run.record_stride and run.decay_every "
                             "must be >= 0")
        if not 0 < self.decay_factor < math.inf:
            raise ValueError("run.decay_factor must be finite and > 0")


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec = field(default_factory=ProblemSpec)
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    run: RunSpec = field(default_factory=RunSpec)

    def __post_init__(self):
        opt, run = self.optimizer, self.run
        if not run.decay_every:
            return
        if run.theorem_mode:
            raise ValueError("run.theorem_mode fixes the stepsize at "
                             "1/sqrt(L1*K); run.decay_every must be 0")
        # The last step decays lr and delta n times. The check works in log
        # space so the power cannot overflow, and the normal-range margin
        # covers rounding against the run loop's repeated multiplication.
        n = (run.steps - 1) // run.decay_every
        scale = n * math.log(run.decay_factor)
        if math.log(opt.delta) + scale < _LOG_MIN:
            raise ValueError(f"run.decay_factor ** {n} takes optimizer.delta "
                             f"below the smallest normal float")
        if math.log(max(opt.delta, opt.lr)) + scale > _LOG_MAX:
            raise ValueError(f"run.decay_factor ** {n} takes optimizer.delta "
                             f"or optimizer.lr near float overflow")


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


def _parse_value(text: str, template, where: str):
    try:
        if isinstance(template, bool):
            return _parse_scalar(text, bool)
        if isinstance(template, tuple):
            elem = type(template[0]) if template else float
            if text == "":
                return ()
            return tuple(_parse_scalar(t.strip(), elem)
                         for t in text.split(","))
        return _parse_scalar(text, type(template))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


_SECTIONS = {"problem": ProblemSpec, "optimizer": OptimizerSpec, "run": RunSpec}
# each section's keys with their default values, which fix the value types
_TEMPLATES = {name: {f.name: f.default for f in fields(cls)}
              for name, cls in _SECTIONS.items()}


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = []
    for section in ("problem", "optimizer", "run"):
        spec = getattr(cfg, section)
        for f in fields(spec):
            lines.append(f"{section}.{f.name} = {_fmt(getattr(spec, f.name))}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text into a validated ExperimentConfig; any malformed
    line, repeated key or invalid value raises ConfigError."""
    values = {name: {} for name in _SECTIONS}
    first_line = {}
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
        if name not in _TEMPLATES[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} "
                              f"(first set on line {first_line[key]})")
        first_line[key] = lineno
        values[section][name] = _parse_value(
            val, _TEMPLATES[section][name],
            f"line {lineno}: bad value for {key}")
    try:
        return ExperimentConfig(**{name: cls(**values[name])
                                   for name, cls in _SECTIONS.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 ({exc.reason} at byte "
                          f"{exc.start})") from exc
    return parse_config(text)


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_config(cfg))


def _broadcast(values: tuple, dim: int) -> np.ndarray:
    """A validated 1-or-dim-entry field as a dim-vector."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 1:
        return np.full(dim, arr[0])
    return arr


def build_problem(cfg: ExperimentConfig) -> Problem:
    p = cfg.problem
    noise = NoiseSpec(p.noise_family, _broadcast(p.sigma, p.n_params))
    if p.kind == "quadratic":
        return make_quadratic(_broadcast(p.lipschitz, p.dim),
                              _broadcast(p.x_opt, p.dim), noise)
    if p.kind == "logistic":
        return make_logistic(p.dataset_seed, p.dim, p.n_points, noise)
    return make_mlp(p.dataset_seed, p.layer_widths, noise,
                    n_points=p.n_points)


def initial_point(cfg: ExperimentConfig, problem: Problem) -> np.ndarray:
    return _broadcast(cfg.problem.x0, problem.dim)
