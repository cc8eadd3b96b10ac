"""Flat `section.key = value` experiment configuration, validated in one
place: every section raises `ConfigError` when it is built.

The format is deliberately line-oriented: every value serializes to one
line, floats with 17 significant digits, so parse(serialize(cfg)) == cfg
bit-exactly and configs diff cleanly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .core import MAX_VECTOR, is_count, is_seed
from .problems import (NOISE_FAMILIES, NoiseSpec, Problem, make_logistic,
                       make_mlp, make_quadratic, mlp_n_params)

PROBLEM_KINDS = ("quadratic", "logistic", "mlp")

# natural logs of the normal float range; a decayed stepsize must stay in it
_LOG_MIN = math.log(sys.float_info.min)
_LOG_MAX = math.log(sys.float_info.max / 2)


class ConfigError(ValueError):
    """Malformed configuration text or inconsistent field values."""


# Each section raises ConfigError at the rule it breaks, and ExperimentConfig
# checks the rules that span sections. Comparisons are written so NaN fails.

# The kinds of value a field takes, by the type of its default; a bool is
# an int to Python, but never a count or a float here.
_KINDS = {bool: (bool, np.bool_), int: (int, np.integer), str: (str,),
          float: (int, float, np.integer, np.floating)}


def _as_kind(value, default, key: str):
    """`value` as `parse_config` gives a value of `default`'s kind: as that
    Python type, and a list, a tuple or a 1-D array as a tuple."""
    if isinstance(default, tuple):
        if isinstance(value, (list, tuple)) or (
                isinstance(value, np.ndarray) and value.ndim == 1):
            return tuple(_as_kind(v, default[0], key) for v in value)
    elif isinstance(value, _KINDS[type(default)]) and not (
            isinstance(value, bool) and type(default) is not bool):
        try:
            return type(default)(value)
        except OverflowError:  # an int past the float range
            return math.inf
    raise ConfigError(f"{key}: expected a value like {default!r}, "
                      f"got {value!r}")


def _store_kinds(spec, section: str) -> None:
    """Check each field of `spec` for its default's kind, before any rule
    reads it, and store it as `parse_config` would give it. So a section
    built in code serializes to text that parses back to it, and its run
    is the parsed config's run."""
    for f in fields(spec):
        object.__setattr__(spec, f.name, _as_kind(
            getattr(spec, f.name), f.default, f"{section}.{f.name}"))


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
        _store_kinds(self, "problem")
        if self.kind not in PROBLEM_KINDS:
            raise ConfigError(f"unknown problem.kind {self.kind!r}")
        if self.noise_family not in NOISE_FAMILIES:
            raise ConfigError(
                f"unknown problem.noise_family {self.noise_family!r}")
        if not (is_count(self.dim) and is_count(self.n_points)):
            raise ConfigError("problem.dim and problem.n_points must be "
                              "integers >= 1")
        if not is_seed(self.dataset_seed):
            raise ConfigError("problem.dataset_seed must be an integer in "
                              "[0, 2^64)")
        try:
            n = self.n_params
        except ValueError as exc:  # the MLP's width and depth rule
            raise ConfigError(f"problem.layer_widths: {exc}") from None
        if n > MAX_VECTOR:
            raise ConfigError(f"problem has {n} parameters; numpy's largest "
                              f"float64 array holds {MAX_VECTOR}")
        if self.kind != "quadratic":
            # logistic's (n_points, dim) data, or the MLP's activations of
            # its widest layer, one row per point
            width = (self.dim if self.kind == "logistic"
                     else max(self.layer_widths))
            if self.n_points * width > MAX_VECTOR:
                raise ConfigError(f"problem.n_points * {width} exceeds "
                                  f"numpy's largest float64 array "
                                  f"({MAX_VECTOR})")
        for name in ("lipschitz", "x_opt", "x0", "sigma"):
            vec = getattr(self, name)
            if len(vec) not in (1, n):
                raise ConfigError(f"problem.{name} needs 1 or {n} entries, "
                                  f"got {len(vec)}")
            if not all(math.isfinite(v) for v in vec):
                raise ConfigError(f"problem.{name} must be finite")
            if name in ("lipschitz", "sigma") and not all(v >= 0 for v in vec):
                raise ConfigError(f"problem.{name} must be >= 0")

    @property
    def n_params(self) -> int:
        """Length of the parameter vector: `dim`, or for an MLP the count
        of its weights and biases."""
        if self.kind != "mlp":
            return self.dim
        return mlp_n_params(self.layer_widths)


# What each algorithm name fixes of the one step rule: its switch point
# (None: the config's t_switch), whether it steps on the momentum, whether
# it dithers under the config's dither_mode, and whether it tracks the EMA.
# So SGD is the hybrid at t_switch = 0 stepping by lr, SignSGD-M and the
# dithered variants are the hybrid at t_switch = inf without the EMA, and
# SignSGD is SignSGD-M without momentum. SGD never takes a sign step; its
# momentum flag matches the others so that a batch of SGD and
# sign-momentum rows shares it.
PRESETS = {
    "sgd": (0.0, True, False, False),
    "signsgd": (math.inf, False, False, False),
    "signsgdm": (math.inf, True, False, False),
    "dithered": (math.inf, True, True, False),
    "hybrid": (None, True, True, True),
}
DITHER_MODES = ("none", "pre", "post")


@dataclass(frozen=True)
class OptimizerSpec:
    """The `optimizer.*` section. Every float must be finite except
    `t_switch`, where inf means never switch."""

    algorithm: str = "signsgdm"
    delta: float = 0.01          # sign-phase learning rate
    beta: float = 0.9            # momentum decay
    alpha: float = 0.0           # dither scale (0 disables dithering)
    gamma: float = 0.55          # dither annealing exponent
    eta: float = 0.99            # EMA decay for the calibrated stepsize
    epsilon: float = 1e-12       # projection stabilizer
    t_switch: float = math.inf   # step index at which the hybrid switches
    dither_mode: str = "none"
    lambda_bias_correction: bool = False  # divide the frozen EMA by 1-eta^k
    lr: float = 0.01              # plain-SGD learning rate
    lambda_init: float = 0.0      # pre-seeded EMA value

    def __post_init__(self):
        _store_kinds(self, "optimizer")
        if self.algorithm not in PRESETS:
            raise ConfigError(f"unknown optimizer.algorithm {self.algorithm!r}")
        if not 0 < self.delta < math.inf:
            raise ConfigError("optimizer.delta must be finite and > 0")
        if not 0 <= self.lr < math.inf:
            raise ConfigError("optimizer.lr must be finite and >= 0")
        if not 0.0 < self.beta < 1.0:
            raise ConfigError("optimizer.beta must be in (0, 1)")
        if not 0 <= self.alpha < math.inf:
            raise ConfigError("optimizer.alpha must be finite and >= 0")
        if not 0 < self.gamma < math.inf:
            raise ConfigError("optimizer.gamma must be finite and > 0")
        if not 0.0 < self.eta < 1.0:
            raise ConfigError("optimizer.eta must be in (0, 1)")
        if not 0 < self.epsilon < math.inf:
            raise ConfigError("optimizer.epsilon must be finite and > 0")
        if not self.t_switch >= 0:  # inf: never switch
            raise ConfigError("optimizer.t_switch must be >= 0")
        if not 0 <= self.lambda_init < math.inf:
            raise ConfigError("optimizer.lambda_init must be finite and >= 0")
        if self.dither_mode not in DITHER_MODES:
            raise ConfigError(f"unknown optimizer.dither_mode {self.dither_mode!r}")
        if self.algorithm == "dithered" and self.dither_mode == "none":
            raise ConfigError("optimizer.algorithm 'dithered' needs "
                              "optimizer.dither_mode 'pre' or 'post'")
        if self.lambda_bias_correction and self.lambda_init != 0:
            # 1 - eta^n is the bias of an EMA that starts at zero
            raise ConfigError("optimizer.lambda_bias_correction needs "
                              "optimizer.lambda_init = 0")


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
        _store_kinds(self, "run")
        if not (is_count(self.steps) and is_count(self.batch_size)):
            raise ConfigError("run.steps and run.batch_size must be "
                              "integers >= 1")
        if self.steps > sys.float_info.max:
            raise ConfigError(f"run.steps must be <= "
                              f"{sys.float_info.max:.4g}, the largest float")
        if not (len(self.seeds) and all(map(is_seed, self.seeds))):
            raise ConfigError("run.seeds needs at least one seed, "
                              "each an integer in [0, 2^64)")
        if not (is_count(self.record_stride, 0)
                and is_count(self.decay_every, 0)):
            raise ConfigError("run.record_stride and run.decay_every "
                              "must be integers >= 0")
        if not 0 < self.decay_factor < math.inf:
            raise ConfigError("run.decay_factor must be finite and > 0")


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec = field(default_factory=ProblemSpec)
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    run: RunSpec = field(default_factory=RunSpec)

    def __post_init__(self):
        opt, run = self.optimizer, self.run
        # A step draws batch_size noise vectors in one array.
        if run.batch_size * self.problem.n_params > MAX_VECTOR:
            raise ConfigError(f"run.batch_size * {self.problem.n_params} "
                              f"parameters exceeds numpy's largest float64 "
                              f"array ({MAX_VECTOR})")
        if not run.decay_every:
            return
        if run.theorem_mode:
            raise ConfigError("theorem mode (run.theorem_mode, or a theorem "
                              "suite cell) fixes the stepsize at "
                              "1/sqrt(L1*K); run.decay_every must be 0")
        # The last step decays lr and delta n times. The check works in log
        # space so the power cannot overflow, and the normal-range margin
        # covers rounding against the run loop's repeated multiplication.
        n = (run.steps - 1) // run.decay_every
        scale = n * math.log(run.decay_factor)
        decayed = f"run.decay_factor ** {n} takes optimizer.delta"
        if math.log(opt.delta) + scale < _LOG_MIN:
            raise ConfigError(f"{decayed} below the smallest normal float")
        if math.log(max(opt.delta, opt.lr)) + scale > _LOG_MAX:
            raise ConfigError(f"{decayed} or optimizer.lr near float "
                              f"overflow")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"  # inf is "inf"
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _parse_scalar(text: str, kind: type):
    if kind is bool:
        if text not in ("true", "false"):
            raise ConfigError(f"expected true/false, got {text!r}")
        return text == "true"
    return text if kind is str else kind(text)


def _parse_value(text: str, template, where: str):
    try:
        if isinstance(template, tuple):
            elem = type(template[0])
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
    return ExperimentConfig(**{name: cls(**values[name])
                               for name, cls in _SECTIONS.items()})


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # drop the byte-order mark some editors write; utf-8-sig would
            # too, but would count a bad byte's offset after the mark
            text = fh.read().removeprefix("\ufeff")
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
