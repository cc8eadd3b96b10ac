"""Flat `section.key = value` experiment configuration, validated in one
place: every section raises `ConfigError` when it is built.

Each field states its own rule beside its declaration: an interval for a
number (checked on every entry of a vector), or the tuple of names a name
may take. One pass per section checks each field's kind and then its rule.
The rules that span fields are written out in each section's
`__post_init__`, and those that span sections in `ExperimentConfig`'s.

The format is deliberately line-oriented: every value serializes to one
line, floats with 17 significant digits, so parse(serialize(cfg)) == cfg
bit-exactly and configs diff cleanly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .core import MAX_VECTOR, SEED_LIMIT
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


class _Interval:
    """An interval written as README writes it, such as "(0, 1)", "[0, inf]"
    or "[0, 2^64)"; `value in interval` is false for NaN."""

    def __init__(self, text: str):
        self.text = text
        self.low, self.high = (SEED_LIMIT if bound == "2^64" else float(bound)
                               for bound in text[1:-1].split(", "))

    def __contains__(self, value) -> bool:
        return ((self.low < value if self.text[0] == "(" else self.low <= value)
                and (value < self.high if self.text[-1] == ")"
                     else value <= self.high))


def _ranged(default, rule):
    """A field whose value, or each entry of a vector, obeys `rule`: an
    interval's text, or the tuple of names the field may take."""
    return field(default=default, metadata={
        "rule": _Interval(rule) if isinstance(rule, str) else rule})


def _check_fields(spec, section: str) -> None:
    """Check each field of `spec` for its default's kind, store it as
    `parse_config` would give it, then check it against the field's own
    rule. So a section built in code serializes to text that parses back
    to it, and its run is the parsed config's run."""
    for f in fields(spec):
        key = f"{section}.{f.name}"
        value = _as_kind(getattr(spec, f.name), f.default, key)
        object.__setattr__(spec, f.name, value)
        rule = f.metadata.get("rule")
        if isinstance(rule, tuple) and value not in rule:
            raise ConfigError(f"unknown {key} {value!r}")
        if isinstance(rule, _Interval):
            for entry in value if isinstance(value, tuple) else (value,):
                if entry not in rule:
                    raise ConfigError(f"{key} must be in {rule.text}, "
                                      f"got {entry!r}")


@dataclass(frozen=True)
class ProblemSpec:
    kind: str = _ranged("quadratic", PROBLEM_KINDS)
    dim: int = _ranged(10, "[1, inf)")
    # broadcast to n_params if a single value
    lipschitz: tuple = _ranged((1.0,), "[0, inf)")
    x_opt: tuple = _ranged((0.0,), "(-inf, inf)")
    x0: tuple = _ranged((1.0,), "(-inf, inf)")
    noise_family: str = _ranged("gaussian", NOISE_FAMILIES)
    sigma: tuple = _ranged((1.0,), "[0, inf)")
    dataset_seed: int = _ranged(0, "[0, 2^64)")
    n_points: int = _ranged(100, "[1, inf)")  # logistic/mlp dataset size
    layer_widths: tuple = (2, 8, 1)  # problems.mlp_n_params states its rule

    def __post_init__(self):
        _check_fields(self, "problem")
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
    """The `optimizer.*` section. Each field's own rule is the interval or
    the names beside its declaration; only `t_switch` takes inf, which
    means never switch. `__post_init__` states the two rules that span
    fields."""

    algorithm: str = _ranged("signsgdm", tuple(PRESETS))
    delta: float = _ranged(0.01, "(0, inf)")    # sign-phase learning rate
    beta: float = _ranged(0.9, "(0, 1)")        # momentum decay
    # dither scale (0 disables dithering)
    alpha: float = _ranged(0.0, "[0, inf)")
    gamma: float = _ranged(0.55, "(0, inf)")    # dither annealing exponent
    # EMA decay for the calibrated stepsize
    eta: float = _ranged(0.99, "(0, 1)")
    epsilon: float = _ranged(1e-12, "(0, inf)")  # projection stabilizer
    # step index at which the hybrid switches
    t_switch: float = _ranged(math.inf, "[0, inf]")
    dither_mode: str = _ranged("none", DITHER_MODES)
    lambda_bias_correction: bool = False  # divide the frozen EMA by 1-eta^k
    lr: float = _ranged(0.01, "[0, inf)")        # plain-SGD learning rate
    lambda_init: float = _ranged(0.0, "[0, inf)")  # pre-seeded EMA value

    def __post_init__(self):
        _check_fields(self, "optimizer")
        if self.algorithm == "dithered" and self.dither_mode == "none":
            raise ConfigError("optimizer.algorithm 'dithered' needs "
                              "optimizer.dither_mode 'pre' or 'post'")
        if self.lambda_bias_correction and self.lambda_init != 0:
            # 1 - eta^n is the bias of an EMA that starts at zero
            raise ConfigError("optimizer.lambda_bias_correction needs "
                              "optimizer.lambda_init = 0")


@dataclass(frozen=True)
class RunSpec:
    # at most the largest float
    steps: int = _ranged(1000, "[1, 1.7976931348623157e308]")
    batch_size: int = _ranged(1, "[1, inf)")
    seeds: tuple = _ranged((0,), "[0, 2^64)")
    # 0 = automatic (1 up to 1e4 steps)
    record_stride: int = _ranged(0, "[0, inf)")
    theorem_mode: bool = False    # force delta = 1/sqrt(L1 * K)
    # optional step-decay schedule, 0 = off
    decay_every: int = _ranged(0, "[0, inf)")
    decay_factor: float = _ranged(1.0, "(0, inf)")

    def __post_init__(self):
        _check_fields(self, "run")
        if not self.seeds:
            raise ConfigError("run.seeds needs at least one seed")


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec = field(default_factory=ProblemSpec)
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    run: RunSpec = field(default_factory=RunSpec)

    def __post_init__(self):
        for f in fields(self):
            section = getattr(self, f.name)
            if not isinstance(section, f.default_factory):
                raise ConfigError(f"{f.name}: expected a {f.type}, got "
                                  f"{section!r}")
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


_SECTIONS = {f.name: f.default_factory for f in fields(ExperimentConfig)}
# each section's keys with their default values, which fix the value types
_TEMPLATES = {name: {f.name: f.default for f in fields(cls)}
              for name, cls in _SECTIONS.items()}


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = []
    for section in _SECTIONS:
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
