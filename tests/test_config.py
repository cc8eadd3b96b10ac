"""The values each config field accepts, at the edges of its range, and
README's statement of each field's rule.

The table below is README's list of ranges written out as values: each
finite bound with its neighbours (the next float either side, or the
integer either side), and NaN and both infinities for every float. Each
value goes through the parser and through building its section in code,
which must accept and reject alike.
"""

import math
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from signopt.config import (ConfigError, ExperimentConfig, OptimizerSpec,
                            ProblemSpec, RunSpec, parse_config)

SECTIONS = {"problem": ProblemSpec, "optimizer": OptimizerSpec,
            "run": RunSpec}
NAN, INF = math.nan, math.inf
FLOAT_MAX = sys.float_info.max
STEPS_MAX = int(FLOAT_MAX)  # run.steps is at most the largest float


def down(x):
    return math.nextafter(x, -INF)


def up(x):
    return math.nextafter(x, INF)


NON_FINITE = [NAN, INF, -INF]
SEED = ([0, 1, 2**64 - 1], [-1, 2**64, 2**64 + 1])    # [0, 2^64)
POSITIVE = ([up(0.0), 1.0, FLOAT_MAX], [down(0.0), 0.0] + NON_FINITE)
NON_NEGATIVE = ([0.0, up(0.0), FLOAT_MAX], [down(0.0)] + NON_FINITE)
FINITE = ([-FLOAT_MAX, 0.0, FLOAT_MAX], NON_FINITE)
OPEN_UNIT = ([up(0.0), 0.5, down(1.0)],
             [down(0.0), 0.0, 1.0, up(1.0)] + NON_FINITE)

# key: (accepted values, rejected values)
EDGES = {
    "problem.dim": ([1, 2], [0]),
    "problem.n_points": ([1, 2], [0]),
    "problem.dataset_seed": SEED,
    "problem.lipschitz": NON_NEGATIVE,
    "problem.x_opt": FINITE,
    "problem.x0": FINITE,
    "problem.sigma": NON_NEGATIVE,
    "optimizer.delta": POSITIVE,
    "optimizer.beta": OPEN_UNIT,
    "optimizer.alpha": NON_NEGATIVE,
    "optimizer.gamma": POSITIVE,
    "optimizer.eta": OPEN_UNIT,
    "optimizer.epsilon": POSITIVE,
    # inf: never switch
    "optimizer.t_switch": ([0.0, up(0.0), FLOAT_MAX, INF],
                           [down(0.0), NAN, -INF]),
    "optimizer.lr": NON_NEGATIVE,
    "optimizer.lambda_init": NON_NEGATIVE,
    "run.steps": ([1, 2, STEPS_MAX], [0, STEPS_MAX + 1]),
    "run.batch_size": ([1, 2], [0]),
    "run.seeds": SEED,
    "run.record_stride": ([0, 1], [-1]),
    "run.decay_every": ([0, 1], [-1]),
    "run.decay_factor": POSITIVE,
}


def _cases():
    for key, (accepted, rejected) in EDGES.items():
        section, name = key.split(".")
        default = SECTIONS[section].__dataclass_fields__[name].default
        for ok, values in ((True, accepted), (False, rejected)):
            for value in values:
                if not isinstance(default, tuple):
                    yield key, value, ok
                    continue
                yield key, (value,), ok
                if name != "seeds":  # every entry, the last of dim = 10
                    yield key, (1.0,) * 9 + (value,), ok


def _text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(map(_text, value))
    return repr(value)


def test_edges_cover_every_number():
    numbers = {f"{section}.{f.name}" for section, cls in SECTIONS.items()
               for f in fields(cls)
               if not isinstance(f.default, (bool, str))
               and f.name != "layer_widths"}  # problems.mlp_n_params' rule
    assert set(EDGES) == numbers


@pytest.mark.parametrize("key, value, accepted", list(_cases()),
                         ids=lambda v: v if isinstance(v, str)
                         else _text(v)[-24:])
def test_range_edges(key, value, accepted):
    section, name = key.split(".")
    builds = [lambda: parse_config(f"{key} = {_text(value)}\n"),
              lambda: ExperimentConfig(**{
                  section: SECTIONS[section](**{name: value})})]
    for build in builds:
        if accepted:
            assert getattr(getattr(build(), section), name) == value
        else:
            with pytest.raises(ConfigError) as exc:
                build()
            assert key in str(exc.value)


RULED = [(section, f) for section, cls in SECTIONS.items()
         for f in fields(cls) if "rule" in f.metadata]


@pytest.mark.parametrize("section, f", RULED,
                         ids=[f"{s}.{f.name}" for s, f in RULED])
def test_readme_states_each_rule(section, f):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    ranges = readme.split("The ranges are:\n\n", 1)[1].split("\n\n", 1)[0]
    rule = f.metadata["rule"]
    text = (f"is one of `{', '.join(rule)}`" if isinstance(rule, tuple)
            else f"in `{rule.text}`")
    assert f"`{section}.{f.name}` {text}" in " ".join(ranges.split())
