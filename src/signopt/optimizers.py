"""The step rule of the sign-based optimizer family as a pure state
transition.

One rule, `step`, covers plain SGD, SignSGD, SignSGD with momentum,
pre-/post-sign dithered variants, the projection-based learning-rate
calibration, and the hybrid sign-to-SGD switcher that freezes the
calibrated stepsize at the switch. The algorithm names are presets:
`preset` turns an `OptimizerConfig` into the rule's `StepParams`.

The rule works row by row: a state whose `x` and `m` are (S, d) arrays
advances S independent trajectories at once, with one lambda per row, and
each row is bitwise the trajectory of that row alone. The step counter is
shared by the rows. Each parameter is one value for every row or one per
row (`stack_params`), so rows of different configs run together, each in
its own phase. A dither stream is anything with RngStream's
`normal(shape)`; for rows it returns one draw per row, each from that
row's own stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import RngStream, inner, l2_norm_sq, sample_gaussian, sign_vec
from .dither import DEFAULT_GAMMA, dither_sigma_sq

PHASE_SIGN = "sign"
PHASE_SGD = "sgd"

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
class OptimizerConfig:
    """The optimizer's parameters (the `optimizer.*` config section),
    validated on construction. Every float must be finite except
    `t_switch`, where inf means never switch; comparisons are written so
    that NaN fails them."""

    algorithm: str = "signsgdm"
    delta: float = 0.01          # sign-phase learning rate
    beta: float = 0.9            # momentum decay
    alpha: float = 0.0           # dither scale (0 disables dithering)
    gamma: float = DEFAULT_GAMMA  # dither annealing exponent
    eta: float = 0.99            # EMA decay for the calibrated stepsize
    epsilon: float = 1e-12       # projection stabilizer
    t_switch: float = math.inf   # step index at which the hybrid switches
    dither_mode: str = "none"
    lambda_bias_correction: bool = False  # divide the frozen EMA by 1-eta^k
    lr: float = 0.01              # plain-SGD learning rate
    lambda_init: float = 0.0      # pre-seeded EMA value

    def __post_init__(self):
        if self.algorithm not in PRESETS:
            raise ValueError(f"unknown optimizer.algorithm {self.algorithm!r}")
        if not 0 < self.delta < math.inf:
            raise ValueError("optimizer.delta must be finite and > 0")
        if not 0 <= self.lr < math.inf:
            raise ValueError("optimizer.lr must be finite and >= 0")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("optimizer.beta must be in (0, 1)")
        if not 0 <= self.alpha < math.inf:
            raise ValueError("optimizer.alpha must be finite and >= 0")
        if not 0 < self.gamma < math.inf:
            raise ValueError("optimizer.gamma must be finite and > 0")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("optimizer.eta must be in (0, 1)")
        if not 0 < self.epsilon < math.inf:
            raise ValueError("optimizer.epsilon must be finite and > 0")
        if not self.t_switch >= 0:  # inf: never switch
            raise ValueError("optimizer.t_switch must be >= 0")
        if not 0 <= self.lambda_init < math.inf:
            raise ValueError("optimizer.lambda_init must be finite and >= 0")
        if self.dither_mode not in DITHER_MODES:
            raise ValueError(f"unknown optimizer.dither_mode {self.dither_mode!r}")
        if self.algorithm == "dithered" and self.dither_mode == "none":
            raise ValueError("optimizer.algorithm 'dithered' needs "
                             "optimizer.dither_mode 'pre' or 'post'")
        if self.lambda_bias_correction and self.lambda_init != 0:
            # 1 - eta^n is the bias of an EMA that starts at zero
            raise ValueError("optimizer.lambda_bias_correction needs "
                             "optimizer.lambda_init = 0")


@dataclass(frozen=True)
class OptimizerState:
    x: np.ndarray             # (d,) or (S, d)
    m: np.ndarray
    k: int = 0
    lambda_ema: float = 0.0   # a float, or one value per row
    phase: str = PHASE_SIGN   # a phase, or one per row when the rows differ
    last_lambda: float = 0.0  # this step's calibration scalar; 0 if none


def init_state(x0: np.ndarray, lambda_ema=0.0) -> OptimizerState:
    x0 = np.asarray(x0, dtype=np.float64)
    return OptimizerState(x=x0.copy(), m=np.zeros_like(x0),
                          lambda_ema=lambda_ema)


@dataclass(frozen=True)
class StepParams:
    """The parameters of `step`. Each is one value shared by every row, or
    an (S,) column with one value per row.

    Step k of a row is a sign step while k < t_switch and an SGD step
    after. A sign step moves by delta times the sign of the momentum, or of
    g itself where `momentum` is off (such a row records lambda 0), with a
    dither of variance alpha * (1+k)^(-gamma) added before (`pre`) or after
    the sign; alpha = 0 draws none. An SGD step moves by lr * g or, where
    `track_ema` is on, by the EMA of the sign steps' lambda divided by
    `ema_divisor`, which the SGD phase leaves frozen.
    """

    delta: float
    beta: float
    eta: float
    epsilon: float
    alpha: float
    gamma: float
    pre: bool
    momentum: bool
    t_switch: float
    track_ema: bool
    ema_divisor: float
    lr: float


def preset(cfg: OptimizerConfig) -> StepParams:
    """The parameters with which `step` runs `cfg.algorithm` (`PRESETS`)."""
    t_switch, momentum, dithers, track_ema = PRESETS[cfg.algorithm]
    if t_switch is None:
        t_switch = cfg.t_switch
    # the sign phase runs steps 0 .. ceil(t_switch) - 1, one EMA update
    # each. The EMA starts at zero, so it is biased low by the factor
    # 1 - eta^n; the toggle removes that at the point of use
    n_updates = math.ceil(t_switch) if track_ema and t_switch < math.inf else 0
    divisor = (1.0 - cfg.eta ** n_updates
               if cfg.lambda_bias_correction and n_updates > 0 else 1.0)
    return StepParams(
        delta=cfg.delta, beta=cfg.beta, eta=cfg.eta, epsilon=cfg.epsilon,
        alpha=cfg.alpha if dithers and cfg.dither_mode != "none" else 0.0,
        gamma=cfg.gamma, pre=cfg.dither_mode == "pre", momentum=momentum,
        t_switch=t_switch, track_ema=track_ema, ema_divisor=divisor,
        lr=cfg.lr)


def column_of(values: list, rows: int):
    """`rows` rows of each value in turn: the value itself if all of them
    are the same to the bit, else an (len(values) * rows,) column."""
    if len(set(map(repr, values))) == 1:
        return values[0]
    return np.repeat(values, rows)


def stack_params(params: list, rows: int) -> StepParams:
    """`rows` rows of each StepParams in turn. A value they all share stays
    a scalar, so that a batch of one config takes the same numpy calls as
    one row does."""
    return StepParams(**{
        f.name: column_of([getattr(p, f.name) for p in params], rows)
        for f in fields(StepParams)})


def _column(v):
    """A per-row value as a column that broadcasts across (S, d)."""
    return v[:, None] if isinstance(v, np.ndarray) else v


def _uniform(v) -> bool:
    """Whether a parameter or row mask holds one value for every row."""
    return not isinstance(v, np.ndarray)


def step(state: OptimizerState, g: np.ndarray, params: StepParams,
         dither=None) -> OptimizerState:
    """Advance every row by one step: a sign step where k < t_switch, an
    SGD step elsewhere. `dither` is read only by rows with alpha > 0, and
    a sign step with such rows needs it."""
    k = state.k
    in_sign = k < params.t_switch  # a bool, or one per row
    if in_sign is False:
        return OptimizerState(x=state.x - _sgd_rate(state, params) * g,
                              m=state.m, k=k + 1,
                              lambda_ema=state.lambda_ema, phase=PHASE_SGD)
    move, m, lam_ema, lam = _sign_step(state, g, params, dither)
    if in_sign is True:
        return OptimizerState(x=state.x - move, m=m, k=k + 1,
                              lambda_ema=lam_ema, phase=PHASE_SIGN,
                              last_lambda=lam)
    # the rows in the SGD phase keep their momentum and EMA, and record
    # lambda 0
    col = in_sign[:, None]
    return OptimizerState(
        x=state.x - np.where(col, move, _sgd_rate(state, params) * g),
        m=np.where(col, m, state.m), k=k + 1,
        lambda_ema=np.where(in_sign, lam_ema, state.lambda_ema),
        phase=np.where(in_sign, PHASE_SIGN, PHASE_SGD),
        last_lambda=np.where(in_sign, lam, 0.0))


def _sgd_rate(state: OptimizerState, p: StepParams):
    """The SGD stepsize, as a column for rows: lr, or the frozen EMA where
    the row tracks it."""
    rate = p.lr
    if p.track_ema is not False:
        rate = state.lambda_ema
        if not _uniform(p.ema_divisor) or p.ema_divisor != 1.0:
            rate = rate / p.ema_divisor
        if p.track_ema is not True:
            rate = np.where(p.track_ema, rate, p.lr)
    return _column(rate)


def _sign_step(state: OptimizerState, g: np.ndarray, p: StepParams,
               dither) -> tuple:
    """The sign step's move delta * direction, the new momentum and EMA,
    and lambda. The direction is dithered where alpha > 0.

    The calibration scalar is computed from the un-dithered momentum;
    only rows that track the EMA fold it in.
    """
    if p.momentum is False:
        m, src, lam, lam_ema = state.m, g, 0.0, state.lambda_ema
    else:
        beta = _column(p.beta)
        m = beta * state.m + (1.0 - beta) * g
        src = m
        if p.momentum is not True:
            src = np.where(p.momentum[:, None], m, g)
            m = np.where(p.momentum[:, None], m, state.m)
        lam = lambda_project(src, g, p.delta, p.epsilon)
        lam_ema = state.lambda_ema
        if p.track_ema is not False:
            tracked = p.eta * lam_ema + (1.0 - p.eta) * lam
            lam_ema = (tracked if p.track_ema is True
                       else np.where(p.track_ema, tracked, lam_ema))
        if p.momentum is not True:
            lam = np.where(p.momentum, lam, 0.0)
    move = _column(p.delta) * _direction(src, state.k, p, dither)
    return move, m, lam_ema, lam


def _direction(src: np.ndarray, k: int, p: StepParams, dither) -> np.ndarray:
    """sign(src), with the step's dither added before or after the sign.
    sigma_k = 0 draws nothing, so the alpha = 0 trajectory is bitwise
    equal to the clean one on the same streams. In a batch where other
    rows dither, a row with sigma_k = 0 gets a dither of exactly +0.0,
    which leaves its direction bitwise sign(src): np.sign returns +0.0
    for both zeros."""
    if _uniform(p.alpha) and p.alpha == 0.0:
        return sign_vec(src)
    if dither is None:
        raise ValueError("a step with alpha > 0 needs a dither stream")
    s2 = dither_sigma_sq(k, p)
    if _uniform(s2):
        if s2 == 0.0:
            return sign_vec(src)
        std = math.sqrt(s2)
    elif s2.any():
        std = np.sqrt(s2)[:, None]
    else:
        return sign_vec(src)
    xi = sample_gaussian(src.shape, 0.0, std, dither)
    if p.pre is True:
        return sign_vec(src + xi)
    if p.pre is False:
        return sign_vec(src) + xi
    return np.where(p.pre[:, None], sign_vec(src + xi), sign_vec(src) + xi)


def lambda_project(m_next: np.ndarray, grad: np.ndarray, delta, epsilon):
    """Nonnegative scalar making an SGD step match the projection of the
    sign step onto the current stochastic gradient:
    delta * |<sign(m), g>| / (||g||^2 + epsilon); one per row of (S, d)
    arrays, where delta and epsilon may also be one per row."""
    if m_next.ndim == 1:  # one vector: a float, from its one row
        return float(lambda_project(m_next[None], grad[None], delta,
                                    epsilon)[0])
    if _uniform(epsilon) and epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    sign_m = sign_vec(m_next)
    # overflows are handled below: ||g||^2 overflowed where denom is inf
    # (lam is then 0 or NaN), delta * proj where lam is inf
    with np.errstate(over="ignore", invalid="ignore"):
        denom = l2_norm_sq(grad) + epsilon
        proj = abs(inner(sign_m, grad))
        lam = delta * proj / denom
    if np.isinf(np.fmax(denom, lam)).any():
        # delta * proj overflowed, the ratio may not
        big = np.isinf(lam)
        lam[big] = _rows(delta, big) * (proj[big] / denom[big])
        big = np.isinf(denom)
        lam[big] = _rescaled_lambda(sign_m[big], grad[big], _rows(delta, big))
    return lam


def _rows(v, rows):
    """A parameter on the given rows."""
    return v if _uniform(v) else v[rows]


def _rescaled_lambda(sign_m: np.ndarray, grad: np.ndarray, delta):
    """lambda_project's ratio on (rows, d) gradients whose ||g||^2
    overflowed, though the ratio may not: taken on g / max|g|, where
    epsilon is below the rounding of ||g||^2, and scaled back."""
    scale = np.abs(grad).max(axis=-1)
    unit = grad / scale[:, None]
    return delta * np.abs(inner(sign_m, unit)) / l2_norm_sq(unit) / scale


# The algorithms one at a time, as presets of `step`.

def sgd_step(state: OptimizerState, g: np.ndarray, lr) -> OptimizerState:
    return step(state, g, preset(OptimizerConfig(algorithm="sgd", lr=lr)))


def signsgd_step(state: OptimizerState, g: np.ndarray,
                 cfg: OptimizerConfig) -> OptimizerState:
    return step(state, g, preset(replace(cfg, algorithm="signsgd")))


def signsgdm_step(state: OptimizerState, g: np.ndarray,
                  cfg: OptimizerConfig) -> OptimizerState:
    return step(state, g, preset(replace(cfg, algorithm="signsgdm")))


def dithered_step(state: OptimizerState, g: np.ndarray,
                  cfg: OptimizerConfig, rng: RngStream) -> OptimizerState:
    return step(state, g, preset(replace(cfg, algorithm="dithered")), rng)


def hybrid_step(state: OptimizerState, g: np.ndarray,
                cfg: OptimizerConfig, rng: RngStream) -> OptimizerState:
    return step(state, g, preset(replace(cfg, algorithm="hybrid")), rng)
