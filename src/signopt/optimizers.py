"""Step rules for the sign-based optimizer family as pure state transitions.

Covers plain SGD, SignSGD, SignSGD with momentum, pre-/post-sign dithered
variants, the projection-based learning-rate calibration, and the hybrid
sign-to-SGD switcher that freezes the calibrated stepsize at the switch.

Every rule works row by row: a state whose `x` and `m` are (S, d) arrays
advances S independent trajectories at once, with one lambda per row, and
each row is bitwise the trajectory of that row alone. The step counter,
the phase and the configuration are shared by the rows. A dither stream is
anything with RngStream's `normal(shape)`; for rows it returns one draw per
row, each from that row's own stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RngStream, inner, l2_norm_sq, sample_gaussian, sign_vec
from .dither import DEFAULT_GAMMA, dither_sigma_sq
from .problems import GradSample

PHASE_SIGN = "sign"
PHASE_SGD = "sgd"

ALGORITHMS = ("sgd", "signsgd", "signsgdm", "dithered", "hybrid")
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
        if self.algorithm not in ALGORITHMS:
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
    phase: str = PHASE_SIGN
    last_lambda: float = 0.0  # this step's calibration scalar; 0 if none


def init_state(x0: np.ndarray, lambda_ema: float = 0.0) -> OptimizerState:
    x0 = np.asarray(x0, dtype=np.float64)
    return OptimizerState(x=x0.copy(), m=np.zeros_like(x0),
                          lambda_ema=lambda_ema)


def _column(v):
    """A per-row scalar array as a column that broadcasts across (S, d)."""
    return v[:, None] if np.ndim(v) == 1 else v


def sgd_step(state: OptimizerState, grad: GradSample, lr) -> OptimizerState:
    """x - lr * g, where lr is a float or one stepsize per row."""
    if np.min(lr) < 0:
        raise ValueError("lr must be >= 0")
    return OptimizerState(x=state.x - _column(lr) * grad.grad, m=state.m,
                          k=state.k + 1, lambda_ema=state.lambda_ema,
                          phase=PHASE_SGD)


def signsgd_step(state: OptimizerState, grad: GradSample,
                 cfg: OptimizerConfig) -> OptimizerState:
    return OptimizerState(x=state.x - cfg.delta * sign_vec(grad.grad),
                          m=state.m, k=state.k + 1,
                          lambda_ema=state.lambda_ema, phase=PHASE_SIGN)


def _sign_momentum_step(state: OptimizerState, grad: GradSample,
                        cfg: OptimizerConfig, rng: RngStream | None = None,
                        track_ema: bool = False) -> OptimizerState:
    """Momentum sign step, dithered under the configured mode when a dither
    stream is given.

    The calibration scalar is computed from the un-dithered momentum and
    kept as `last_lambda`; only the hybrid (`track_ema`) folds it into the
    EMA. sigma_k = 0 draws nothing, so the alpha = 0 trajectory is bitwise
    equal to the clean one on the same streams.
    """
    m_next = cfg.beta * state.m + (1.0 - cfg.beta) * grad.grad
    lam = lambda_project(m_next, grad.grad, cfg.delta, cfg.epsilon)
    lam_ema = state.lambda_ema
    if track_ema:
        lam_ema = cfg.eta * lam_ema + (1.0 - cfg.eta) * lam
    s2 = (0.0 if rng is None or cfg.dither_mode == "none"
          else dither_sigma_sq(state.k, cfg))
    if s2 == 0.0:
        direction = sign_vec(m_next)
    else:
        xi = sample_gaussian(m_next.shape, 0.0, math.sqrt(s2), rng)
        direction = (sign_vec(m_next + xi) if cfg.dither_mode == "pre"
                     else sign_vec(m_next) + xi)
    return OptimizerState(x=state.x - cfg.delta * direction, m=m_next,
                          k=state.k + 1, lambda_ema=lam_ema,
                          phase=PHASE_SIGN, last_lambda=lam)


def signsgdm_step(state: OptimizerState, grad: GradSample,
                  cfg: OptimizerConfig) -> OptimizerState:
    return _sign_momentum_step(state, grad, cfg)


def dithered_step(state: OptimizerState, grad: GradSample,
                  cfg: OptimizerConfig, rng: RngStream) -> OptimizerState:
    if cfg.dither_mode not in ("pre", "post"):
        raise ValueError("dithered_step requires dither_mode 'pre' or 'post'")
    return _sign_momentum_step(state, grad, cfg, rng)


def lambda_project(m_next: np.ndarray, grad: np.ndarray, delta: float,
                   epsilon: float):
    """Nonnegative scalar making an SGD step match the projection of the
    sign step onto the current stochastic gradient:
    delta * |<sign(m), g>| / (||g||^2 + epsilon); one per row of (S, d)
    arrays."""
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    sign_m = sign_vec(m_next)
    denom = l2_norm_sq(grad) + epsilon
    lam = delta * abs(inner(sign_m, grad)) / denom
    if isinstance(denom, float):  # one vector
        if denom == math.inf:
            return float(_rescaled_lambda(sign_m[None], grad[None], delta)[0])
        return lam
    overflowed = np.isinf(denom)
    if overflowed.any():
        lam[overflowed] = _rescaled_lambda(sign_m[overflowed],
                                           grad[overflowed], delta)
    return lam


def _rescaled_lambda(sign_m: np.ndarray, grad: np.ndarray, delta: float):
    """lambda_project's ratio on (rows, d) gradients whose ||g||^2
    overflowed, though the ratio may not: taken on g / max|g|, where
    epsilon is below the rounding of ||g||^2, and scaled back."""
    scale = np.abs(grad).max(axis=-1)
    unit = grad / scale[:, None]
    return delta * np.abs(inner(sign_m, unit)) / l2_norm_sq(unit) / scale


def hybrid_step(state: OptimizerState, grad: GradSample,
                cfg: OptimizerConfig, rng: RngStream) -> OptimizerState:
    """Sign phase while k < t_switch (momentum sign step, optionally
    dithered, with the calibrated-stepsize EMA tracked from the un-dithered
    momentum); afterwards plain SGD with the EMA frozen at the switch."""
    if state.k < cfg.t_switch:
        return _sign_momentum_step(state, grad, cfg, rng, track_ema=True)
    lam_bar = state.lambda_ema
    n_updates = min(state.k, cfg.t_switch)
    if cfg.lambda_bias_correction and n_updates > 0:
        # the EMA starts at zero, so early values are biased low by the
        # factor 1 - eta^n; the toggle removes it at the point of use
        lam_bar = lam_bar / (1.0 - cfg.eta ** n_updates)
    return sgd_step(state, grad, lam_bar)
