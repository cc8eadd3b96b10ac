"""The step rule of the sign-based optimizer family.

One rule covers plain SGD, SignSGD, SignSGD with momentum, pre-/post-sign
dithered variants, the projection-based learning-rate calibration, and
the hybrid sign-to-SGD switcher that freezes the calibrated stepsize at
the switch. The algorithm names are presets: `preset` turns the
`config.OptimizerSpec` section, validated there, into `StepParams`.

The rule works row by row, and each row is bitwise the trajectory of that
row alone. Each parameter is one value for every row or one per row
(`stack_params`), so rows of different configs run together, each in its
own phase; the step counter is shared by the rows. The rule's one body is
`RowStepper`, which holds the rows' x, m, EMA and lambda in mutable
arrays and advances them in place. It keeps the rows in switch order (by
t_switch, descending and stable), so the rows in the sign phase are
always a leading slice [:p]: each step runs the sign step on [:p] and the
SGD step on [p:], and p never grows; a row's phase at step k follows
from k and its t_switch (`phase_codes`). `step` is the same rule as a
pure state transition on an `OptimizerState`: it reorders a copy of the
rows, runs one `RowStepper` step and returns the rows in their own
order. A dither stream is anything with RngStream's `normal(shape)`; for
rows it returns one draw per row, each from that row's own stream. A
step's dither has the annealed variance `dither_sigma_sq`,
alpha * (1+k)^(-gamma), which `_direction` reads on every dithered
step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .config import PRESETS, OptimizerSpec
from .core import (RngStream, inner, is_count, l2_norm_sq, run_errstate,
                   sample_gaussian, sign_vec)

PHASES = ("sign", "sgd")  # a recorded phase code indexes this


def phase_codes(k, t_switch) -> np.ndarray:
    """The phase code at step k, an index into `PHASES`, of a row with
    this t_switch: sign while k < t_switch, SGD after. Either may be an
    array; the codes broadcast."""
    return (np.asarray(k) >= t_switch).astype(np.int8)


@dataclass(frozen=True, eq=False, repr=False)
class OptimizerState:
    """The iterate, momentum and calibration state after k steps."""

    x: np.ndarray             # (d,) or (S, d)
    m: np.ndarray
    k: int = 0
    lambda_ema: float = 0.0   # a float, or one value per row
    phase: str = "sign"       # a phase, or one per row when the rows differ
    last_lambda: float = 0.0  # this step's calibration scalar, or one per
                              # row; 0 where none is computed


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


def preset(cfg: OptimizerSpec) -> StepParams:
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


def _take_rows(params: StepParams, rows) -> StepParams:
    """The parameters of the given rows (a mask, an index array or a
    slice), each one value where those rows share it to the bit."""
    return replace(params, **{
        f.name: column_of(v[rows].tolist(), 1) for f in fields(params)
        if isinstance(v := getattr(params, f.name), np.ndarray)})


class RowStepper:
    """The step rule on S rows held in mutable arrays and advanced in
    place: x and m are (S, d), the EMA and lambda are (S,).

    The rows are kept in switch order, by t_switch, descending and stable;
    `order[j]` is the input row of row j, and `keep` cuts it with the
    rows, so it stays true through every cut. The rows in the sign phase at
    step k, those with k < t_switch, are then the leading slice [:p], and
    p never grows. A step runs the sign step on [:p] and the SGD step on
    [p:]. What depends only on the parameters and on p is resolved when p
    changes, on a decay and after a cut, not every step: which parameters
    are one value on each slice, and the SGD rate, which reads the EMA
    that the SGD phase holds frozen. Each operation is the one the rule
    takes on a row alone, so every row is bitwise its row alone.

    `lam` is state beside the EMA: each row's lambda from the last step,
    0 for a row without momentum and for a row that took an SGD step,
    since neither computes one. `switch_lambda` gives the frozen EMA of a
    row that tracks it and has switched. A row's phase needs no state: it
    follows from k and its t_switch (`phase_codes`). The callers (`step`,
    `harness.run_seeds`) read `lam` and `ema`, and `run_seeds` keeps no
    row order of its own: it reads `order`.
    """

    def __init__(self, x, m, ema, params: StepParams):
        t_switch = np.broadcast_to(params.t_switch, (len(x),))
        # a t_switch shared by every row sorts to arange
        self.order = np.argsort(-t_switch, kind="stable")
        self.x = np.asarray(x, dtype=np.float64)[self.order]
        self.m = np.asarray(m, dtype=np.float64)[self.order]
        self.ema = np.asarray(ema, dtype=np.float64)[self.order]
        self.lam = np.zeros(len(x))
        self.params = _take_rows(params, self.order)
        self._t = t_switch[self.order].tolist()
        self._buf = np.empty_like(self.x)
        self.p = len(x)  # before the first step every row is in the sign phase
        self._resolve()

    def step(self, g: np.ndarray, k: int, dither=None) -> None:
        """Advance every row by step k on its gradient row of g. `dither`
        is read only by sign rows with alpha > 0, and a step with such rows
        needs it."""
        p, t = self.p, self._t
        while p and not k < t[p - 1]:
            p -= 1
        if p != self.p:
            self.p = p
            self._resolve()
        if p:
            self._sign_step(g[:p], k, dither)
        if p < len(t):
            np.multiply(g[p:], self._rate, out=self._sgd_buf)
            np.subtract(self._sgd_x, self._sgd_buf, out=self._sgd_x)

    def switch_lambda(self, j: int) -> float:
        """Row j's switch lambda, NaN if it has none. A row that tracks the
        EMA and last took an SGD step has held the EMA frozen since its
        first one: that is the lambda it switched at."""
        track = _rows(self.params.track_ema, j)
        return float(self.ema[j]) if track and j >= self.p else math.nan

    def decay(self, factor: float) -> None:
        """Scale delta and lr; the hybrid's frozen EMA is not decayed."""
        p = self.params
        self.params = replace(p, delta=p.delta * factor, lr=p.lr * factor)
        self._resolve()

    def keep(self, rows: np.ndarray) -> None:
        """Cut the rows, and `order`, to those of the boolean mask `rows`."""
        self.p = int(np.count_nonzero(rows[:self.p]))
        self.order = self.order[rows]
        self.x, self.m, self.ema = self.x[rows], self.m[rows], self.ema[rows]
        self.lam = self.lam[rows]
        self.params = _take_rows(self.params, rows)
        self._t = [t for t, kept in zip(self._t, rows.tolist()) if kept]
        self._buf = self._buf[rows]
        self._resolve()

    def _resolve(self) -> None:
        p = self.p
        sp = self._sign = _take_rows(self.params, slice(None, p))
        self._beta = _column(sp.beta)
        self._beta_rest = 1.0 - self._beta
        self._eta_rest = 1.0 - sp.eta
        self._delta = _column(sp.delta)
        self._sign_x, self._sign_m = self.x[:p], self.m[:p]
        self._sign_ema, self._sign_buf = self.ema[:p], self._buf[:p]
        self._sign_lam = self.lam[:p]
        self.lam[p:] = 0.0  # an SGD step computes no lambda
        self._sgd_x, self._sgd_buf = self.x[p:], self._buf[p:]
        rest = _take_rows(self.params, slice(p, None))
        # lr, or the EMA that the SGD phase holds frozen, bias-corrected (a
        # divisor of 1 is exact)
        self._rate = np.where(rest.track_ema, self.ema[p:] / rest.ema_divisor,
                              rest.lr)[:, None]

    def _sign_step(self, g: np.ndarray, k: int, dither):
        """The sign step of rows [:p]: momentum, one sign of the momentum
        shared by lambda and the direction, lambda into `lam[:p]`, the EMA
        where tracked, then x -= delta * direction. Without momentum a row
        steps on the sign of g and its lambda stays 0."""
        sp, x, m, ema = self._sign, self._sign_x, self._sign_m, self._sign_ema
        if sp.momentum is True:
            np.multiply(m, self._beta, out=m)
            np.multiply(g, self._beta_rest, out=self._sign_buf)
            src = np.add(m, self._sign_buf, out=m)
        elif sp.momentum is False:
            src = g
        else:
            col = sp.momentum[:, None]
            new = self._beta * m + self._beta_rest * g
            src = np.where(col, new, g)
            np.copyto(m, new, where=col)
        sign = sign_vec(src)
        if sp.momentum is not False:
            # lambda is computed from the un-dithered momentum; only rows
            # that track the EMA fold it in
            lam = _calibration(sign, g, sp.delta, sp.epsilon, self._sign_lam)
            if sp.track_ema is not False:
                tracked = sp.eta * ema + self._eta_rest * lam
                np.copyto(ema, tracked, where=sp.track_ema)
            if sp.momentum is not True:
                lam[~sp.momentum] = 0.0
        move = _direction(src, sign, k, sp, dither)
        np.multiply(move, self._delta, out=move)
        np.subtract(x, move, out=x)


def step(state: OptimizerState, g: np.ndarray, params: StepParams,
         dither=None) -> OptimizerState:
    """Advance every row by one step: a sign step where k < t_switch, an
    SGD step elsewhere. `dither` is read only by rows with alpha > 0, and
    a sign step with such rows needs it.

    One `RowStepper` step on a copy of the state's rows, returned in the
    state's row order: one vector gives floats, rows give (S,) arrays,
    and the phase is one value when every row shares it. The step runs
    under `core.run_errstate`, as in a run."""
    x = np.atleast_2d(state.x)
    rows = len(x)
    stepper = RowStepper(x, np.atleast_2d(state.m),
                         np.broadcast_to(state.lambda_ema, (rows,)), params)
    order = stepper.order
    if dither is not None:
        dither = _Reordered(dither, order)
    with run_errstate():
        stepper.step(np.atleast_2d(g)[order], state.k, dither)
    codes = phase_codes(state.k, params.t_switch)
    phase = (PHASES[codes.max()] if codes.min() == codes.max()
             else np.array(PHASES)[codes])
    if state.x.ndim == 1:
        return OptimizerState(x=stepper.x[0], m=stepper.m[0], k=state.k + 1,
                              lambda_ema=float(stepper.ema[0]), phase=phase,
                              last_lambda=float(stepper.lam[0]))
    back = np.argsort(order)
    return OptimizerState(x=stepper.x[back], m=stepper.m[back],
                          k=state.k + 1, lambda_ema=stepper.ema[back],
                          phase=phase, last_lambda=stepper.lam[back])


class _Reordered:
    """A dither stream for rows with its draws in a stepper's row order,
    the first `size[0]` of them: the rows in the sign phase."""

    def __init__(self, stream, order: np.ndarray):
        self.stream, self.order = stream, order

    def normal(self, size):
        rows, d = size
        return self.stream.normal((len(self.order), d))[self.order][:rows]


def dither_sigma_sq(k, cfg: OptimizerSpec | StepParams):
    """Annealed dither variance alpha * (1+k)^(-gamma) at step k, with
    alpha and gamma from the (validated) optimizer config or from step
    parameters, where either may be one value per row. k may also be a
    1-D int64 array of steps under one gamma, as a record's steps: then
    one variance per step, each bitwise that of its step alone."""
    if isinstance(k, np.ndarray):
        if (k.dtype != np.int64 or k.ndim != 1 or (k < 0).any()
                or isinstance(cfg.gamma, np.ndarray)):
            raise ValueError("steps must be a 1-D int64 array of integers "
                             ">= 0, under one gamma")
        # Python's pow for each step, as below
        return cfg.alpha * np.array([(1.0 + j) ** (-cfg.gamma)
                                     for j in k.tolist()])
    if not is_count(k, 0):  # NaN and 2.5 are not steps
        raise ValueError("step must be an integer >= 0")
    if isinstance(cfg.gamma, np.ndarray):
        # Python's pow for each row, as for the row alone: numpy's power
        # may differ from it in the last bit
        return cfg.alpha * np.array([(1.0 + k) ** (-g)
                                     for g in cfg.gamma.tolist()])
    return cfg.alpha * (1.0 + k) ** (-cfg.gamma)


def _direction(src: np.ndarray, sign: np.ndarray, k: int, p: StepParams,
               dither) -> np.ndarray:
    """sign = sign(src), with the step's dither added before or after the
    sign, as a new array. alpha = 0 draws nothing, so the alpha = 0
    trajectory is bitwise equal to the clean one on the same streams.

    This is the one place that handles a variance sigma_k^2 of 0, which
    alpha * (1+k)^(-gamma) reaches when it underflows. A float sigma_k = 0
    draws nothing either: `sample_gaussian` returns the constant 0.0. A
    row's own sigma_k = 0 in a per-row column gives it a dither of exactly
    +0.0, which leaves its direction bitwise sign(src): np.sign returns
    +0.0 for both zeros. A per-row step in which every row's sigma_k is 0
    still draws, and discards the draw; the schedule only decreases, so
    no later step of those rows reads its stream again."""
    if _uniform(p.alpha) and p.alpha == 0.0:
        return sign
    if dither is None:
        raise ValueError("a step with alpha > 0 needs a dither stream")
    s2 = dither_sigma_sq(k, p)
    std = math.sqrt(s2) if _uniform(s2) else np.sqrt(s2)[:, None]
    xi = sample_gaussian(src.shape, 0.0, std, dither)
    if p.pre is True:
        return sign_vec(src + xi)
    if p.pre is False:
        return sign + xi
    return np.where(p.pre[:, None], sign_vec(src + xi), sign + xi)


def lambda_project(m_next: np.ndarray, grad: np.ndarray, delta, epsilon):
    """Nonnegative scalar making an SGD step match the projection of the
    sign step onto the current stochastic gradient:
    delta * |<sign(m), g>| / (||g||^2 + epsilon); one per row of (S, d)
    arrays, where delta and epsilon may also be one per row."""
    if m_next.ndim == 1:  # one vector: a float, from its one row
        return float(lambda_project(m_next[None], grad[None], delta,
                                    epsilon)[0])
    if not (np.greater(epsilon, 0) & np.isfinite(epsilon)).all():
        raise ValueError("epsilon must be finite and > 0")
    if not (np.greater_equal(delta, 0) & np.isfinite(delta)).all():
        raise ValueError("delta must be finite and >= 0")
    # the run loop calls _calibration under the same policy
    with run_errstate():
        return _calibration(sign_vec(m_next), grad, delta, epsilon)


def _calibration(sign_m: np.ndarray, grad: np.ndarray, delta, epsilon,
                 out=None):
    """lambda_project's ratio on rows, from sign(m), written into `out`
    where given. It overflows where its terms do, and the caller silences
    `over` and `invalid`."""
    denom = l2_norm_sq(grad) + epsilon
    proj = abs(inner(sign_m, grad))
    lam = np.divide(delta * proj, denom, out=out)
    if _may_be_infinite(denom, lam):
        # ||g||^2 overflowed where denom is inf (lam is then 0 or NaN),
        # delta * proj where lam is inf; the ratio may not have
        big = np.isinf(lam)
        lam[big] = _rows(delta, big) * (proj[big] / denom[big])
        big = np.isinf(denom)
        lam[big] = _rescaled_lambda(sign_m[big], grad[big], _rows(delta, big))
    return lam


def _may_be_infinite(denom: np.ndarray, lam: np.ndarray) -> bool:
    """True whenever a row of `denom` or `lam` is infinite, for entries
    that are each >= 0 or NaN, as the calibration's are: their inner
    product is then inf or NaN (an inf denom meets a lam of 0 or NaN,
    which gives NaN). It may also be true for a NaN row or a sum that
    overflows; the fix-up then changes no row. One numpy call, under the
    caller's silenced `over` and `invalid`. It is the one dot in the
    package that `core` does not take: its value is only compared with
    inf, so its bits reach no output."""
    return not np.vecdot(denom, lam) < math.inf


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
    return step(state, g, preset(OptimizerSpec(algorithm="sgd", lr=lr)))


def signsgd_step(state: OptimizerState, g: np.ndarray,
                 cfg: OptimizerSpec) -> OptimizerState:
    return step(state, g, preset(replace(cfg, algorithm="signsgd")))


def signsgdm_step(state: OptimizerState, g: np.ndarray,
                  cfg: OptimizerSpec) -> OptimizerState:
    return step(state, g, preset(replace(cfg, algorithm="signsgdm")))


def dithered_step(state: OptimizerState, g: np.ndarray,
                  cfg: OptimizerSpec, rng: RngStream) -> OptimizerState:
    return step(state, g, preset(replace(cfg, algorithm="dithered")), rng)


def hybrid_step(state: OptimizerState, g: np.ndarray,
                cfg: OptimizerSpec, rng: RngStream) -> OptimizerState:
    return step(state, g, preset(replace(cfg, algorithm="hybrid")), rng)
