"""Synthetic objectives with exact gradients, known smoothness constants and
controllable stochastic-gradient noise.

Noise is injected additively onto the exact gradient for every problem, so
the per-coordinate oracle scale sigma_i (and hence the batch-n standard
deviation sigma_i/sqrt(n)) is exactly known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (RngStream, STREAM_DATA, as_vector, is_count, l2_norm_sq,
                   per_row)

NOISE_FAMILIES = ("gaussian", "uniform", "laplace", "asymmetric-bimodal")

# Asymmetric two-point mixture: +a with prob q, -b with prob 1-q, chosen so
# the mean is zero and the variance is 1. q = 0.1 gives a = 3, b = 1/3.
BIMODAL_Q = 0.1

# Weight of the logistic problem's L2 penalty (reg/2) * ||x||^2.
LOGISTIC_REG = 1e-2


@dataclass(frozen=True)
class NoiseSpec:
    family: str
    sigma: np.ndarray  # per-coordinate oracle std, finite and >= 0

    def __post_init__(self):
        if self.family not in NOISE_FAMILIES:
            raise ValueError(f"unknown noise family: {self.family!r}")
        object.__setattr__(self, "sigma", as_vector(self.sigma))
        if not np.all((self.sigma >= 0) & (self.sigma < math.inf)):
            raise ValueError("noise scales must be finite and >= 0")


@dataclass(frozen=True)
class Problem:
    """An objective and its oracles. `eval_fg(x)` returns `(f, grad)` from
    one forward pass, bitwise `(eval_f(x), eval_grad(x))`; the run loop
    calls it alone, and `eval_f`/`eval_grad` serve callers that need one
    of the two. Every oracle takes one point, or an (S, d) array of S
    points and returns one f and one gradient per row, each bitwise that
    of its row alone."""
    dim: int
    eval_f: Callable[[np.ndarray], float]
    eval_grad: Callable[[np.ndarray], np.ndarray]
    eval_fg: Callable[[np.ndarray], tuple]
    lipschitz: np.ndarray  # per-coordinate L_i
    f_star: float
    noise: NoiseSpec


def _problem(eval_fg, **fields) -> Problem:
    """A Problem whose eval_f and eval_grad are the halves of eval_fg."""
    return Problem(eval_f=lambda x: eval_fg(x)[0],
                   eval_grad=lambda x: eval_fg(x)[1], eval_fg=eval_fg,
                   **fields)


@dataclass(frozen=True)
class GradSample:
    grad: np.ndarray
    batch_size: int
    coord_std: np.ndarray  # sigma_i / sqrt(n)


def sample_unit_noise(family: str, size, rng: RngStream) -> np.ndarray:
    """Zero-mean, unit-variance draws from the named family, returned in
    the float64 buffer the generator fills: the asymmetric-bimodal draw
    overwrites its uniform draw with its two values, through a
    one-byte-per-draw mask."""
    if family == "gaussian":
        return rng.normal(size)
    if family == "uniform":
        return rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size)
    if family == "laplace":
        return rng.laplace(1.0 / math.sqrt(2.0), size)
    if family == "asymmetric-bimodal":
        q = BIMODAL_Q
        a = math.sqrt((1.0 - q) / q)
        b = math.sqrt(q / (1.0 - q))
        # a size of None draws a float; as a 0-d array it takes the fill
        u = np.asarray(rng.uniform(0.0, 1.0, size))
        low = u < q
        u.fill(-b)
        u[low] = a
        return u
    raise ValueError(f"unknown noise family: {family!r}")


def batch_noise(spec: NoiseSpec, n: int, steps: int, rng: RngStream) -> np.ndarray:
    """The noise of `steps` successive batch-n gradients, shape (steps, dim),
    in one draw: row i is bitwise the noise the i-th of `steps` calls of
    `stochastic_grad` on the same stream adds."""
    if not is_count(n):
        raise ValueError("batch size must be an integer >= 1")
    unit = sample_unit_noise(spec.family, (steps, n, spec.sigma.size), rng)
    # scaled before the mean; sum / n is numpy's mean without its wrapper
    return (unit * spec.sigma).sum(axis=1) / n


def stochastic_grad(p: Problem, x: np.ndarray, n: int, rng: RngStream) -> GradSample:
    """Mini-batch gradient: exact gradient plus the mean of n oracle-noise
    draws, so Var = sigma_i^2 / n exactly for unit-variance families."""
    if not is_count(n):
        raise ValueError("batch size must be an integer >= 1")
    g = p.eval_grad(x)
    if np.any(p.noise.sigma > 0):
        g = g + batch_noise(p.noise, n, 1, rng)[0]
    return GradSample(grad=g, batch_size=n, coord_std=p.noise.sigma / math.sqrt(n))


def _log_loss(neg_y: np.ndarray, z: np.ndarray):
    """The log-loss head that the logistic and MLP oracles share. At the
    margins z = -y * logit it returns the mean over the last axis of
    log(1 + e^z), computed stably, and the residual -y * sigmoid(z),
    written over z as -y / (1 + e^-z): with y = +-1 that is bitwise
    -y * (1 / (1 + e^-z))."""
    # a mean is a sum / n, the bits of np.mean
    loss = np.add.reduce(np.logaddexp(0.0, z), axis=-1) / z.shape[-1]
    r = np.exp(np.negative(z, out=z), out=z)
    r += 1.0
    return loss, np.divide(neg_y, r, out=r)


def make_quadratic(lipschitz, x_opt, noise: NoiseSpec) -> Problem:
    """Separable quadratic f(x) = 1/2 sum_i L_i (x_i - x*_i)^2.

    The coordinate Lipschitz vector of this f is exactly `lipschitz` and
    f_star = 0, which makes it the sharpest substrate for rate checks.
    L and x* are resolved to vectors once; the oracle sums with
    `np.add.reduce`, the reduce `ndarray.sum` runs behind a wrapper.
    """
    L = as_vector(lipschitz)
    x_opt = as_vector(x_opt)
    if not (L.size and np.all((L >= 0) & (L < math.inf))):
        raise ValueError("Lipschitz constants must be a nonempty vector, "
                         "finite and >= 0")
    if not np.isfinite(x_opt).all():
        raise ValueError("x_opt must be finite")
    if L.shape != x_opt.shape:
        raise ValueError("lipschitz and x_opt dimension mismatch")

    def eval_fg(x):
        d = x - x_opt
        grad = L * d
        return per_row(0.5 * np.add.reduce(grad * d, axis=-1)), grad

    return _problem(eval_fg, dim=L.size, lipschitz=L, f_star=0.0, noise=noise)


def make_logistic(dataset_seed: int, dim: int, n_points: int,
                  noise: NoiseSpec) -> Problem:
    """L2-regularized logistic loss on a synthetic near-separable dataset.

    Per-coordinate curvature of the log-loss term is at most
    (1/4) mean_j a_{j,i}^2, so L_i = (1/4) mean_j a_{j,i}^2 + reg is a valid
    coordinate Lipschitz bound; f_star = 0 is a valid lower bound because
    both loss terms are nonnegative.

    The oracle resolves `-y` and `A.T` once, and hands each call's fresh
    margins to `_log_loss`, the log-loss head it shares with `make_mlp`,
    which turns them into the residual in place. Its two GEMVs keep the
    operand shapes and layout of `A @ x` and `A.T @ r` run per row, since
    BLAS picks its kernel, and so the bits, by those.
    """
    if not (is_count(dim) and is_count(n_points)):
        raise ValueError("dim and n_points must be integers >= 1")
    data_rng = RngStream(dataset_seed, STREAM_DATA)
    w_true = data_rng.normal(dim)
    w_true /= np.linalg.norm(w_true)
    A = data_rng.normal((n_points, dim))
    margins = A @ w_true + 0.1 * data_rng.normal(n_points)
    y = np.where(margins >= 0, 1.0, -1.0)

    reg = LOGISTIC_REG
    L = 0.25 * np.mean(A * A, axis=0) + reg
    neg_y, A_T, half_reg = -y, A.T, 0.5 * reg

    def eval_fg(x):
        loss, r = _log_loss(neg_y, neg_y * np.matvec(A, x))
        grad = np.matvec(A_T, r)
        grad /= n_points
        grad += reg * x
        return per_row(loss + half_reg * l2_norm_sq(x)), grad

    return _problem(eval_fg, dim=dim, lipschitz=L, f_star=0.0, noise=noise)


def _layout(layer_widths: Sequence[int]):
    """(slice, shape) of each weight and bias in the MLP's flat parameter
    vector, layer by layer."""
    pos = 0
    for fan_in, fan_out in zip(layer_widths[:-1], layer_widths[1:]):
        for shape in ((fan_out, fan_in), (fan_out,)):  # weight, bias
            size = math.prod(shape)
            yield slice(pos, pos + size), shape
            pos += size


MLP_WEIGHT_BOUND = 4.0  # B, the assumed bound on the MLP's weights


def mlp_depth_factor(n_layers: int) -> float:
    """B^(2 (n_layers - 1)), the growth of the MLP's curvature estimate
    with depth; OverflowError past about 256 layers."""
    return MLP_WEIGHT_BOUND ** (2 * (n_layers - 1))


def mlp_n_params(layer_widths: Sequence[int]) -> int:
    """Length of the MLP's flat parameter vector: its weights and biases.
    It states the MLP's width and depth rule: `ValueError` unless there is
    a hidden layer, every width is an integer >= 1, the output width is 1
    and `mlp_depth_factor` of the depth does not overflow."""
    n_layers = len(layer_widths) - 1
    if not (n_layers >= 2 and all(map(is_count, layer_widths))):
        raise ValueError("need at least one hidden layer, and every width "
                         "an integer >= 1")
    if layer_widths[-1] != 1:
        raise ValueError("output layer width must be 1 (scalar logit)")
    try:
        mlp_depth_factor(n_layers)
    except OverflowError:
        raise ValueError(f"{n_layers} layers overflow the MLP's curvature "
                         f"estimate") from None
    return max(sl.stop for sl, _ in _layout(layer_widths))


def make_mlp(dataset_seed: int, layer_widths: Sequence[int], noise: NoiseSpec,
             n_points: int = 64) -> Problem:
    """Two-class cross-entropy over a tanh MLP on a synthetic two-cluster
    dataset, with gradients via manual backpropagation.

    layer_widths lists every layer size including the input and the scalar
    logit output, e.g. (2, 8, 1). The Lipschitz vector is a coarse
    trust-region estimate (curvature of the logistic head times a bound on
    squared activation magnitudes, assuming weights stay within +-B); it is
    deliberately conservative and is never used for rate verification.

    The oracle resolves the parameter layout, `X.T` and `-y` once. Per call
    it applies tanh in place on each fresh pre-activation, takes the loss
    and the logits' residual from `_log_loss`, the log-loss head it shares
    with `make_logistic`, and writes every gradient block into one
    preallocated (..., dim) array. Each matmul
    keeps the operand shapes and layout of the plain backpropagation, and
    writes a fresh result rather than a strided `out=`, since numpy and
    BLAS pick their kernel, and so the bits, by those.
    """
    widths = list(layer_widths)
    dim = mlp_n_params(widths)  # checks the widths before any draw
    if not is_count(n_points):
        raise ValueError("n_points must be an integer >= 1")

    data_rng = RngStream(dataset_seed, STREAM_DATA)
    d_in = widths[0]
    half = n_points // 2
    mu = np.full(d_in, 1.5)
    X = np.vstack([
        mu + data_rng.normal((half, d_in)),
        -mu + data_rng.normal((n_points - half, d_in)),
    ])
    y = np.concatenate([np.ones(half), -np.ones(n_points - half)])

    n_layers = len(widths) - 1
    # per layer: the weight's slice and shape, and the bias's slice
    layout = list(_layout(widths))
    layers = [(w_sl, w_shape, b_sl)
              for (w_sl, w_shape), (b_sl, _) in zip(layout[::2], layout[1::2])]
    X_T, neg_y = X.T, -y  # X_T is (width, n_points), column-per-sample

    def eval_fg(x):
        lead = x.shape[:-1]  # the row axes, carried by every array below
        Ws = [x[..., w_sl].reshape(lead + w_shape)
              for w_sl, w_shape, _ in layers]
        acts = [X_T]
        for l, (_, _, b_sl) in enumerate(layers):
            pre = Ws[l] @ acts[-1]
            pre += x[..., b_sl, None]
            acts.append(pre if l == n_layers - 1 else np.tanh(pre, out=pre))
        loss, dlogit = _log_loss(neg_y, neg_y * acts[-1][..., 0, :])
        dlogit /= n_points  # d loss / d logit, averaged over samples
        delta = dlogit[..., None, :]
        grad = np.empty(lead + (dim,))
        for l in range(n_layers - 1, -1, -1):
            w_sl, _, b_sl = layers[l]
            grad[..., w_sl] = (delta @ acts[l].swapaxes(-1, -2)).reshape(
                lead + (-1,))
            grad[..., b_sl] = np.add.reduce(delta, axis=-1)
            if l > 0:
                slope = acts[l] * acts[l]
                np.subtract(1.0, slope, out=slope)
                delta = Ws[l].swapaxes(-1, -2) @ delta
                delta *= slope
        return per_row(loss), grad

    # Coarse curvature bound: logistic head curvature 1/4, activations
    # bounded by max(|X|, 1) through tanh, weights assumed within +-B.
    act_bound = max(1.0, float(np.max(np.abs(X))))
    L_scalar = 0.25 * (act_bound ** 2) * mlp_depth_factor(n_layers)
    L = np.full(dim, L_scalar)

    return _problem(eval_fg, dim=dim, lipschitz=L, f_star=0.0, noise=noise)
