"""Closed-form rate quantities for sign-based SGD under unimodal symmetric
noise, plus Monte Carlo verifiers for the underlying inequalities.

The central object is the SNR-weighted stationarity measure
    Phi = sum_i min(|g_i|, g_i^2 / s_i),
which equals the l1 gradient norm on high-SNR coordinates and discounts
noise-dominated ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RngStream, as_vector, is_count, per_row
from .problems import sample_unit_noise

# Split point between the tail and central branches of the unimodal
# symmetric sign-failure bound.
GAUSS_SPLIT = math.sqrt(2.0 / 3.0)


@dataclass(frozen=True)
class SnrProfile:
    g: np.ndarray  # true gradient, or an (S, d) array of S gradients
    s: np.ndarray  # per-coordinate noise std of the batch gradient

    def __post_init__(self):
        object.__setattr__(self, "g", np.asarray(self.g, dtype=np.float64))
        object.__setattr__(self, "s", as_vector(self.s))
        if self.g.ndim not in (1, 2) or self.g.shape[-1:] != self.s.shape:
            raise ValueError("gradient / noise dimension mismatch")
        if not np.all(self.s >= 0):  # written so that NaN fails
            raise ValueError("noise scales must be >= 0")


@dataclass(frozen=True)
class TheoremInputs:
    """The inputs of the rate bounds. Every value must be finite, since an
    infinite one makes a bound every average meets; each check is written
    so that NaN fails it."""

    l1_lipschitz: float  # sum_i L_i
    l1_sigma: float      # sum_i sigma_i
    f0: float
    f_star: float
    K: int
    n: int

    def __post_init__(self):
        if not 0 < self.l1_lipschitz < math.inf:
            raise ValueError("l1_lipschitz must be finite and > 0")
        if not 0 <= self.l1_sigma < math.inf:
            raise ValueError("l1_sigma must be finite and >= 0")
        if not (is_count(self.K) and is_count(self.n)):
            raise ValueError("K and n must be integers >= 1")
        if not math.inf > self.f0 >= self.f_star > -math.inf:
            raise ValueError("f0 and f_star must be finite, f0 >= f_star")


def phi_measure(p: SnrProfile, g: np.ndarray | None = None):
    """sum_i min(|g_i|, g_i^2/s_i); s_i = 0 coordinates contribute |g_i|
    (the infinite-SNR limit). One value per row of an (S, d) gradient.

    `g`, when given, replaces `p.g`: a run builds its profile once and
    measures each step's gradient against it. It must be a float64 array
    of `p`'s dimension."""
    ag = np.abs(p.g if g is None else g)
    quad = np.divide(ag * ag, p.s, out=np.full_like(ag, np.inf),
                     where=p.s > 0)
    return per_row(np.minimum(ag, quad).sum(axis=-1))


def gauss_bound(S: float) -> float:
    """Upper bound on the sign-failure probability at SNR S for zero-mean
    unimodal symmetric noise: 2/(9 S^2) beyond the split point, the linear
    ramp 1/2 - S/(2 sqrt(3)) below it."""
    if not S >= 0:
        raise ValueError("S must be >= 0")
    if S > GAUSS_SPLIT:
        return 2.0 / (9.0 * S * S)
    return 0.5 - S / (2.0 * math.sqrt(3.0))


def sign_agreement_lower_bound(S: float) -> float:
    """(1/3) min(1, S), a valid lower bound on 1 - 2p in both branches of
    gauss_bound."""
    if not S >= 0:
        raise ValueError("S must be >= 0")
    return min(1.0, S) / 3.0


def expected_alignment_bound(p: SnrProfile) -> float:
    """Lower bound Phi/3 on E[<g, sign(g_noisy)>] under unimodal symmetric
    noise."""
    return phi_measure(p) / 3.0


def theorem_rhs_phi(t: TheoremInputs) -> float:
    """Rate bound on the K-step average of Phi with stepsize
    1/sqrt(l1_lipschitz * K)."""
    return 3.0 * math.sqrt(t.l1_lipschitz / t.K) * (t.f0 - t.f_star + 0.5)


def theorem_rhs_l1(t: TheoremInputs) -> float:
    """Rate bound on the K-step average l1 gradient norm: the Phi bound
    plus the small-batch noise floor l1_sigma / sqrt(n)."""
    return theorem_rhs_phi(t) + t.l1_sigma / math.sqrt(t.n)


def mc_sign_failure(family: str, S: float, trials: int, rng: RngStream):
    """Empirical sign-failure rate (p_hat, std_err) for a coordinate with
    SNR S under unit-variance noise from the named family.

    A zero noisy gradient counts as a failure, so p_hat is upper-biased and
    bound-validity checks against it remain sound.

    The cell holds its `trials` draws (8 bytes each) and one `trials`-byte
    mask, and never forms the noisy gradient: the sum of two finite doubles
    rounds to <= 0 exactly when `noise <= -S`, and a count over `trials`
    is the bits of the mean of that mask, so p_hat is bitwise
    `np.mean(S + noise <= 0)`.
    """
    if not (S >= 0 and is_count(trials)):
        raise ValueError("need S >= 0 and an integer trials >= 1")
    noise = sample_unit_noise(family, trials, rng)
    p_hat = float(np.count_nonzero(noise <= -S) / trials)
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return p_hat, std_err
