"""Annealed dither schedule and the analytic statistics of a dithered sign.

Adding N(0, sigma^2) noise to a scalar m before taking its sign yields a
random +-1 whose mean is 2*Phi(m/sigma) - 1, approximately
m*sqrt(2/pi)/sigma for |m| << sigma: the average quantizer output becomes
proportional to the magnitude the hard sign discards.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .core import RngStream, is_count

if TYPE_CHECKING:
    from .config import OptimizerSpec
    from .optimizers import StepParams

DEFAULT_GAMMA = 0.55


def dither_sigma_sq(k: int, cfg: OptimizerSpec | StepParams):
    """Annealed dither variance alpha * (1+k)^(-gamma) at step k, with
    alpha and gamma from the (validated) optimizer config or from step
    parameters, where either may be one value per row."""
    if not is_count(k, 0):  # NaN and 2.5 are not steps
        raise ValueError("step must be an integer >= 0")
    if isinstance(cfg.gamma, np.ndarray):
        # Python's pow for each row, as for the row alone: numpy's power
        # may differ from it in the last bit
        return cfg.alpha * np.array([(1.0 + k) ** (-g)
                                     for g in cfg.gamma.tolist()])
    return cfg.alpha * (1.0 + k) ** (-cfg.gamma)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc; accurate to full double precision."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def correct_sign_prob(m: float, sigma: float) -> float:
    """Probability that sign(m + xi) matches sign(m), xi ~ N(0, sigma^2)."""
    if not sigma >= 0:  # written so that NaN fails
        raise ValueError("sigma must be >= 0")
    if sigma == 0.0:
        if m == 0.0:
            raise ValueError("sign undefined at m = 0 with sigma = 0")
        return 1.0
    return normal_cdf(abs(m) / sigma)


def expected_dithered_sign(m: float, sigma: float) -> float:
    """E[sign(m + xi)] = 2*Phi(m/sigma) - 1; the deterministic sign(m) in
    the sigma -> 0 limit."""
    if not sigma >= 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0.0:
        return float(np.sign(m))
    # erf form: exactly odd in m and accurate near zero
    return math.erf(m / (sigma * math.sqrt(2.0)))


def mc_dithered_sign(m: float, sigma: float, trials: int, rng: RngStream):
    """Monte Carlo estimate (mean, std_err) of E[sign(m + xi)]."""
    if not sigma >= 0:
        raise ValueError("sigma must be >= 0")
    if not is_count(trials):
        raise ValueError("trials must be an integer >= 1")
    if sigma == 0.0:
        return float(np.sign(m)), 0.0
    s = np.sign(m + sigma * rng.normal(trials))
    mean = float(s.mean())
    std_err = float(s.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, std_err
