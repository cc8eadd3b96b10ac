"""The analytic statistics of a dithered sign.

Adding N(0, sigma^2) noise to a scalar m before taking its sign yields a
random +-1 whose mean is 2*Phi(m/sigma) - 1, approximately
m*sqrt(2/pi)/sigma for |m| << sigma: the average quantizer output becomes
proportional to the magnitude the hard sign discards. These statistics
are what the battery and the tests check a dithered step against; the
annealed variance schedule the step rule draws with is
`optimizers.dither_sigma_sq`.
"""

from __future__ import annotations

import math

import numpy as np

from .core import RngStream, is_count


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
