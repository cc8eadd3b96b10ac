"""The Monte Carlo cells behind the Gauss-bound and dithered-sign checks
work inside their one draw buffer, and give bitwise the values of the
plain expressions they replace: `np.mean(S + noise <= 0)`, `np.where` for
the asymmetric-bimodal draw, and `np.sign(m + sigma * z)` with `.mean()`
and `.std(ddof=1)`. Those expressions are kept here as the reference."""

import math
import tracemalloc

import numpy as np
import pytest

from signopt.checks import DITHER_RATIO_GRID, MC_TRIALS, SNR_GRID
from signopt.core import RngStream
from signopt.dither import mc_dithered_sign
from signopt.problems import (BIMODAL_Q, NOISE_FAMILIES, NoiseSpec,
                              batch_noise, sample_unit_noise)
from signopt.theory import mc_sign_failure

TRIALS = (1, 2, 1000, 10**5)


def bits(*values) -> bytes:
    """The float64 bits of `values`, so that -0.0 and 0.0 differ."""
    return np.array(values, dtype=np.float64).tobytes()


def reference_unit_noise(family, size, rng):
    if family == "asymmetric-bimodal":
        q = BIMODAL_Q
        a = math.sqrt((1.0 - q) / q)
        b = math.sqrt(q / (1.0 - q))
        u = rng.uniform(0.0, 1.0, size)
        return np.where(u < q, a, -b)
    return sample_unit_noise(family, size, rng)


def reference_sign_failure(family, S, trials, rng):
    noisy = S + reference_unit_noise(family, trials, rng)
    p_hat = float(np.mean(noisy <= 0))
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / trials)


def reference_dithered_sign(m, sigma, trials, rng):
    if sigma == 0.0:
        return float(np.sign(m)), 0.0
    s = np.sign(m + sigma * rng.normal(trials))
    mean = float(s.mean())
    std_err = float(s.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, std_err


def assert_same_cell(cell, reference, seed):
    # the same values, and the stream left where the reference leaves it
    rng, ref_rng = RngStream(seed, 7), RngStream(seed, 7)
    assert bits(*cell(rng)) == bits(*reference(ref_rng))
    assert bits(*rng.normal(3)) == bits(*ref_rng.normal(3))


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("S", (0.0, *SNR_GRID, math.inf))
@pytest.mark.parametrize("family", NOISE_FAMILIES)
def test_sign_failure_is_bitwise_the_mean_of_the_noisy_sign(family, S,
                                                            trials):
    seed = 10 * NOISE_FAMILIES.index(family) + TRIALS.index(trials)
    assert_same_cell(
        lambda rng: mc_sign_failure(family, S, trials, rng),
        lambda rng: reference_sign_failure(family, S, trials, rng), seed)


@pytest.mark.parametrize("trials", TRIALS)
def test_bimodal_draw_is_bitwise_the_where(trials):
    for seed in range(3):
        got = sample_unit_noise("asymmetric-bimodal", trials,
                                RngStream(seed, 5))
        want = reference_unit_noise("asymmetric-bimodal", trials,
                                    RngStream(seed, 5))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_bimodal_batch_noise_is_bitwise_the_where():
    spec = NoiseSpec("asymmetric-bimodal", np.linspace(0.0, 3.0, 6))
    got = batch_noise(spec, 4, 250, RngStream(31, 2))
    unit = reference_unit_noise("asymmetric-bimodal", (250, 4, 6),
                                RngStream(31, 2))
    assert got.tobytes() == ((unit * spec.sigma).sum(axis=1) / 4).tobytes()


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("sigma", (0.0, 1.0))
@pytest.mark.parametrize("m", DITHER_RATIO_GRID)
def test_dithered_sign_is_bitwise_mean_and_std(m, sigma, trials):
    seed = 10 * DITHER_RATIO_GRID.index(m) + TRIALS.index(trials)
    assert_same_cell(
        lambda rng: mc_dithered_sign(m, sigma, trials, rng),
        lambda rng: reference_dithered_sign(m, sigma, trials, rng), seed)


CELLS = {
    **{family: lambda rng, f=family: mc_sign_failure(f, 0.5, MC_TRIALS, rng)
       for family in NOISE_FAMILIES},
    "dither": lambda rng: mc_dithered_sign(0.5, 1.0, MC_TRIALS, rng),
}


@pytest.mark.parametrize("name", CELLS)
def test_a_full_size_cell_holds_one_buffer(name):
    # MC_TRIALS float64 draws are 7.63 MiB, and a bool mask of them 0.95
    # MiB; a second float64 buffer would take the peak past 15 MiB. The
    # cell runs once untraced, so that one-time set-up is not counted.
    cell = CELLS[name]
    cell(RngStream(0, 1))
    tracemalloc.start()
    try:
        cell(RngStream(1, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9.5 * 2**20
