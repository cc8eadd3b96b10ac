import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from signopt.config import OptimizerSpec as OptimizerConfig
from signopt.core import RngStream
from signopt.dither import (correct_sign_prob, expected_dithered_sign,
                            mc_dithered_sign, normal_cdf)
from signopt.optimizers import dither_sigma_sq

PHI_1 = 0.8413447460685429  # standard normal CDF at 1


class TestSchedule:
    def test_starts_at_alpha(self):
        assert dither_sigma_sq(0, OptimizerConfig(alpha=0.3)) == 0.3

    def test_direct_value(self):
        got = dither_sigma_sq(1, OptimizerConfig(alpha=0.1, gamma=0.55))
        assert got == pytest.approx(0.1 * 2.0 ** -0.55)
        assert got == pytest.approx(0.0683020128, abs=1e-9)

    def test_strictly_decreasing(self):
        s = OptimizerConfig(alpha=0.5, gamma=0.55)
        vals = [dither_sigma_sq(k, s) for k in range(200)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(alpha=-0.1)
        with pytest.raises(ValueError):
            OptimizerConfig(alpha=0.1, gamma=0.0)
        with pytest.raises(ValueError):
            dither_sigma_sq(-1, OptimizerConfig(alpha=0.1))

    @pytest.mark.parametrize("alpha, gamma", [(0.1, 0.55), (0.5, 1.0),
                                              (1.0, 0.3), (1e-300, 7.25),
                                              (3.7e8, 0.999)])
    def test_steps_array_is_bitwise_each_step(self, alpha, gamma):
        """A record's steps in one call hold every step's own bits."""
        cfg = OptimizerConfig(alpha=alpha, gamma=gamma)
        ks = np.arange(10**4 + 1, dtype=np.int64)
        want = np.array([dither_sigma_sq(k, cfg) for k in range(10**4 + 1)])
        got = dither_sigma_sq(ks, cfg)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert dither_sigma_sq(ks[7::97], cfg).tobytes() == (
            want[7::97].tobytes())
        assert dither_sigma_sq(ks[:0], cfg).shape == (0,)

    @pytest.mark.parametrize("ks", [np.array([0, -1]), np.array([1.0, 2.0]),
                                    np.array([[0, 1]]),
                                    np.array([0, 1], np.int32)])
    def test_steps_array_validation(self, ks):
        with pytest.raises(ValueError):
            dither_sigma_sq(ks, OptimizerConfig(alpha=0.1))


class TestCorrectSignProb:
    def test_zero_signal(self):
        assert correct_sign_prob(0.0, 1.0) == 0.5

    def test_unit_ratio(self):
        assert correct_sign_prob(1.0, 1.0) == pytest.approx(PHI_1, abs=1e-10)
        assert correct_sign_prob(-1.0, 1.0) == pytest.approx(PHI_1, abs=1e-10)

    def test_deterministic_limit(self):
        assert correct_sign_prob(0.5, 0.0) == 1.0
        assert correct_sign_prob(-3.0, 0.0) == 1.0

    def test_undefined_at_origin(self):
        with pytest.raises(ValueError):
            correct_sign_prob(0.0, 0.0)


class TestExpectedDitheredSign:
    def test_symmetry_point(self):
        assert expected_dithered_sign(0.0, 1.0) == 0.0

    def test_unit_ratio(self):
        assert expected_dithered_sign(1.0, 1.0) == pytest.approx(
            2.0 * PHI_1 - 1.0, abs=1e-10)

    def test_sigma_zero_recovers_sign(self):
        assert expected_dithered_sign(0.7, 0.0) == 1.0
        assert expected_dithered_sign(-0.7, 0.0) == -1.0
        assert expected_dithered_sign(0.0, 0.0) == 0.0

    def test_first_order_expansion(self):
        got = expected_dithered_sign(0.01, 1.0)
        linear = 0.01 * math.sqrt(2.0 / math.pi)
        assert abs(got - linear) / got <= 1e-4
        assert linear == pytest.approx(0.0079788, abs=1e-7)

    @given(st.floats(min_value=-50, max_value=50),
           st.floats(min_value=1e-6, max_value=1e3))
    def test_odd_and_bounded(self, m, sigma):
        v = expected_dithered_sign(m, sigma)
        assert -1.0 <= v <= 1.0
        assert expected_dithered_sign(-m, sigma) == -v

    def test_monotone_in_signal(self):
        vals = [expected_dithered_sign(m, 0.7)
                for m in [-2 + 0.1 * j for j in range(41)]]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_magnitude_restoration_regime(self):
        # small |m|/sigma: mean output proportional to m, not sign(m).
        # The cubic remainder sqrt(2/pi) x^3/6 stays under 1e-3 * x only
        # for x <= 0.0867, so the grid stops at 0.08.
        for ratio in (0.001, 0.01, 0.05, 0.08, -0.08, -0.01):
            got = expected_dithered_sign(ratio, 1.0)
            linear = ratio * math.sqrt(2.0 / math.pi)
            assert abs(got - linear) <= 1e-3 * abs(ratio)


class TestMonteCarlo:
    def test_degenerate_sigma(self):
        mean, se = mc_dithered_sign(0.4, 0.0, 100, RngStream(0, 0))
        assert (mean, se) == (1.0, 0.0)

    def test_agrees_with_analytic(self):
        mean, se = mc_dithered_sign(1.0, 1.0, 10**6, RngStream(77, 1))
        assert abs(mean - (2.0 * PHI_1 - 1.0)) <= 3.0 * se

    def test_oddness_via_mc(self):
        mean, se = mc_dithered_sign(-1.0, 1.0, 10**6, RngStream(77, 2))
        assert abs(mean + (2.0 * PHI_1 - 1.0)) <= 3.0 * se

    @pytest.mark.parametrize("ratio", [0.0, 0.1, -0.1, 0.5, -0.5,
                                       1.0, -1.0, 2.0, -2.0])
    def test_grid_agreement(self, ratio):
        mean, se = mc_dithered_sign(ratio, 1.0, 10**5,
                                    RngStream(78, abs(hash(ratio)) % 2**63))
        assert abs(mean - expected_dithered_sign(ratio, 1.0)) <= 4.0 * se


def test_normal_cdf_reference_values():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(1.0) == pytest.approx(PHI_1, abs=1e-12)
    assert normal_cdf(-1.0) == pytest.approx(1.0 - PHI_1, abs=1e-12)
    assert normal_cdf(6.0) == pytest.approx(1.0, abs=1e-9)
