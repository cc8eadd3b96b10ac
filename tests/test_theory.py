import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from signopt.core import RngStream, sign_vec
from signopt.dither import normal_cdf
from signopt.theory import (GAUSS_SPLIT, SnrProfile, TheoremInputs,
                            expected_alignment_bound, gauss_bound,
                            mc_sign_failure, phi_measure,
                            sign_agreement_lower_bound, theorem_rhs_l1,
                            theorem_rhs_phi)


class TestPhiMeasure:
    def test_worked_value(self):
        p = SnrProfile([1.0, 0.1], [0.5, 0.5])
        assert phi_measure(p) == pytest.approx(1.02)

    def test_stationary_point(self):
        assert phi_measure(SnrProfile(np.zeros(3), np.ones(3))) == 0.0

    def test_noiseless_limit_is_l1(self):
        g = np.array([1.0, -2.0, 0.5])
        assert phi_measure(SnrProfile(g, np.zeros(3))) == 3.5

    def test_never_exceeds_l1(self):
        rng = RngStream(41, 0).generator
        for _ in range(200):
            g = rng.standard_normal(5)
            s = np.abs(rng.standard_normal(5))
            assert phi_measure(SnrProfile(g, s)) <= np.sum(np.abs(g)) + 1e-15

    def test_equals_l1_at_high_snr(self):
        g = np.array([2.0, -3.0])
        s = np.array([1.0, 2.0])  # SNR = 2 and 1.5, both >= 1
        assert phi_measure(SnrProfile(g, s)) == pytest.approx(5.0)

    def test_l1_decomposition(self):
        # |g_i| <= min(|g_i|, g_i^2/s_i) + s_i coordinate-wise
        rng = RngStream(42, 0).generator
        for _ in range(200):
            g = rng.standard_normal(4) * 10
            s = np.abs(rng.standard_normal(4)) + 1e-6
            assert np.sum(np.abs(g)) <= phi_measure(SnrProfile(g, s)) + np.sum(s) + 1e-12


    @given(rows=st.integers(1, 4), d=st.integers(1, 6),
           zeros=st.sampled_from(("none", "some", "all")),
           seed=st.integers(0, 2**32 - 1))
    def test_profile_reused_across_gradients(self, rows, d, zeros, seed):
        # a profile built once measures any gradient bitwise as a profile
        # built with it, and as the reference formula
        gen = RngStream(seed, 0).generator
        s = np.abs(gen.standard_normal(d)) + 0.1
        if zeros == "all":
            s[:] = 0.0
        elif zeros == "some":
            s[gen.random(d) < 0.5] = 0.0
        profile = SnrProfile(np.zeros(d), s)
        for g in (gen.standard_normal(d) * 3, gen.standard_normal((rows, d))):
            ag = np.abs(g)
            quad = np.divide(ag * ag, s, out=np.full_like(ag, np.inf),
                             where=s > 0)
            reference = np.sum(np.minimum(ag, quad), axis=-1)
            phi = phi_measure(profile, g)
            assert np.array_equal(phi, reference)
            assert np.array_equal(phi, phi_measure(SnrProfile(g, s)))


class TestGaussBound:
    def test_examples(self):
        assert gauss_bound(0.0) == 0.5
        assert gauss_bound(1.0) == pytest.approx(2.0 / 9.0)
        assert gauss_bound(0.5) == pytest.approx(0.5 - 0.5 / (2 * math.sqrt(3)))
        assert gauss_bound(0.5) == pytest.approx(0.35566, abs=5e-6)

    def test_branch_split_uses_central_branch_at_equality(self):
        S = GAUSS_SPLIT
        assert gauss_bound(S) == 0.5 - S / (2 * math.sqrt(3))

    def test_range(self):
        for S in np.linspace(0, 20, 500):
            assert 0.0 <= gauss_bound(float(S)) <= 0.5


class TestSignAgreementBound:
    def test_examples(self):
        assert sign_agreement_lower_bound(0.0) == 0.0
        assert sign_agreement_lower_bound(1.0) == pytest.approx(1.0 / 3.0)
        assert sign_agreement_lower_bound(0.5) == pytest.approx(1.0 / 6.0)

    def test_relaxation_vs_gauss_bound(self):
        assert 1 - 2 * gauss_bound(1.0) == pytest.approx(5.0 / 9.0)
        assert 1 - 2 * gauss_bound(0.5) == pytest.approx(0.28868, abs=5e-6)
        for S in [0.001 * j for j in range(1, 10001)]:
            assert 1 - 2 * gauss_bound(S) >= sign_agreement_lower_bound(S)


class TestAlignmentBound:
    def test_examples(self):
        assert expected_alignment_bound(SnrProfile(np.zeros(2), np.ones(2))) == 0.0
        p = SnrProfile([1.0, 0.1], [0.5, 0.5])
        assert expected_alignment_bound(p) == pytest.approx(0.34)

    def test_single_coordinate_gaussian(self):
        # exact alignment 1 - 2*Phi(-1) for unit SNR Gaussian noise
        exact = 1.0 - 2.0 * normal_cdf(-1.0)
        assert exact == pytest.approx(0.6827, abs=5e-5)
        assert exact >= expected_alignment_bound(SnrProfile([1.0], [1.0]))

    def test_mc_alignment_respects_bound(self):
        rng = RngStream(43, 0)
        gen = rng.generator
        trials = 20000
        for case in range(5):
            d = int(gen.integers(1, 5))
            g = gen.standard_normal(d)
            s = np.abs(gen.standard_normal(d)) + 0.1
            noise = rng.derive(case).normal((trials, d)) * s
            align = (np.sign(g + noise) * g).sum(axis=1)
            se = align.std(ddof=1) / math.sqrt(trials)
            bound = expected_alignment_bound(SnrProfile(g, s))
            assert align.mean() >= bound - 4.0 * se


class TestTheoremRhs:
    def test_phi_example(self):
        t = TheoremInputs(4.0, 0.0, 1.0, 0.0, 100, 1)
        assert theorem_rhs_phi(t) == pytest.approx(0.9)

    def test_quarter_k_scaling(self):
        t1 = TheoremInputs(4.0, 0.0, 1.0, 0.0, 100, 1)
        t4 = TheoremInputs(4.0, 0.0, 1.0, 0.0, 400, 1)
        assert theorem_rhs_phi(t4) == pytest.approx(theorem_rhs_phi(t1) / 2)

    def test_start_at_optimum_stays_positive(self):
        t = TheoremInputs(4.0, 0.0, 2.0, 2.0, 100, 1)
        assert theorem_rhs_phi(t) == pytest.approx(3 * 2 / 10 * 0.5)

    def test_l1_examples(self):
        t0 = TheoremInputs(4.0, 0.0, 1.0, 0.0, 100, 1)
        assert theorem_rhs_l1(t0) == theorem_rhs_phi(t0)
        t = TheoremInputs(4.0, 2.0, 1.0, 0.0, 100, 4)
        assert theorem_rhs_l1(t) == pytest.approx(theorem_rhs_phi(t) + 1.0)

    def test_large_batch_floor_vanishes(self):
        t = TheoremInputs(4.0, 2.0, 1.0, 0.0, 100, 10**12)
        assert theorem_rhs_l1(t) - theorem_rhs_phi(t) < 1e-5

    def test_validation(self):
        with pytest.raises(ValueError):
            TheoremInputs(0.0, 0.0, 1.0, 0.0, 100, 1)
        with pytest.raises(ValueError):
            TheoremInputs(1.0, 0.0, -1.0, 0.0, 100, 1)


class TestMcSignFailure:
    def test_gaussian_matches_cdf(self):
        p_hat, se = mc_sign_failure("gaussian", 1.0, 10**6, RngStream(44, 0))
        assert abs(p_hat - normal_cdf(-1.0)) <= 3.0 * se

    def test_zero_snr_is_coin_flip(self):
        for family in ("gaussian", "uniform", "laplace"):
            p_hat, se = mc_sign_failure(family, 0.0, 10**5, RngStream(45, 1))
            assert abs(p_hat - 0.5) <= 3.0 * se

    def test_respects_gauss_bound_at_two(self):
        p_hat, _ = mc_sign_failure("gaussian", 2.0, 10**6, RngStream(46, 2))
        assert p_hat == pytest.approx(0.02275, abs=0.001)
        assert p_hat <= gauss_bound(2.0)
        assert gauss_bound(2.0) == pytest.approx(1.0 / 18.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            mc_sign_failure("cauchy", 1.0, 100, RngStream(0, 0))
