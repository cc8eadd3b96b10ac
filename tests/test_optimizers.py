import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from signopt.core import RngStream, sign_vec
from signopt.dither import normal_cdf
from signopt.optimizers import (OptimizerConfig, OptimizerState,
                                dithered_step, hybrid_step, init_state,
                                lambda_project, sgd_step, signsgd_step,
                                signsgdm_step)
from signopt.problems import GradSample


def gs(values, n=1):
    arr = np.asarray(values, dtype=np.float64)
    return GradSample(grad=arr, batch_size=n, coord_std=np.zeros_like(arr))


class TestSgdStep:
    def test_hand_value(self):
        state = init_state(np.array([1.0, 1.0]))
        new = sgd_step(state, gs([2.0, -2.0]), 0.5)
        assert np.array_equal(new.x, [0.0, 2.0])
        assert new.k == 1
        assert np.array_equal(new.m, state.m)
        assert new.lambda_ema == state.lambda_ema

    def test_zero_lr_and_zero_grad(self):
        state = init_state(np.array([1.0]))
        assert np.array_equal(sgd_step(state, gs([5.0]), 0.0).x, [1.0])
        assert np.array_equal(sgd_step(state, gs([0.0]), 0.7).x, [1.0])


class TestSignSgdStep:
    def test_hand_value(self):
        state = init_state(np.zeros(2))
        cfg = OptimizerConfig(delta=0.1)
        new = signsgd_step(state, gs([3.0, -2.0]), cfg)
        assert np.array_equal(new.x, [-0.1, 0.1])

    def test_zero_gradient_is_a_no_op(self):
        state = init_state(np.array([2.0]))
        new = signsgd_step(state, gs([0.0]), OptimizerConfig(delta=0.1))
        assert np.array_equal(new.x, [2.0])

    def test_one_bit_steps(self):
        rng = RngStream(1, 0).generator
        cfg = OptimizerConfig(delta=0.25)
        # start on the quarter-grid so +-0.25 steps stay exact in binary
        state = init_state(np.round(rng.standard_normal(6) * 4) / 4)
        for _ in range(50):
            new = signsgd_step(state, gs(rng.standard_normal(6)), cfg)
            assert np.all(np.isin(np.abs(new.x - state.x), (0.0, 0.25)))
            state = new


class TestSignSgdmStep:
    def test_first_step(self):
        cfg = OptimizerConfig(delta=0.1, beta=0.9)
        state = init_state(np.zeros(2))
        new = signsgdm_step(state, gs([1.0, -1.0]), cfg)
        assert np.allclose(new.m, [0.1, -0.1])
        assert np.array_equal(new.x, [-0.1, 0.1])

    def test_momentum_converges_to_constant_gradient(self):
        cfg = OptimizerConfig(delta=0.01, beta=0.9)
        state = init_state(np.zeros(1))
        for _ in range(500):
            state = signsgdm_step(state, gs([3.0]), cfg)
        assert state.m[0] == pytest.approx(3.0, rel=1e-10)

    def test_matches_dithered_with_zero_alpha(self):
        cfg = OptimizerConfig(delta=0.05, beta=0.8, alpha=0.0,
                              dither_mode="pre")
        rng_grad = RngStream(5, 0)
        a = init_state(np.ones(3))
        b = init_state(np.ones(3))
        dither_rng = RngStream(5, 1)
        for _ in range(100):
            g = gs(rng_grad.normal(3))
            a = signsgdm_step(a, g, cfg)
            b = dithered_step(b, g, cfg, dither_rng)
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.m, b.m)

    @pytest.mark.parametrize("mode", ["pre", "post"])
    def test_step_reports_lambda_without_tracking_ema(self, mode):
        # signsgdm and dithered compute the calibration scalar from the
        # just-updated momentum but never fold it into the EMA
        cfg = OptimizerConfig(delta=0.1, beta=0.8, alpha=0.1,
                              dither_mode=mode)
        state = init_state(np.ones(3), lambda_ema=0.3)
        g = gs([2.0, -1.0, 0.5])
        for new in (signsgdm_step(state, g, cfg),
                    dithered_step(state, g, cfg, RngStream(4, 0))):
            assert new.last_lambda == lambda_project(new.m, g.grad, 0.1,
                                                     cfg.epsilon)
            assert new.last_lambda > 0.0
            assert new.lambda_ema == 0.3


class TestDitheredStep:
    def test_mode_validation(self):
        cfg = OptimizerConfig(alpha=0.1, dither_mode="none")
        with pytest.raises(ValueError):
            dithered_step(init_state(np.zeros(1)), gs([1.0]), cfg,
                          RngStream(0, 0))

    def test_pre_mode_sign_flip_probability(self):
        # scalar momentum equal to the dither std: correct sign w.p. Phi(1)
        alpha = 0.04  # sigma_0 = 0.2
        cfg = OptimizerConfig(delta=1.0, beta=0.5, alpha=alpha,
                              dither_mode="pre")
        rng = RngStream(6, 0)
        m_target = math.sqrt(alpha)
        hits = 0
        trials = 20000
        for _ in range(trials):
            state = OptimizerState(x=np.zeros(1), m=np.array([m_target]))
            new = dithered_step(state, gs([m_target]), cfg, rng)
            hits += new.x[0] == -1.0  # step took the correct (negative) sign
        p_hat = hits / trials
        se = math.sqrt(p_hat * (1 - p_hat) / trials)
        assert abs(p_hat - normal_cdf(1.0)) <= 4.0 * se

    def test_post_mode_mean_step(self):
        cfg = OptimizerConfig(delta=0.5, beta=0.5, alpha=0.09,
                              dither_mode="post")
        rng = RngStream(7, 0)
        trials = 10000
        deltas = np.empty(trials)
        for t in range(trials):
            state = OptimizerState(x=np.zeros(1), m=np.array([2.0]))
            new = dithered_step(state, gs([2.0]), cfg, rng)
            deltas[t] = new.x[0]
        se = deltas.std(ddof=1) / math.sqrt(trials)
        assert abs(deltas.mean() - (-0.5)) <= 3.0 * se

    def test_post_mode_step_is_sign_plus_noise(self):
        cfg = OptimizerConfig(delta=0.5, beta=0.5, alpha=0.09,
                              dither_mode="post")
        state = init_state(np.array([0.0]))
        new = dithered_step(state, gs([1.0]), cfg, RngStream(8, 0))
        # |step| is delta plus a noise perturbation, not quantized
        assert new.x[0] != pytest.approx(-0.5, abs=1e-6)


class TestLambdaProject:
    def test_worked_value(self):
        m = np.ones(4)
        g = 2.0 * sign_vec(m)
        assert lambda_project(m, g, 0.1, 1e-300) == 0.05

    def test_orthogonal_gives_zero(self):
        m = np.ones(2)
        g = np.array([1.0, -1.0])
        assert lambda_project(m, g, 0.1, 1e-12) == 0.0

    def test_zero_gradient_gives_zero(self):
        assert lambda_project(np.ones(3), np.zeros(3), 0.1, 1e-12) == 0.0

    @given(st.integers(min_value=1, max_value=8), st.integers())
    def test_identity_and_nonnegativity(self, d, seed):
        gen = RngStream(abs(seed) % 2**63, 0).generator
        m = gen.standard_normal(d)
        g = gen.standard_normal(d)
        delta = float(10.0 ** gen.uniform(-4, 0))
        eps = 1e-12
        lam = lambda_project(m, g, delta, eps)
        assert lam >= 0.0
        lhs = lam * (float(g @ g) + eps)
        rhs = delta * abs(float(sign_vec(m) @ g))
        assert abs(lhs - rhs) <= 2.0 * np.spacing(max(abs(lhs), abs(rhs), 1e-300))

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            lambda_project(np.ones(1), np.ones(1), 0.1, 0.0)

    def test_overflowing_norm_keeps_the_ratio(self):
        # ||g||^2 overflows to inf near 1e156, yet
        # delta |<sign(m), g>| / ||g||^2 = 0.1 * 7e156 / 13e312 is a normal
        # float; it is taken on g / max|g|
        g = np.full(10, 1e156)
        g[3] = -2e156
        m = np.ones(10)
        small = np.arange(1.0, 11.0)
        with np.errstate(over="ignore"):
            lam = lambda_project(m, g, 0.1, 1e-12)
            rows = lambda_project(np.ones((3, 10)),
                                  np.stack([g, small, -3 * g]), 0.1, 1e-12)
        assert isinstance(lam, float)
        assert 0.0 < lam < math.inf
        assert lam == pytest.approx(0.1 * 7.0 / 13.0 * 1e-156, rel=1e-14)
        assert np.all((rows > 0) & np.isfinite(rows))
        # each row is its 1-D value; a row with a finite ||g||^2 keeps the
        # plain formula's bits
        assert rows[0] == lam
        assert rows[1] == 0.1 * abs(m @ small) / (small @ small + 1e-12)
        assert rows[2] == pytest.approx(lam / 3.0, rel=1e-14)


class TestHybridStep:
    def cfg(self, **kw):
        return OptimizerConfig(**{"delta": 0.1, "beta": 0.9, "eta": 0.5, **kw})

    def test_sign_phase_updates_ema(self):
        cfg = self.cfg(t_switch=math.inf)
        state = init_state(np.ones(2))
        rng = RngStream(9, 0)
        new = hybrid_step(state, gs([1.0, 2.0]), cfg, rng)
        assert new.phase == "sign"
        assert new.last_lambda > 0.0
        assert new.lambda_ema == pytest.approx(0.5 * new.last_lambda)

    def test_momentum_updated_before_lambda(self):
        # lambda must use the just-updated momentum: with m0 = 0 the signs
        # come from the incoming gradient, not from the stale zero momentum
        cfg = self.cfg(t_switch=math.inf)
        state = init_state(np.zeros(2))
        new = hybrid_step(state, gs([3.0, -1.0]), cfg, RngStream(9, 1))
        expected = lambda_project(new.m, np.array([3.0, -1.0]), 0.1, cfg.epsilon)
        assert new.last_lambda == expected
        assert expected > 0.0

    def test_sgd_phase_freezes_ema(self):
        cfg = self.cfg(t_switch=0.0)
        state = init_state(np.ones(2), lambda_ema=0.02)
        rng = RngStream(9, 2)
        new = hybrid_step(state, gs([1.0, -1.0]), cfg, rng)
        assert new.phase == "sgd"
        assert new.lambda_ema == 0.02
        assert np.array_equal(new.x, [1.0 - 0.02, 1.0 + 0.02])
        assert np.array_equal(new.m, state.m)

    def test_ema_nonnegative_throughout(self):
        cfg = self.cfg(t_switch=50.0)
        state = init_state(np.ones(3))
        grad_rng = RngStream(10, 0)
        rng = RngStream(10, 1)
        for _ in range(100):
            state = hybrid_step(state, gs(grad_rng.normal(3)), cfg, rng)
            assert state.lambda_ema >= 0.0
            assert state.last_lambda >= 0.0

    def test_bias_correction_scales_frozen_ema(self):
        # after one EMA update from zero the raw EMA is (1-eta)*lambda, so
        # the corrected sgd stepsize recovers lambda itself
        base = self.cfg(t_switch=1.0)
        corrected = self.cfg(t_switch=1.0, lambda_bias_correction=True)
        rng = RngStream(11, 0)
        s0 = init_state(np.ones(2))
        s1 = hybrid_step(s0, gs([2.0, -1.0]), base, rng)
        raw = hybrid_step(s1, gs([1.0, 1.0]), base, rng)
        fixed = hybrid_step(s1, gs([1.0, 1.0]), corrected, rng)
        raw_step = s1.x - raw.x
        fixed_step = s1.x - fixed.x
        assert np.allclose(fixed_step, raw_step / (1.0 - 0.5))
        assert fixed.lambda_ema == raw.lambda_ema  # stored EMA stays raw

    def test_undithered_sign_phase_skips_dither_schedule(self, monkeypatch):
        def no_schedule(*args):
            raise AssertionError("dither schedule evaluated")

        monkeypatch.setattr("signopt.optimizers.dither_sigma_sq", no_schedule)
        cfg = self.cfg(t_switch=math.inf, alpha=0.5, dither_mode="none")
        new = hybrid_step(init_state(np.ones(2)), gs([1.0, -2.0]), cfg,
                          RngStream(12, 0))
        assert np.array_equal(new.x, [0.9, 1.1])

    def test_phase_flag_tracks_switch(self):
        cfg = self.cfg(t_switch=3.0)
        state = init_state(np.ones(1))
        rng = RngStream(10, 2)
        phases = []
        for _ in range(6):
            state = hybrid_step(state, gs([1.0]), cfg, rng)
            phases.append(state.phase)
        assert phases == ["sign"] * 3 + ["sgd"] * 3


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        {"delta": 0.0}, {"beta": 0.0}, {"beta": 1.0}, {"alpha": -0.1},
        {"gamma": 0.0}, {"eta": 1.0}, {"epsilon": 0.0}, {"t_switch": -1.0},
        {"dither_mode": "both"}, {"algorithm": "adamw"}, {"lr": -1.0},
        {"algorithm": "dithered", "dither_mode": "none"},
        {"lambda_init": -0.1}, {"delta": math.nan}, {"t_switch": math.nan},
        {"lr": math.nan},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            OptimizerConfig(**kw)
