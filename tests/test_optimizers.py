import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from signopt import optimizers
from signopt.config import OptimizerSpec as OptimizerConfig
from signopt.core import RngStream, run_errstate, sign_vec
from signopt.dither import normal_cdf
from signopt.optimizers import (PHASES, PRESETS, OptimizerState, RowStepper,
                                column_of, dither_sigma_sq, dithered_step,
                                hybrid_step, init_state, lambda_project,
                                phase_codes, preset, sgd_step, signsgd_step,
                                signsgdm_step, stack_params, step)


def gs(values):
    """A stochastic gradient as the step rules take it."""
    return np.asarray(values, dtype=np.float64)


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
            assert new.last_lambda == lambda_project(new.m, g, 0.1,
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
        trials = 20000
        # each trial a row of one step: the rows draw the stream's first
        # `trials` values in order, as one step per trial does
        state = OptimizerState(x=np.zeros((trials, 1)),
                               m=np.full((trials, 1), m_target))
        new = dithered_step(state, gs(np.full((trials, 1), m_target)), cfg,
                            rng)
        # the steps that took the correct (negative) sign
        hits = int(np.count_nonzero(new.x[:, 0] == -1.0))
        p_hat = hits / trials
        se = math.sqrt(p_hat * (1 - p_hat) / trials)
        assert abs(p_hat - normal_cdf(1.0)) <= 4.0 * se

    def test_post_mode_mean_step(self):
        cfg = OptimizerConfig(delta=0.5, beta=0.5, alpha=0.09,
                              dither_mode="post")
        rng = RngStream(7, 0)
        trials = 10000
        # each trial a row of one step, drawing as one step per trial does
        state = OptimizerState(x=np.zeros((trials, 1)),
                               m=np.full((trials, 1), 2.0))
        new = dithered_step(state, gs(np.full((trials, 1), 2.0)), cfg, rng)
        deltas = new.x[:, 0]
        se = deltas.std(ddof=1) / math.sqrt(trials)
        assert abs(deltas.mean() - (-0.5)) <= 3.0 * se

    def test_post_mode_step_is_sign_plus_noise(self):
        cfg = OptimizerConfig(delta=0.5, beta=0.5, alpha=0.09,
                              dither_mode="post")
        state = init_state(np.array([0.0]))
        new = dithered_step(state, gs([1.0]), cfg, RngStream(8, 0))
        # |step| is delta plus a noise perturbation, not quantized
        assert new.x[0] != pytest.approx(-0.5, abs=1e-6)

    @pytest.mark.parametrize("mode", ["pre", "post"])
    def test_dither_needs_a_stream(self, mode):
        cfg = OptimizerConfig(algorithm="dithered", alpha=0.3,
                              dither_mode=mode)
        state = init_state(np.zeros(2))
        with pytest.raises(ValueError, match="dither stream"):
            step(state, gs([1.0, -1.0]), preset(cfg))
        # an undithered step and an SGD step draw nothing
        step(state, gs([1.0, -1.0]), preset(replace(cfg, alpha=0.0)))
        step(state, gs([1.0, -1.0]),
             preset(replace(cfg, algorithm="hybrid", t_switch=0.0)))


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
        lam = lambda_project(m, g, 0.1, 1e-12)
        rows = lambda_project(np.ones((3, 10)), np.stack([g, small, -3 * g]),
                              0.1, 1e-12)
        assert isinstance(lam, float)
        assert 0.0 < lam < math.inf
        assert lam == pytest.approx(0.1 * 7.0 / 13.0 * 1e-156, rel=1e-14)
        assert np.all((rows > 0) & np.isfinite(rows))
        # each row is its 1-D value; a row with a finite ||g||^2 keeps the
        # plain formula's bits
        assert rows[0] == lam
        assert rows[1] == 0.1 * abs(m @ small) / (small @ small + 1e-12)
        assert rows[2] == pytest.approx(lam / 3.0, rel=1e-14)


    def test_overflowing_numerator_keeps_the_ratio(self):
        # delta * |<sign(m), g>| = 4e156 * 7e153 overflows, while ||g||^2 =
        # 13e306 does not and the ratio 28/13 * 1e3 is a normal float
        g = np.full(10, 1e153)
        g[3] = -2e153
        m = np.ones(10)
        lam = lambda_project(m, g, 4e156, 1e-12)
        assert isinstance(lam, float)
        assert lam == pytest.approx(28.0 / 13.0 * 1e3, rel=1e-14)
        # epsilon is kept: 13e306 + 1e307 in the denominator
        assert lambda_project(m, g, 4e156, 1e307) == pytest.approx(
            28.0 / 23.0 * 1e3, rel=1e-14)

    def test_overflowing_numerator_rows(self):
        # rows: numerator overflow only, a plain row, both overflows (its
        # ||g||^2 is 13e312), and numerator overflow at three times g
        g = np.full(10, 1e153)
        g[3] = -2e153
        small = np.arange(1.0, 11.0)
        delta = 4e156
        rows = lambda_project(np.ones((4, 10)),
                              np.stack([g, small, 1e3 * g, 3 * g]), delta,
                              1e-12)
        assert np.all((rows > 0) & np.isfinite(rows))
        assert rows[0] == lambda_project(np.ones(10), g, delta, 1e-12)
        assert rows[1] == delta * abs(small.sum()) / (small @ small + 1e-12)
        assert rows[2] == pytest.approx(28.0 / 13.0, rel=1e-14)
        assert rows[3] == pytest.approx(rows[0] / 3.0, rel=1e-14)

    def test_per_row_delta_and_epsilon(self):
        gen = RngStream(14, 0).generator
        m, g = gen.standard_normal((3, 5)), gen.standard_normal((3, 5))
        delta, eps = np.array([0.1, 0.2, 0.3]), np.array([1e-12, 1.0, 5.0])
        rows = lambda_project(m, g, delta, eps)
        for i in range(3):
            assert rows[i] == lambda_project(m[i], g[i], float(delta[i]),
                                             float(eps[i]))

    @pytest.mark.parametrize("grads, delta", [
        # ||g||^2 overflows on the first and last rows
        ([[1e156] * 3 + [-2e156] + [1e156] * 6, list(range(1, 11)),
          [-3e156] * 3 + [6e156] + [-3e156] * 6], 0.1),
        # delta * |<sign(m), g>| overflows, ||g||^2 does not, on rows 0 and
        # 3; both overflow on row 2
        ([[1e153] * 3 + [-2e153] + [1e153] * 6, list(range(1, 11)),
          [1e156] * 3 + [-2e156] + [1e156] * 6,
          [3e153] * 3 + [-6e153] + [3e153] * 6], 4e156),
        # plain rows, with a per-row delta
        ([[1.0, -2.0] * 5, [0.5] * 10], np.array([0.1, 0.3])),
    ])
    def test_calibration_into_a_view_is_lambda_project(self, grads, delta):
        # the step rule writes each step's lambda into a slice of its state
        # through `out`; the bits are lambda_project's, which still returns
        # a fresh array
        g = np.array(grads, dtype=np.float64)
        m = np.ones_like(g)
        want = lambda_project(m, g, delta, 1e-12)
        buf = np.full(len(g) + 2, -1.0)
        view = buf[1:-1]
        with run_errstate():
            got = optimizers._calibration(sign_vec(m), g, delta, 1e-12,
                                          out=view)
        assert got is view
        assert view.tobytes() == want.tobytes()
        assert buf[0] == buf[-1] == -1.0
        again = lambda_project(m, g, delta, 1e-12)
        assert again.tobytes() == want.tobytes()
        assert not np.shares_memory(again, want)

    @pytest.mark.parametrize("rows", [1, 2, 3, 25])
    def test_overflow_probe_fires_on_every_infinite_row(self, rows):
        # every row of denom and lam from 0, finite, inf and NaN, at each
        # position among plain rows; the probe runs under the run's policy,
        # and pyproject.toml turns any warning it gives into a failure
        values = (0.0, 1.5, math.inf, math.nan)
        pairs = [(a, b) for a in values for b in values]
        for (d0, l0), (d1, l1) in [(p, q) for p in pairs for q in pairs]:
            for at in range(rows):
                denom, lam = np.full(rows, 2.0), np.full(rows, 0.25)
                denom[at], lam[at] = d0, l0
                denom[(at + 1) % rows], lam[(at + 1) % rows] = d1, l1
                infinite = np.isinf(np.fmax(denom, lam)).any()
                with run_errstate():
                    fired = optimizers._may_be_infinite(denom, lam)
                assert fired or not infinite, (denom, lam)
        # max() propagates the NaN row and misses the inf one
        denom, lam = np.array([math.nan, math.inf]), np.array([math.nan, 1.0])
        with run_errstate():
            assert optimizers._may_be_infinite(denom, lam)
        # plain rows leave the probe quiet
        assert not optimizers._may_be_infinite(np.full(rows, 2.0),
                                               np.full(rows, 0.25))


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

    @pytest.mark.parametrize("t_switch", [2.5, 3.0])
    def test_bias_correction_counts_the_sign_steps_taken(self, t_switch):
        # steps 0, 1 and 2 are sign steps for both switch points, so the
        # EMA has been updated three times and is biased by 1 - eta^3
        cfg = self.cfg(t_switch=t_switch, lambda_bias_correction=True)
        rng = RngStream(13, 0)
        state = init_state(np.ones(2))
        for g in ([2.0, -1.0], [1.0, 3.0], [-0.5, 2.0]):
            state = hybrid_step(state, gs(g), cfg, rng)
        assert (state.phase, state.k) == ("sign", 3)
        new = hybrid_step(state, gs([1.0, 1.0]), cfg, rng)
        assert new.phase == "sgd"
        lam_bar = state.lambda_ema / (1.0 - 0.5 ** 3)
        assert np.array_equal(new.x, state.x - lam_bar * gs([1.0, 1.0]))

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


class TestPresets:
    """The algorithm names are parameter sets of the one rule."""

    def test_preset_table(self):
        cfg = OptimizerConfig(delta=0.1, eta=0.5, t_switch=2.5, alpha=0.2,
                              dither_mode="post", lr=0.03,
                              lambda_bias_correction=True)
        got = {algo: preset(replace(cfg, algorithm=algo)) for algo in PRESETS}
        assert {a: p.t_switch for a, p in got.items()} == {
            "sgd": 0.0, "signsgd": math.inf, "signsgdm": math.inf,
            "dithered": math.inf, "hybrid": 2.5}
        assert [a for a, p in got.items() if p.alpha] == ["dithered", "hybrid"]
        assert [a for a, p in got.items() if not p.momentum] == ["signsgd"]
        assert [a for a, p in got.items() if p.track_ema] == ["hybrid"]
        # three sign steps before the switch at 2.5
        assert got["hybrid"].ema_divisor == 1.0 - 0.5 ** 3
        assert all(p.ema_divisor == 1.0 for a, p in got.items()
                   if a != "hybrid")
        assert all((p.lr, p.delta, p.pre) == (0.03, 0.1, False)
                   for p in got.values())

    def test_no_dither_without_a_mode(self):
        cfg = OptimizerConfig(algorithm="hybrid", alpha=0.5)
        assert preset(cfg).alpha == 0.0

    def test_stack_keeps_shared_values_scalar(self):
        a = preset(OptimizerConfig(algorithm="hybrid", t_switch=3.0))
        b = preset(OptimizerConfig(algorithm="sgd"))
        p = stack_params([a, b], 2)
        assert p.delta == a.delta and isinstance(p.delta, float)
        assert p.momentum is True
        assert p.t_switch.tolist() == [3.0, 3.0, 0.0, 0.0]
        assert p.track_ema.tolist() == [True, True, False, False]
        assert stack_params([a], 4) == a

    def test_column_of_tells_signed_zeros_apart(self):
        assert column_of([0.0, 0.0], 3) == 0.0
        col = column_of([0.0, -0.0], 2)
        assert np.signbit(col).tolist() == [False, False, True, True]


def batch_dither(seeds):
    """A dither stream for rows: each row's draw comes from its own
    stream, as it does alone."""
    class Rows:
        streams = [RngStream(s, 3) for s in seeds]

        def normal(self, shape):
            return np.stack([r.normal(shape[1:]) for r in self.streams])
    return Rows()


class TestMixedRows:
    """Rows of different presets advance together, each in its own phase,
    and each row is bitwise the row advanced alone."""

    CONFIGS = [
        OptimizerConfig(algorithm="sgd", lr=0.05, lambda_init=0.01),
        OptimizerConfig(algorithm="signsgd", delta=0.1),
        OptimizerConfig(algorithm="signsgdm", beta=0.8, alpha=0.3,
                        dither_mode="pre"),
        OptimizerConfig(algorithm="dithered", alpha=0.3, dither_mode="post",
                        gamma=0.8),
        OptimizerConfig(algorithm="dithered", alpha=0.3, dither_mode="pre"),
        OptimizerConfig(algorithm="hybrid", t_switch=2.5, eta=0.5,
                        lambda_bias_correction=True, alpha=0.3,
                        dither_mode="pre"),
        OptimizerConfig(algorithm="hybrid", t_switch=0.0, lambda_init=0.02),
        OptimizerConfig(algorithm="hybrid", t_switch=math.inf, eta=0.7),
    ]

    def run(self, configs, seeds, steps=6):
        params = stack_params([preset(c) for c in configs], 1)
        state = init_state(np.ones((len(configs), 3)), lambda_ema=column_of(
            [c.lambda_init for c in configs], 1))
        dither = batch_dither(seeds)
        grads = RngStream(15, 0)
        states = []
        for _ in range(steps):
            g = np.concatenate([grads.normal((1, 3)) for _ in configs])
            state = step(state, g, params, dither)
            states.append(state)
        return states

    def test_each_row_is_its_row_alone(self):
        n = len(self.CONFIGS)
        together = self.run(self.CONFIGS, range(n))
        for i, cfg in enumerate(self.CONFIGS):
            grads = RngStream(15, 0)
            params = preset(cfg)
            state = init_state(np.ones((1, 3)), lambda_ema=cfg.lambda_init)
            dither = batch_dither([i])
            for k, batch in enumerate(together):
                g_all = np.concatenate([grads.normal((1, 3))
                                        for _ in range(n)])
                state = step(state, g_all[i:i + 1], params, dither)
                assert batch.x[i].tobytes() == state.x[0].tobytes()
                assert batch.m[i].tobytes() == state.m[0].tobytes()
                for name in ("lambda_ema", "last_lambda", "phase"):
                    row = np.broadcast_to(getattr(batch, name), (n,))[i]
                    alone = np.broadcast_to(getattr(state, name), (1,))[0]
                    assert repr(row.item()) == repr(np.asarray(alone).item())

    def test_phases_per_row(self):
        states = self.run(self.CONFIGS, range(len(self.CONFIGS)))
        assert states[0].phase.tolist() == ["sgd"] + ["sign"] * 5 + [
            "sgd", "sign"]
        # the hybrid at 2.5 takes its first SGD step at k = 3
        assert [s.phase[5] for s in states] == ["sign"] * 3 + ["sgd"] * 3

    def test_rows_that_draw_no_dither_keep_signed_zeros(self):
        # the signsgd row adds a dither of +0.0 to g = -0.0 in the batch
        cfgs = [OptimizerConfig(algorithm="signsgd", delta=0.1),
                OptimizerConfig(algorithm="dithered", alpha=0.3,
                                dither_mode="pre")]
        state = init_state(np.full((2, 2), -0.0))
        g = np.array([[-0.0, 1.0], [1.0, 1.0]])
        both = step(state, g, stack_params([preset(c) for c in cfgs], 1),
                    batch_dither([0, 1]))
        alone = step(init_state(np.full((1, 2), -0.0)), g[:1],
                     preset(cfgs[0]))
        assert both.x[0].tobytes() == alone.x[0].tobytes()
        assert np.signbit(alone.x[0, 0])

    def test_keep_cuts_the_order_with_the_rows(self):
        # `order[j]` is the input row of row j after every cut
        n = len(self.CONFIGS)
        x, ema = np.arange(3.0 * n).reshape(n, 3), np.arange(1.0, n + 1)
        params = stack_params([preset(c) for c in self.CONFIGS], 1)
        rule = RowStepper(x, np.zeros((n, 3)), ema, params)
        assert rule.order.tolist() != list(range(n))
        for mask in ([True, False] * (n // 2), [False, True, True, True]):
            rule.keep(np.array(mask))
            assert len(rule.order) == len(rule.x) == sum(mask)
            assert np.array_equal(rule.x, x[rule.order])
            assert np.array_equal(rule.ema, ema[rule.order])
            t = params.t_switch[rule.order]
            assert np.array_equal(t, np.sort(t)[::-1])

    @staticmethod
    def assert_lam_is_each_rows_own(rule, g, k):
        # row j took step k on g[j]: its lambda is the calibration of its
        # new momentum where it took a sign step with momentum, else 0
        S, p = len(rule.x), rule.params
        t, momentum, delta, eps = (np.broadcast_to(v, (S,)) for v in (
            p.t_switch, p.momentum, p.delta, p.epsilon))
        for j in range(S):
            want = (lambda_project(rule.m[j], g[j], float(delta[j]),
                                   float(eps[j]))
                    if k < t[j] and momentum[j] else 0.0)
            assert rule.lam[j].tobytes() == np.float64(want).tobytes(), j
        return rule.lam.copy()

    def test_lam_is_each_rows_lambda_alone(self):
        n = len(self.CONFIGS)
        rule = RowStepper(np.ones((n, 3)), np.zeros((n, 3)),
                          [c.lambda_init for c in self.CONFIGS],
                          stack_params([preset(c) for c in self.CONFIGS], 1))
        assert not rule.lam.any()
        dither, grads = batch_dither(range(n)), RngStream(15, 0)
        for k in range(6):
            g = grads.normal((n, 3))
            rule.step(g, k, optimizers._Reordered(dither, rule.order))
            lam = self.assert_lam_is_each_rows_own(rule, g, k)
        # rows without momentum and rows past their switch record 0, the
        # others their own lambda
        momentum = np.broadcast_to(rule.params.momentum, (n,))
        live = momentum & (5 < rule.params.t_switch)
        assert (lam[live] > 0).all() and not lam[~live].any()

    def test_lam_across_the_switch_a_decay_and_a_cut(self):
        # the bias-corrected hybrid at 2.5 takes sign steps 0-2 and an SGD
        # step at 3; beside it SGD, SignSGD and SignSGD-M rows
        cfgs = [self.CONFIGS[5], self.CONFIGS[0], self.CONFIGS[1],
                OptimizerConfig(algorithm="signsgdm", beta=0.8),
                OptimizerConfig(algorithm="hybrid", t_switch=2.5, eta=0.7)]
        n = len(cfgs)
        rule = RowStepper(np.ones((n, 3)), np.zeros((n, 3)), np.zeros(n),
                          stack_params([preset(c) for c in cfgs], 1))
        dither, grads = batch_dither(range(n)), RngStream(16, 0)
        hybrids = [j for j, i in enumerate(rule.order.tolist())
                   if i in (0, 4)]
        for k in range(5):
            g = grads.normal((len(rule.x), 3))
            rule.step(g, k, optimizers._Reordered(dither, rule.order))
            lam = self.assert_lam_is_each_rows_own(rule, g, k)
            if k == 2:
                assert (lam[hybrids] > 0).all()
                rule.decay(0.5)
                assert rule.lam.tobytes() == lam.tobytes()
            if k == 3:
                assert not lam[hybrids].any()
                # cut the SignSGD-M row, in the sign phase
                kept = rule.order != 3
                rule.keep(kept)
                assert rule.lam.tobytes() == lam[kept].tobytes()
                assert 3 not in rule.order.tolist()

    @pytest.mark.parametrize("t, codes", [
        (2.5, [0, 0, 0, 1, 1]), (math.inf, [0] * 5), (0.0, [1] * 5)])
    def test_phase_codes_follow_from_k_and_t_switch(self, t, codes):
        ks = np.arange(5)
        assert phase_codes(ks, t).dtype == np.int8
        assert phase_codes(ks, t).tolist() == codes
        assert [phase_codes(k, t).item() for k in range(5)] == codes
        assert [PHASES[c] for c in codes] == [
            "sign" if k < t else "sgd" for k in range(5)]
        # one t_switch per row
        per_row = np.array([2.5, math.inf, 0.0])
        assert phase_codes(3, per_row).tolist() == [1, 0, 1]
        assert phase_codes(ks[:, None], per_row)[:, [0]].ravel().tolist() == (
            phase_codes(ks, 2.5).tolist())

    def test_gamma_per_row_matches_each_row(self):
        p = stack_params([preset(c) for c in self.CONFIGS], 2)
        for k in (0, 1, 7, 1000):
            s2 = dither_sigma_sq(k, p)
            assert s2.tolist() == [dither_sigma_sq(k, c)
                                   if preset(c).alpha else 0.0
                                   for c in self.CONFIGS for _ in range(2)]


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
