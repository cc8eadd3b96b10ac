import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from signopt.core import RngStream
from signopt.problems import (NOISE_FAMILIES, NoiseSpec, batch_noise,
                              make_logistic, make_mlp, make_quadratic,
                              sample_unit_noise, stochastic_grad)


def fd_gradient(f, x, h):
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def noiseless(dim):
    return NoiseSpec("gaussian", np.zeros(dim))


class TestQuadratic:
    def test_hand_values(self):
        p = make_quadratic([2.0], [0.0], noiseless(1))
        assert p.eval_f(np.array([3.0])) == 9.0
        assert np.array_equal(p.eval_grad(np.array([3.0])), [6.0])

    def test_optimum(self):
        x_opt = np.array([1.0, -2.0])
        p = make_quadratic([1.0, 3.0], x_opt, noiseless(2))
        assert p.eval_f(x_opt) == 0.0 == p.f_star
        assert np.array_equal(p.eval_grad(x_opt), np.zeros(2))

    def test_negative_lipschitz_rejected(self):
        with pytest.raises(ValueError):
            make_quadratic([-1.0], [0.0], noiseless(1))

    def test_gradient_matches_finite_differences(self):
        rng = RngStream(5, 0).generator
        p = make_quadratic(rng.uniform(0.5, 4.0, 6), rng.standard_normal(6),
                           noiseless(6))
        for _ in range(100):
            x = rng.standard_normal(6) * 3
            g = p.eval_grad(x)
            g_fd = fd_gradient(p.eval_f, x, 1e-6)
            assert np.linalg.norm(g - g_fd) <= 1e-6 * max(np.linalg.norm(g), 1e-12)

    def test_coordinate_smoothness_is_tight(self):
        L = np.array([0.5, 2.0, 4.0])
        p = make_quadratic(L, np.zeros(3), noiseless(3))
        rng = RngStream(6, 0).generator
        for _ in range(50):
            x = rng.standard_normal(3)
            y = x.copy()
            i = rng.integers(3)
            y[i] += rng.standard_normal()
            dg = abs(p.eval_grad(y)[i] - p.eval_grad(x)[i])
            assert dg == pytest.approx(L[i] * abs(y[i] - x[i]), rel=1e-12)


class TestLogistic:
    def setup_method(self):
        self.p = make_logistic(11, 5, 60, noiseless(5))

    def test_gradient_at_zero_and_random(self):
        rng = RngStream(7, 0).generator
        pts = [np.zeros(5)] + [rng.standard_normal(5) for _ in range(99)]
        for x in pts:
            g = self.p.eval_grad(x)
            g_fd = fd_gradient(self.p.eval_f, x, 1e-6)
            assert np.linalg.norm(g - g_fd) <= 1e-6 * np.linalg.norm(g)

    def test_loss_nonnegative(self):
        rng = RngStream(8, 0).generator
        for _ in range(50):
            assert self.p.eval_f(rng.standard_normal(5) * 5) >= 0.0

    def test_strict_midpoint_convexity(self):
        rng = RngStream(9, 0).generator
        for _ in range(50):
            a, b = rng.standard_normal(5), rng.standard_normal(5)
            if np.allclose(a, b):
                continue
            mid = self.p.eval_f((a + b) / 2)
            assert mid < (self.p.eval_f(a) + self.p.eval_f(b)) / 2


class TestMlp:
    def test_backprop_matches_finite_differences(self):
        for seed, widths in ((1, (2, 4, 1)), (2, (3, 8, 1)), (3, (2, 5, 4, 1))):
            p = make_mlp(seed, widths, noiseless(1))
            rng = RngStream(seed, 1).generator
            for _ in range(20):
                x = 0.5 * rng.standard_normal(p.dim)
                g = p.eval_grad(x)
                g_fd = fd_gradient(p.eval_f, x, 1e-5)
                assert np.linalg.norm(g - g_fd) <= 1e-4 * np.linalg.norm(g)

    def test_zero_weights_give_ln2(self):
        p = make_mlp(4, (2, 6, 1), noiseless(1))
        assert p.eval_f(np.zeros(p.dim)) == pytest.approx(math.log(2.0))

    def test_hidden_unit_permutation_symmetry(self):
        widths = (2, 4, 1)
        p = make_mlp(5, widths, noiseless(1))
        rng = RngStream(5, 2).generator
        x = rng.standard_normal(p.dim)
        # parameter layout: W1 (4,2), b1 (4,), W2 (1,4), b2 (1,)
        W1 = x[0:8].reshape(4, 2)
        b1 = x[8:12]
        W2 = x[12:16].reshape(1, 4)
        perm = [2, 0, 3, 1]
        x_perm = np.concatenate([W1[perm].ravel(), b1[perm],
                                 W2[:, perm].ravel(), x[16:]])
        assert p.eval_f(x_perm) == pytest.approx(p.eval_f(x), rel=1e-12)


def bits(v):
    return np.asarray(v, dtype=np.float64).tobytes()


def finite_points(dim, rows=None):
    shape = dim if rows is None else (rows, dim)
    return hnp.arrays(np.float64, shape, elements=st.floats(
        allow_nan=False, allow_infinity=False))


FUSED_PROBLEMS = {
    "quadratic": make_quadratic([0.5, 1.0, 2.0, 4.0], [1.0, 0.0, -1.0, 2.5],
                                noiseless(4)),
    "logistic": make_logistic(3, 6, 40, noiseless(6)),
    "mlp-2-8-1": make_mlp(4, (2, 8, 1), noiseless(1)),
    "mlp-3-hidden": make_mlp(5, (3, 5, 4, 3, 1), noiseless(1)),
}


class TestFusedOracle:
    """eval_fg(x) is bitwise (eval_f(x), eval_grad(x)) at any finite x, and
    every problem's rows are bitwise its single points."""

    @pytest.mark.parametrize("name", sorted(FUSED_PROBLEMS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_separate_oracles(self, name, data):
        p = FUSED_PROBLEMS[name]
        x = data.draw(finite_points(p.dim))
        with np.errstate(all="ignore"):
            f, g = p.eval_fg(x)
            assert bits(f) == bits(p.eval_f(x))
            assert bits(g) == bits(p.eval_grad(x))
        assert isinstance(f, float) and g.shape == (p.dim,)

    @pytest.mark.parametrize("name", sorted(FUSED_PROBLEMS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rows_match_points(self, name, data):
        p = FUSED_PROBLEMS[name]
        X = data.draw(st.integers(1, 5).flatmap(
            lambda rows: finite_points(p.dim, rows)))
        with np.errstate(all="ignore"):
            f, g = p.eval_fg(X)
            assert bits(f) == bits(p.eval_f(X))
            assert bits(g) == bits(p.eval_grad(X))
            for i, x in enumerate(X):
                f_i, g_i = p.eval_fg(x)
                assert bits(f[i]) == bits(f_i)
                assert bits(g[i]) == bits(g_i)
        assert f.shape == (len(X),) and g.shape == X.shape

    @settings(max_examples=60, deadline=None)
    @given(X=st.integers(1, 5).flatmap(lambda rows: finite_points(4, rows)))
    def test_quadratic_rows(self, X):
        p = FUSED_PROBLEMS["quadratic"]
        L = np.array([0.5, 1.0, 2.0, 4.0])
        x_opt = np.array([1.0, 0.0, -1.0, 2.5])
        with np.errstate(all="ignore"):
            f, g = p.eval_fg(X)
            for i, x in enumerate(X):
                d = x - x_opt
                assert bits(f[i]) == bits(0.5 * np.sum(L * d * d))
                assert bits(g[i]) == bits(L * (x - x_opt))

    def test_mlp_layout(self):
        # W1 (5, 3), b1, W2 (4, 5), b2, W3 (3, 4), b3, W4 (1, 3), b4
        dim = 15 + 5 + 20 + 4 + 12 + 3 + 3 + 1
        assert FUSED_PROBLEMS["mlp-3-hidden"].dim == dim


class TestNoise:
    @pytest.mark.parametrize("family", ["gaussian", "uniform", "laplace",
                                        "asymmetric-bimodal"])
    def test_zero_mean_unit_variance(self, family):
        n = 10**6
        z = sample_unit_noise(family, n, RngStream(21, 3))
        assert abs(z.mean()) <= 4.0 / math.sqrt(n)
        assert z.var() == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("family", ["gaussian", "uniform", "laplace"])
    def test_symmetric_families_have_zero_skew(self, family):
        n = 10**6
        z = sample_unit_noise(family, n, RngStream(22, 4))
        skew = np.mean(z**3)
        # SE of the third moment of standardized draws
        se = np.std(z**3) / math.sqrt(n)
        assert abs(skew) <= 4.0 * se

    def test_asymmetric_family_has_detectable_skew(self):
        n = 10**5
        z = sample_unit_noise("asymmetric-bimodal", n, RngStream(23, 5))
        se = np.std(z**3) / math.sqrt(n)
        assert abs(np.mean(z**3)) > 10.0 * se

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec("cauchy", np.ones(2))

    @pytest.mark.parametrize("family", NOISE_FAMILIES)
    def test_block_draw_matches_step_draws(self, family):
        # each row of a block is the noise one batch-4 step draws, scaled
        # by sigma before its mean, on the same stream
        spec = NoiseSpec(family, np.linspace(0.1, 3.0, 5))
        block = batch_noise(spec, 4, 37, RngStream(24, 6))
        rng = RngStream(24, 6)
        for row in block:
            unit = sample_unit_noise(family, (4, 5), rng)
            assert np.array_equal(row, (unit * spec.sigma).mean(axis=0))


@pytest.mark.parametrize("make, message", [
    (lambda: make_logistic(11, 5, 0, noiseless(5)), "n_points"),
    (lambda: make_mlp(1, (2, 1), noiseless(1)), "hidden layer"),
    (lambda: make_mlp(1, (2, 4, 2), noiseless(1)), "output layer"),
    (lambda: make_quadratic([1.0, 2.0], [0.0], noiseless(2)), "mismatch"),
    (lambda: NoiseSpec("gaussian", np.array([1.0, -0.5])), "noise scales"),
    (lambda: stochastic_grad(make_quadratic([1.0], [0.0], noiseless(1)),
                             np.zeros(1), 0, RngStream(0, 1)), "batch size"),
], ids=["logistic-no-points", "mlp-no-hidden-layer", "mlp-wide-output",
        "quadratic-shapes", "noise-negative-sigma", "grad-batch-zero"])
def test_direct_callers_get_value_errors(make, message):
    # the problem makers check their own arguments for callers that skip
    # the config's validation
    with pytest.raises(ValueError, match=message):
        make()


class TestStochasticGrad:
    def test_noiseless_is_exact(self):
        p = make_quadratic([1.0, 2.0], [0.0, 0.0], noiseless(2))
        x = np.array([1.0, -1.0])
        gs = stochastic_grad(p, x, 3, RngStream(0, 0))
        assert np.array_equal(gs.grad, p.eval_grad(x))
        assert np.array_equal(gs.coord_std, np.zeros(2))

    @staticmethod
    def samples(p, x, n, trials, rng):
        """`trials` successive `stochastic_grad(p, x, n, rng)` gradients,
        drawn in one `batch_noise` call: bitwise the calls' draws, which
        is checked on the first 100."""
        check = copy.deepcopy(rng)
        grads = p.eval_grad(x) + batch_noise(p.noise, n, trials, rng)
        calls = [stochastic_grad(p, x, n, check).grad for _ in range(100)]
        assert np.array_equal(grads[:100], calls)
        return grads

    def test_unbiased(self):
        sigma = np.array([0.5, 2.0])
        p = make_quadratic([1.0, 2.0], [0.0, 0.0], NoiseSpec("laplace", sigma))
        x = np.array([0.3, -0.7])
        rng = RngStream(31, 0)
        trials = 10**5
        mean = np.mean(self.samples(p, x, 1, trials, rng), axis=0)
        se = sigma / math.sqrt(trials)
        assert np.all(np.abs(mean - p.eval_grad(x)) <= 4.0 * se)

    def test_variance_scales_inversely_with_batch(self):
        sigma = np.array([1.0])
        p = make_quadratic([1.0], [0.0], NoiseSpec("uniform", sigma))
        x = np.array([0.0])
        rng = RngStream(32, 0)
        trials = 10**5
        v1 = np.var(self.samples(p, x, 1, trials, rng)[:, 0])
        v4 = np.var(self.samples(p, x, 4, trials, rng)[:, 0])
        assert 0.22 <= v4 / v1 <= 0.28
        # and the batch variance respects sigma^2 / n with MC slack
        assert v4 <= (1.0 / 4.0) * 1.05

    def test_coord_std_field(self):
        p = make_quadratic([1.0], [0.0], NoiseSpec("gaussian", [2.0]))
        gs = stochastic_grad(p, np.zeros(1), 4, RngStream(0, 1))
        assert gs.batch_size == 4
        assert np.array_equal(gs.coord_std, [1.0])
