import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from signopt.config import OptimizerSpec
from signopt.core import (STREAM_DATA, RngStream, as_vector, l2_norm_sq,
                          per_row, sample_gaussian)
from signopt.dither import (correct_sign_prob, expected_dithered_sign,
                            mc_dithered_sign)
from signopt.optimizers import dither_sigma_sq, lambda_project
from signopt.problems import (LOGISTIC_REG, NOISE_FAMILIES, NoiseSpec,
                              _layout, batch_noise, make_logistic, make_mlp,
                              make_quadratic, mlp_n_params, sample_unit_noise,
                              stochastic_grad)
from signopt.theory import (SnrProfile, TheoremInputs, gauss_bound,
                            mc_sign_failure, sign_agreement_lower_bound)


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


def reference_logistic_fg(dataset_seed, dim, n_points):
    """The logistic oracle as first written: the dataset of make_logistic
    and a plain eval_fg that resolves nothing ahead of the call."""
    data_rng = RngStream(dataset_seed, STREAM_DATA)
    w_true = data_rng.normal(dim)
    w_true /= np.linalg.norm(w_true)
    A = data_rng.normal((n_points, dim))
    margins = A @ w_true + 0.1 * data_rng.normal(n_points)
    y = np.where(margins >= 0, 1.0, -1.0)
    reg = LOGISTIC_REG

    def eval_fg(x):
        z = -y * np.matmul(A, x[..., None])[..., 0]
        loss = np.logaddexp(0.0, z).sum(axis=-1) / n_points
        s = 1.0 / (1.0 + np.exp(-z))
        return (per_row(loss + 0.5 * reg * l2_norm_sq(x)),
                np.matmul(A.T, (-y * s)[..., None])[..., 0] / n_points
                + reg * x)

    return eval_fg


def reference_mlp_fg(dataset_seed, widths, n_points):
    """The MLP oracle as first written: the dataset of make_mlp and a plain
    eval_fg with a per-call layout, list of blocks and concatenate."""
    data_rng = RngStream(dataset_seed, STREAM_DATA)
    d_in = widths[0]
    half = n_points // 2
    mu = np.full(d_in, 1.5)
    X = np.vstack([
        mu + data_rng.normal((half, d_in)),
        -mu + data_rng.normal((n_points - half, d_in)),
    ])
    y = np.concatenate([np.ones(half), -np.ones(n_points - half)])
    layout = list(_layout(widths))
    n_layers = len(widths) - 1

    def eval_fg(x):
        lead = x.shape[:-1]
        params = [x[..., sl].reshape(lead + shape) for sl, shape in layout]
        acts = [X.T]
        for l in range(n_layers):
            W, b = params[2 * l], params[2 * l + 1]
            pre = W @ acts[-1] + b[..., None]
            acts.append(pre if l == n_layers - 1 else np.tanh(pre))
        logits = acts[-1][..., 0, :]
        f = per_row(np.logaddexp(0.0, -y * logits).sum(axis=-1) / n_points)
        dlogit = (-y / (1.0 + np.exp(y * logits))) / n_points
        delta = dlogit[..., None, :]
        grads = [None] * (2 * n_layers)
        for l in range(n_layers - 1, -1, -1):
            W = params[2 * l]
            grads[2 * l] = delta @ np.swapaxes(acts[l], -1, -2)
            grads[2 * l + 1] = delta.sum(axis=-1)
            if l > 0:
                delta = ((np.swapaxes(W, -1, -2) @ delta)
                         * (1.0 - acts[l] * acts[l]))
        return f, np.concatenate([g.reshape(lead + (-1,)) for g in grads],
                                 axis=-1)

    return eval_fg


# a point: (rows, seed, decade), rows None for one vector or 1-5 stacked rows
POINTS = st.tuples(st.one_of(st.none(), st.integers(1, 5)),
                   st.integers(0, 2**32 - 1), st.integers(-3, 2))


def scaled_point(dim, rows, seed, decade):
    """Normal coordinates times 10**decade, from 1e-3 to 1e2; at 1e2 the
    oracles' exp overflows on some data points."""
    shape = (dim,) if rows is None else (rows, dim)
    return RngStream(seed, 0).normal(shape) * 10.0 ** decade


class TestOracleReference:
    """The logistic and MLP oracles are bitwise their plain first form, an
    independent formula for f and the gradient, on random datasets,
    architectures, row counts and scales. Each explicit example overflows
    exp, where a residual of 0 must keep its sign."""

    @staticmethod
    def assert_same(fg, ref_fg, x):
        with np.errstate(all="ignore"):
            f, g = fg(x)
            f_ref, g_ref = ref_fg(x)
        assert type(f) is type(f_ref) and type(g) is type(g_ref)
        assert np.shape(f) == np.shape(f_ref) and g.shape == g_ref.shape
        assert bits(f) == bits(f_ref) and bits(g) == bits(g_ref)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 30),
           n_points=st.integers(1, 120), point=POINTS)
    @example(seed=1, dim=30, n_points=120, point=(None, 0, 2))
    @example(seed=1, dim=30, n_points=120, point=(3, 0, 2))
    def test_logistic(self, seed, dim, n_points, point):
        p = make_logistic(seed, dim, n_points, noiseless(dim))
        self.assert_same(p.eval_fg, reference_logistic_fg(seed, dim, n_points),
                         scaled_point(dim, *point))

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d_in=st.integers(1, 4),
           hidden=st.lists(st.integers(1, 8), min_size=1, max_size=2),
           n_points=st.integers(1, 120), point=POINTS)
    @example(seed=1, d_in=4, hidden=[8], n_points=120, point=(None, 2, 2))
    @example(seed=1, d_in=4, hidden=[8, 8], n_points=120, point=(3, 6, 2))
    def test_mlp(self, seed, d_in, hidden, n_points, point):
        widths = (d_in, *hidden, 1)
        p = make_mlp(seed, widths, noiseless(1), n_points)
        self.assert_same(p.eval_fg, reference_mlp_fg(seed, widths, n_points),
                         scaled_point(p.dim, *point))


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

    @pytest.mark.parametrize("family", NOISE_FAMILIES)
    def test_no_size_is_one_draw(self, family):
        one = sample_unit_noise(family, None, RngStream(24, 6))
        first = sample_unit_noise(family, 1, RngStream(24, 6))[:1]
        assert np.shape(one) == ()
        assert np.array([one]).tobytes() == first.tobytes()

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
    (lambda: RngStream(-1), "64-bit unsigned"),
    (lambda: as_vector(np.zeros((2, 2))), "1-D vector"),
    (lambda: sample_gaussian((2, 1), 0.0, np.array([[1.0], [-1.0]]),
                             RngStream(0)), "negative std"),
    (lambda: sample_unit_noise("cauchy", 3, RngStream(0)), "noise family"),
    (lambda: correct_sign_prob(1.0, -1.0), "sigma must be"),
    (lambda: expected_dithered_sign(1.0, -1.0), "sigma must be"),
    (lambda: mc_dithered_sign(1.0, 1.0, 0, RngStream(0)), "trials"),
    (lambda: mc_dithered_sign(1.0, -1.0, 10, RngStream(0)), "sigma must be"),
    (lambda: SnrProfile(np.zeros(3), np.ones(2)), "dimension mismatch"),
    (lambda: SnrProfile(np.zeros(2), [1.0, -1.0]), "noise scales"),
    (lambda: TheoremInputs(l1_lipschitz=1.0, l1_sigma=1.0, f0=1.0,
                           f_star=0.0, K=0, n=1), "K and n"),
    (lambda: gauss_bound(-1.0), "S must be"),
    (lambda: sign_agreement_lower_bound(-1.0), "S must be"),
    (lambda: mc_sign_failure("gaussian", -1.0, 10, RngStream(0)), "S >= 0"),
    # NaN fails every check, as it fails the config's
    (lambda: sample_gaussian(3, 0.0, math.nan, RngStream(0)), "negative std"),
    (lambda: sample_gaussian((2, 1), 0.0, np.array([[1.0], [math.nan]]),
                             RngStream(0)), "negative std"),
    (lambda: NoiseSpec("gaussian", np.array([1.0, math.nan])),
     "noise scales"),
    (lambda: make_quadratic([1.0, math.nan], [0.0, 0.0], noiseless(2)),
     "Lipschitz"),
    (lambda: correct_sign_prob(1.0, math.nan), "sigma must be"),
    (lambda: expected_dithered_sign(1.0, math.nan), "sigma must be"),
    (lambda: mc_dithered_sign(1.0, math.nan, 10, RngStream(0)),
     "sigma must be"),
    (lambda: SnrProfile(np.zeros(2), [1.0, math.nan]), "noise scales"),
    (lambda: TheoremInputs(l1_lipschitz=math.nan, l1_sigma=1.0, f0=1.0,
                           f_star=0.0, K=10, n=1), "l1_lipschitz"),
    (lambda: TheoremInputs(l1_lipschitz=1.0, l1_sigma=1.0, f0=math.nan,
                           f_star=0.0, K=10, n=1), "f0"),
    (lambda: gauss_bound(math.nan), "S must be"),
    (lambda: sign_agreement_lower_bound(math.nan), "S must be"),
    (lambda: mc_sign_failure("gaussian", math.nan, 10, RngStream(0)),
     "S >= 0"),
    (lambda: lambda_project(np.ones(2), np.ones(2), 0.1, math.nan),
     "epsilon"),
    (lambda: lambda_project(np.ones((2, 2)), np.ones((2, 2)), 0.1,
                            np.array([1e-12, 0.0])), "epsilon"),
    # the noise sum bounds the l1 rate; counts are integers, not bools
    (lambda: TheoremInputs(l1_lipschitz=1.0, l1_sigma=math.nan, f0=1.0,
                           f_star=0.0, K=10, n=1), "l1_sigma"),
    (lambda: TheoremInputs(l1_lipschitz=1.0, l1_sigma=math.inf, f0=1.0,
                           f_star=0.0, K=10, n=1), "l1_sigma"),
    (lambda: TheoremInputs(l1_lipschitz=1.0, l1_sigma=-5.0, f0=1.0,
                           f_star=0.0, K=10, n=1), "l1_sigma"),
    (lambda: TheoremInputs(l1_lipschitz=1.0, l1_sigma=1.0, f0=1.0,
                           f_star=0.0, K=2.5, n=1), "K and n"),
    (lambda: TheoremInputs(l1_lipschitz=1.0, l1_sigma=1.0, f0=1.0,
                           f_star=0.0, K=10, n=1.0), "K and n"),
    (lambda: TheoremInputs(l1_lipschitz=1.0, l1_sigma=1.0, f0=1.0,
                           f_star=0.0, K=True, n=1), "K and n"),
    # an infinite input makes an infinite bound, which every average meets
    (lambda: TheoremInputs(l1_lipschitz=math.inf, l1_sigma=1.0, f0=1.0,
                           f_star=0.0, K=10, n=1), "l1_lipschitz"),
    (lambda: TheoremInputs(l1_lipschitz=1.0, l1_sigma=1.0, f0=math.inf,
                           f_star=0.0, K=10, n=1), "f0"),
    (lambda: TheoremInputs(l1_lipschitz=1.0, l1_sigma=1.0, f0=1.0,
                           f_star=-math.inf, K=10, n=1), "f_star"),
    (lambda: RngStream(1.5), "64-bit unsigned"),
    (lambda: RngStream(True), "64-bit unsigned"),
    (lambda: RngStream(np.float64(1.0)), "64-bit unsigned"),
    (lambda: RngStream(2, 2.5), "64-bit unsigned"),
    (lambda: RngStream(2, np.True_), "64-bit unsigned"),
    (lambda: mc_sign_failure("gaussian", 1.0, 2.5, RngStream(0)), "trials"),
    (lambda: mc_sign_failure("gaussian", 1.0, True, RngStream(0)), "trials"),
    (lambda: mc_dithered_sign(1.0, 1.0, 2.5, RngStream(0)), "trials"),
    (lambda: mc_dithered_sign(1.0, 1.0, True, RngStream(0)), "trials"),
    # a step is an integer count; delta, one or per row, scales a length
    (lambda: dither_sigma_sq(math.nan, OptimizerSpec(alpha=0.1)), "step"),
    (lambda: dither_sigma_sq(2.5, OptimizerSpec(alpha=0.1)), "step"),
    (lambda: dither_sigma_sq(True, OptimizerSpec(alpha=0.1)), "step"),
    (lambda: lambda_project(np.array([1.0, -1.0]), np.array([2.0, -1.0]),
                            -1.0, 1e-12), "delta"),
    (lambda: lambda_project(np.ones(2), np.ones(2), math.nan, 1e-12),
     "delta"),
    (lambda: lambda_project(np.ones(2), np.ones(2), math.inf, 1e-12),
     "delta"),
    (lambda: lambda_project(np.ones((2, 2)), np.ones((2, 2)),
                            np.array([0.1, -1.0]), 1e-12), "delta"),
    (lambda: lambda_project(np.ones((2, 2)), np.ones((2, 2)),
                            np.array([0.1, math.nan]), 1e-12), "delta"),
    (lambda: lambda_project(np.ones((2, 2)), np.ones((2, 2)),
                            np.array([math.inf, 0.1]), 1e-12), "delta"),
    # an infinite epsilon would read as an overflowed ||g||^2 and be dropped
    (lambda: lambda_project(np.ones(3), np.ones(3), 0.1, math.inf),
     "epsilon"),
    (lambda: lambda_project(np.ones((2, 3)), np.ones((2, 3)), 0.1,
                            np.array([1e-12, math.inf])), "epsilon"),
    (lambda: mc_sign_failure("cauchy", 1.0, 10, RngStream(0)),
     "noise family"),
    # the makers check what the config's problem section checks
    (lambda: make_logistic(0, 0, 10, noiseless(0)), "n_points"),
    (lambda: make_mlp(0, (2, 0, 1), noiseless(1)), "hidden layer"),
    (lambda: make_mlp(0, (2, 2, 1), noiseless(9), n_points=0), "n_points"),
    (lambda: NoiseSpec("gaussian", [math.inf]), "noise scales"),
    (lambda: make_quadratic([math.inf], [0.0], noiseless(1)), "Lipschitz"),
    (lambda: make_quadratic([1.0], [math.nan], noiseless(1)), "x_opt"),
    (lambda: batch_noise(NoiseSpec("gaussian", [1.0]), 0, 1, RngStream(0)),
     "batch size"),
    (lambda: make_quadratic([], [], noiseless(0)), "Lipschitz"),
    # mlp_n_params states the MLP's width and depth rule, for the config's
    # problem section and for make_mlp, which calls it before any draw
    (lambda: make_mlp(0, [1] * 600, noiseless(1)), "layers overflow"),
    (lambda: mlp_n_params((2.5, 3, 1)), "hidden layer"),
    (lambda: mlp_n_params((2,)), "hidden layer"),
], ids=["logistic-no-points", "mlp-no-hidden-layer", "mlp-wide-output",
        "quadratic-shapes", "noise-negative-sigma", "grad-batch-zero",
        "stream-negative-seed", "vector-shape", "gaussian-negative-std-row",
        "unit-noise-family", "sign-prob-negative-sigma",
        "dithered-mean-negative-sigma", "mc-dithered-no-trials",
        "mc-dithered-negative-sigma", "snr-shapes", "snr-negative-scale",
        "theorem-no-steps", "gauss-negative-s", "agreement-negative-s",
        "mc-failure-negative-s", "gaussian-nan-std", "gaussian-nan-std-row",
        "noise-nan-sigma", "quadratic-nan-lipschitz", "sign-prob-nan-sigma",
        "dithered-mean-nan-sigma", "mc-dithered-nan-sigma", "snr-nan-scale",
        "theorem-nan-lipschitz", "theorem-nan-f0", "gauss-nan-s",
        "agreement-nan-s", "mc-failure-nan-s", "project-nan-epsilon",
        "project-zero-epsilon-row", "theorem-nan-sigma",
        "theorem-infinite-sigma", "theorem-negative-sigma",
        "theorem-fractional-k", "theorem-float-n", "theorem-bool-k",
        "theorem-infinite-lipschitz", "theorem-infinite-f0",
        "theorem-infinite-f-star",
        "stream-fractional-seed", "stream-bool-seed", "stream-float64-seed",
        "stream-fractional-id", "stream-numpy-bool-id",
        "mc-failure-fractional-trials", "mc-failure-bool-trials",
        "mc-dithered-fractional-trials", "mc-dithered-bool-trials",
        "sigma-sq-nan-step", "sigma-sq-fractional-step", "sigma-sq-bool-step",
        "project-negative-delta", "project-nan-delta",
        "project-infinite-delta", "project-negative-delta-row",
        "project-nan-delta-row", "project-infinite-delta-row",
        "project-infinite-epsilon", "project-infinite-epsilon-row",
        "mc-failure-unknown-family", "logistic-zero-dim", "mlp-zero-width",
        "mlp-no-points", "noise-infinite-sigma",
        "quadratic-infinite-lipschitz", "quadratic-nan-x-opt",
        "batch-noise-zero", "quadratic-empty", "mlp-too-deep",
        "mlp-params-fractional-width", "mlp-params-no-hidden-layer"])
def test_direct_callers_get_value_errors(make, message):
    # the public functions check their own arguments for callers that skip
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
