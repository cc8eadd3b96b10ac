"""A reference engine written from the paper's update equations, one seed
and one step at a time on 1-D vectors, against which `run_seeds` must be
bitwise equal.

Step k of a row is a sign step while k < t_switch:
    m <- beta * m + (1 - beta) * g
    lambda = delta * |<sign m, g>| / (||g||^2 + epsilon)
    EMA <- eta * EMA + (1 - eta) * lambda       (the hybrid only)
    x <- x - delta * sign(m + xi)               (pre-sign dither)
    x <- x - delta * (sign(m) + xi)             (post-sign dither)
with xi ~ N(0, alpha * (1 + k)^(-gamma)), and SignSGD stepping on g
itself. After the switch, x <- x - (EMA / divisor) * g for the hybrid and
x <- x - lr * g for SGD. The reference uses `core`'s kernels for the
inner products and signs, so that its bits can match the engine's.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from signopt.config import (ExperimentConfig, OptimizerSpec, ProblemSpec,
                            RunSpec, build_problem, initial_point)
from signopt.core import (STREAM_DITHER, STREAM_GRAD, RngStream, inner,
                          l1_norm, l2_norm_sq, sign_vec)
from signopt.harness import Row, run_seeds
from signopt.problems import NOISE_FAMILIES, batch_noise
from signopt.theory import SnrProfile, phi_measure


def calibration(m, g, delta, epsilon):
    """lambda = delta * |<sign m, g>| / (||g||^2 + epsilon), evaluated so
    that an overflow of the numerator or of ||g||^2 alone keeps a finite
    ratio: the ratio is taken first, or on g / max|g| with epsilon below
    the rounding of ||g||^2."""
    s = sign_vec(m)
    proj = abs(inner(s, g))
    denom = l2_norm_sq(g) + epsilon
    if math.isinf(denom):
        scale = np.abs(g).max()
        unit = g / scale
        return delta * abs(inner(s, unit)) / l2_norm_sq(unit) / scale
    lam = delta * proj / denom
    if math.isinf(lam):
        return delta * (proj / denom)
    return lam


def reference_run(cfg: ExperimentConfig, seed: int) -> tuple:
    """The record of one seed of `cfg`, as `record_key` below writes it."""
    problem = build_problem(cfg)
    opt, run = cfg.optimizer, cfg.run
    K, n, d = run.steps, run.batch_size, problem.dim
    algo = opt.algorithm
    t_switch = {"sgd": 0.0, "hybrid": opt.t_switch}.get(algo, math.inf)
    momentum = algo != "signsgd"
    tracks = algo == "hybrid"
    dithers = algo in ("dithered", "hybrid") and opt.dither_mode != "none"
    # the hybrid freezes the EMA after ceil(t_switch) sign steps
    n_sign = math.ceil(t_switch) if tracks and t_switch < math.inf else 0
    divisor = (1.0 - opt.eta ** n_sign
               if opt.lambda_bias_correction and n_sign else 1.0)
    delta, lr = opt.delta, opt.lr
    if run.theorem_mode:
        delta = 1.0 / math.sqrt(float(np.sum(problem.lipschitz)) * K)
    stride = run.record_stride or math.ceil(K / 10_000)
    snr = SnrProfile(np.zeros(d), problem.noise.sigma / math.sqrt(n))
    noisy = bool(np.any(problem.noise.sigma > 0))
    grad_rng = RngStream(seed, STREAM_GRAD)
    dither_rng = RngStream(seed, STREAM_DITHER)

    x = initial_point(cfg, problem).copy()
    m = np.zeros(d)
    ema = opt.lambda_init
    rows, iterates = [], [x.copy()]
    phi_sum = l1_sum = 0.0
    steps, phase, final_f = K, "sign", None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            f, g_true = problem.eval_fg(x)
            if not math.isfinite(f):
                steps, final_f = k, f
                break
            l1, phi = l1_norm(g_true), phi_measure(snr, g_true)
            phi_sum += phi
            l1_sum += l1
            if run.decay_every and k and k % run.decay_every == 0:
                delta *= run.decay_factor
                lr *= run.decay_factor
            g = g_true
            if noisy:
                g = g_true + batch_noise(problem.noise, n, 1, grad_rng)[0]

            lam = 0.0
            if k < t_switch:
                phase = "sign"
                src = g
                if momentum:
                    m = opt.beta * m + (1.0 - opt.beta) * g
                    src = m
                    lam = calibration(m, g, delta, opt.epsilon)
                    if tracks:
                        ema = opt.eta * ema + (1.0 - opt.eta) * lam
                s2 = opt.alpha * (1.0 + k) ** (-opt.gamma) if dithers else 0.0
                if s2 > 0.0:
                    xi = 0.0 + math.sqrt(s2) * dither_rng.normal(d)
                    direction = (sign_vec(src + xi)
                                 if opt.dither_mode == "pre"
                                 else sign_vec(src) + xi)
                else:
                    direction = sign_vec(src)
                x = x - delta * direction
            else:
                phase = "sgd"
                rate = ema / divisor if tracks else lr
                x = x - rate * g

            if k % stride == 0 or k == K - 1:
                # the schedule is recorded whenever a dither mode is named
                sig2 = (opt.alpha * (1.0 + k) ** (-opt.gamma)
                        if opt.dither_mode != "none" else 0.0)
                rows.append(Row(k, f, l1, phi, lam, ema, sig2, phase))
            iterates.append(x.copy())
        if final_f is None:
            final_f = problem.eval_f(x)
    avg_phi = phi_sum / steps if steps else math.nan
    avg_l1 = l1_sum / steps if steps else math.nan
    switched = tracks and steps and phase == "sgd"
    return (repr(rows), [v.tobytes() for v in iterates], steps,
            not math.isfinite(final_f), repr(final_f), repr(avg_phi),
            repr(avg_l1), repr(delta if run.theorem_mode else opt.delta),
            repr(ema if switched else math.nan))


def record_key(rec) -> tuple:
    """Everything a record holds but its wall time, comparable bitwise."""
    return (repr(rec.rows), [x.tobytes() for x in rec.iterates],
            rec.oracle_calls, rec.diverged, repr(rec.final_f),
            repr(rec.avg_phi), repr(rec.avg_l1), repr(rec.delta_used),
            repr(rec.lambda_at_switch))


def assert_matches_reference(cfgs, seeds):
    recs = run_seeds(cfgs, seeds, collect_iterates=True)
    assert len(recs) == len(cfgs) * len(seeds)
    for j, rec in enumerate(recs):
        cfg, seed = cfgs[j // len(seeds)], seeds[j % len(seeds)]
        assert rec.seed == seed
        assert record_key(rec) == reference_run(cfg, seed), (j, cfg.optimizer)
    return recs


def quadratic(family="gaussian", **run):
    return ExperimentConfig(
        problem=ProblemSpec(kind="quadratic", dim=4,
                            lipschitz=(0.5, 1.0, 2.0, 4.0), x0=(1.0,),
                            noise_family=family, sigma=(1.0,)),
        run=RunSpec(**{"steps": 30, "batch_size": 1, "record_stride": 1,
                       **run}))


def with_optimizer(cfg, **opt):
    return replace(cfg, optimizer=OptimizerSpec(**opt))


# Starts at the edge of overflow with noise that swamps the gradient; its
# sign step's delta * |<sign m, g>| overflows. Seed 0 diverges at step 14
# and seed 7 at step 24, seeds 1 and 2 run to the end.
X0_EDGE = 4.5e158
EDGE = replace(
    quadratic(steps=60, batch_size=2),
    problem=ProblemSpec(kind="quadratic", dim=4,
                        lipschitz=(0.5e-10, 1e-10, 2e-10, 4e-10),
                        x0=(X0_EDGE,), sigma=(1e151,)))

ALGORITHMS = ("sgd", "signsgd", "signsgdm", "dithered", "hybrid")
OPTIMIZERS = st.builds(
    lambda preset, t_switch, bias, lam_init, beta, gamma, eta: dict(
        algorithm=preset[0], dither_mode=preset[1], alpha=0.2,
        t_switch=t_switch, lambda_bias_correction=bias,
        lambda_init=0.0 if bias else lam_init, beta=beta, gamma=gamma,
        eta=eta, lr=0.05, delta=0.05),
    preset=st.sampled_from([(a, mode) for a in ALGORITHMS
                            for mode in ("none", "pre", "post")
                            if (a, mode) != ("dithered", "none")]),
    t_switch=st.sampled_from((0.0, 2.5, 3.0, 11.0, 29.0, 30.0, math.inf)),
    bias=st.booleans(),
    lam_init=st.sampled_from((0.0, 0.01)),
    beta=st.sampled_from((0.9, 0.5)),
    gamma=st.sampled_from((0.55, 0.8)),
    eta=st.sampled_from((0.7, 0.99)))
SCHEDULES = {"constant": {}, "decay": {"decay_every": 4, "decay_factor": 0.7},
             "theorem": {"theorem_mode": True}}


class TestReferenceStepper:
    """`run_seeds` is bitwise the reference on every algorithm, noise
    family and dither mode, alone and in batches of mixed configs listed
    in any order."""

    @settings(max_examples=80, deadline=None)
    @given(family=st.sampled_from(NOISE_FAMILIES),
           optimizers=st.lists(OPTIMIZERS, min_size=1, max_size=4),
           seeds=st.lists(st.sampled_from((0, 1, 5)), min_size=1,
                          max_size=2, unique=True),
           batch=st.sampled_from((1, 3)),
           stride=st.sampled_from((0, 1, 4)),
           schedule=st.sampled_from(sorted(SCHEDULES)))
    def test_random_batches(self, family, optimizers, seeds, batch, stride,
                            schedule):
        base = quadratic(family, batch_size=batch, record_stride=stride,
                         **SCHEDULES[schedule])
        cfgs = [with_optimizer(base, **opt) for opt in optimizers]
        assert_matches_reference(cfgs, seeds)

    def test_every_algorithm_family_and_dither_mode(self):
        for family in NOISE_FAMILIES:
            for mode in ("none", "pre", "post"):
                cfgs = [with_optimizer(quadratic(family), algorithm=a,
                                       dither_mode=mode, alpha=0.3,
                                       t_switch=9.5, eta=0.9)
                        for a in ALGORITHMS
                        if (a, mode) != ("dithered", "none")]
                assert_matches_reference(cfgs, (3,))

    def test_switch_points_out_of_order(self):
        # SGD first, then hybrids whose switch points are unsorted and
        # repeat, between rows that never switch
        base = quadratic("laplace", batch_size=2, record_stride=3)
        opts = [dict(algorithm="sgd"),
                dict(algorithm="hybrid", t_switch=20.0),
                dict(algorithm="hybrid", t_switch=5.0, alpha=0.2,
                     dither_mode="pre"),
                dict(algorithm="signsgdm"),
                dict(algorithm="hybrid", t_switch=20.0, eta=0.9,
                     lambda_bias_correction=True),
                dict(algorithm="hybrid", t_switch=2.5, lambda_init=0.02),
                dict(algorithm="signsgd"),
                dict(algorithm="hybrid", t_switch=0.0, lambda_init=0.03),
                dict(algorithm="dithered", alpha=0.2, dither_mode="post")]
        recs = assert_matches_reference(
            [with_optimizer(base, **o) for o in opts], (4, 0))
        # each config's seeds come back in place
        assert [r.seed for r in recs] == [4, 0] * len(opts)

    def test_rows_that_diverge_mid_run(self):
        opts = [dict(algorithm="sgd", lr=1e-3),
                dict(algorithm="hybrid", t_switch=30.0, eta=0.9, alpha=0.1,
                     dither_mode="pre", delta=0.01 * X0_EDGE),
                dict(algorithm="signsgdm", delta=0.01 * X0_EDGE),
                dict(algorithm="hybrid", t_switch=13.0, eta=0.9,
                     delta=0.01 * X0_EDGE)]
        recs = assert_matches_reference(
            [with_optimizer(EDGE, **o) for o in opts], (0, 1, 7))
        hybrid = recs[3:6]
        assert [r.diverged for r in hybrid] == [True, False, True]
        assert [r.oracle_calls for r in hybrid] == [14, 60, 24]

    def test_dither_variance_that_underflows(self):
        # 0.2 * (1 + k)^-gamma is 0.0 from k = 1 for both gammas, so every
        # step after the first applies no dither: alone the variance is one
        # float, batched with the other gamma it is one per row
        base = quadratic("gaussian", batch_size=2)
        pre = with_optimizer(base, algorithm="dithered", dither_mode="pre",
                             alpha=0.2, gamma=1100.0)
        post = with_optimizer(base, algorithm="dithered",
                              dither_mode="post", alpha=0.2, gamma=1200.0)
        assert 0.2 * 2.0 ** -1100.0 == 0.0 == 0.2 * 2.0 ** -1200.0
        assert_matches_reference([pre], (0, 5))
        assert_matches_reference([pre, post], (0, 5))
