import functools
import json
import math
import re
import statistics
import sys
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import test_reference as reference
from signopt import core, harness, optimizers
from signopt.checks import _theorem_base_config
from signopt.core import STREAM_GRAD, RngStream, inner
from signopt.config import (ConfigError, ExperimentConfig, OptimizerSpec,
                            ProblemSpec, RunSpec, build_problem,
                            initial_point, load_config, parse_config,
                            serialize_config)
from signopt.harness import (CSV_HEADER, emit_csv, emit_json, load_csv,
                             run_single, run_seeds, run_summary,
                             run_switch_suite, run_theorem_suite,
                             theorem_delta)
from signopt.optimizers import dither_sigma_sq
from signopt.problems import stochastic_grad
from signopt.problems import (NOISE_FAMILIES, NoiseSpec, batch_noise,
                              sample_unit_noise)
from signopt.theory import SnrProfile, phi_measure


def quad_cfg(**kw):
    problem = ProblemSpec(kind="quadratic", dim=4,
                          lipschitz=(0.5, 1.0, 2.0, 4.0),
                          x_opt=(0.0,), x0=(1.0,),
                          noise_family="gaussian",
                          sigma=kw.pop("sigma", (1.0,)))
    optimizer = OptimizerSpec(**kw.pop("optimizer", {}))
    run = RunSpec(**{"steps": 200, "batch_size": 1, "seeds": (0,),
                     "record_stride": 1, **kw.pop("run", {})})
    return ExperimentConfig(problem=problem, optimizer=optimizer, run=run)


class TestRunSingle:
    def test_noiseless_sgd_converges_like_linear_recurrence(self):
        cfg = quad_cfg(sigma=(0.0,),
                       optimizer={"algorithm": "sgd", "lr": 0.4},
                       run={"steps": 10000, "record_stride": 1000})
        rec = run_single(cfg, 0, collect_iterates=True)
        problem = build_problem(cfg)
        f0 = problem.eval_f(initial_point(cfg, problem))
        assert rec.final_f <= 1e-8 * f0
        # exact per-coordinate recurrence x_{k+1} = (1 - lr L) x_k
        factors = 1.0 - 0.4 * np.array([0.5, 1.0, 2.0, 4.0])
        expected = factors ** 50 * 1.0
        assert np.allclose(rec.iterates[50], expected, rtol=1e-10)

    def test_deterministic_given_seed(self):
        cfg = quad_cfg(optimizer={"algorithm": "signsgdm"})
        a = run_single(cfg, 3, collect_iterates=True)
        b = run_single(cfg, 3, collect_iterates=True)
        assert a.rows == b.rows
        assert all(np.array_equal(x, y)
                   for x, y in zip(a.iterates, b.iterates))

    def test_signsgd_limit_cycle_does_not_converge(self):
        cfg = quad_cfg(sigma=(0.0,),
                       optimizer={"algorithm": "signsgd", "delta": 0.05},
                       run={"steps": 2000})
        rec = run_single(cfg, 0)
        # stuck in the delta band: the loss cycle peak stays positive
        assert max(r.f for r in rec.rows[-2:]) >= 4.0 * 0.05**2 / 8.0

    def test_metric_integrity(self):
        cfg = quad_cfg(optimizer={"algorithm": "hybrid", "t_switch": 100.0},
                       run={"batch_size": 4})
        rec = run_single(cfg, 5, collect_iterates=True)
        problem = build_problem(cfg)
        s = problem.noise.sigma / math.sqrt(4)
        for row in rec.rows:
            g = problem.eval_grad(rec.iterates[row.k])
            assert row.phi == phi_measure(SnrProfile(g, s))
            assert row.l1_grad == float(np.sum(np.abs(g)))

    def test_budget_one_oracle_call_per_step(self):
        for algo in ("sgd", "signsgd", "signsgdm", "hybrid"):
            cfg = quad_cfg(optimizer={"algorithm": algo, "t_switch": 50.0},
                           run={"steps": 120})
            assert run_single(cfg, 0).oracle_calls == 120

    def test_theorem_mode_overrides_delta(self):
        cfg = quad_cfg(optimizer={"algorithm": "signsgd", "delta": 99.0},
                       run={"steps": 400, "theorem_mode": True})
        rec = run_single(cfg, 0)
        problem = build_problem(cfg)
        assert rec.delta_used == theorem_delta(problem, 400)
        assert rec.delta_used == pytest.approx(1.0 / math.sqrt(7.5 * 400))

    def test_divergence_reported_not_raised(self):
        cfg = quad_cfg(sigma=(0.0,),
                       optimizer={"algorithm": "sgd", "lr": 1e6},
                       run={"steps": 2000})
        rec = run_single(cfg, 0)
        assert rec.diverged
        assert rec.oracle_calls < 2000

    def test_divergence_at_step_0_leaves_averages_nan(self):
        cfg = quad_cfg(optimizer={"algorithm": "sgd"})
        cfg = replace(cfg, problem=replace(cfg.problem, x0=(1e300,)))
        rec = run_single(cfg, 0)
        assert rec.diverged and rec.oracle_calls == 0 and not rec.rows
        assert math.isnan(rec.avg_phi) and math.isnan(rec.avg_l1)

    def test_hybrid_post_switch_contraction(self):
        cfg = quad_cfg(sigma=(0.0,),
                       optimizer={"algorithm": "hybrid", "t_switch": 50.0,
                                  "delta": 0.02},
                       run={"steps": 300})
        rec = run_single(cfg, 0, collect_iterates=True)
        lam = rec.lambda_at_switch
        assert lam > 0.0
        assert np.all(lam * np.array([0.5, 1.0, 2.0, 4.0]) < 2.0)
        # exact post-switch recurrence on the noiseless quadratic
        L = np.array([0.5, 1.0, 2.0, 4.0])
        for k in range(60, 70):
            predicted = rec.iterates[k] - lam * (L * rec.iterates[k])
            assert np.array_equal(rec.iterates[k + 1], predicted)
        dist = [np.linalg.norm(x) for x in rec.iterates[51:]]
        assert all(b <= a for a, b in zip(dist, dist[1:]))

    @pytest.mark.parametrize("steps, recorded", [
        (10000, list(range(10000))),
        (10001, list(range(0, 10001, 2))),
    ], ids=["10000-steps", "10001-steps"])
    def test_automatic_stride_records_at_most_1e4_rows(self, steps,
                                                       recorded):
        # record_stride = 0 records every step up to 1e4 steps, and past
        # that every ceil(steps / 1e4)-th step and the last
        cfg = quad_cfg(sigma=(0.0,), optimizer={"algorithm": "sgd",
                                                "lr": 0.1},
                       run={"steps": steps, "record_stride": 0})
        assert [r.k for r in run_single(cfg, 0).rows] == recorded



class TestDitherColumn:
    """The CSV's `sigma_dither_sq` column records the schedule's
    dither_sigma_sq(k, cfg) on every step of a run whose dither_mode is not
    `none`, also on the steps whose rule applies no dither."""

    @pytest.mark.parametrize("algorithm", ["sgd", "signsgd", "signsgdm"])
    def test_undithered_rules_ignore_the_mode(self, algorithm):
        cfg = quad_cfg(optimizer={"algorithm": algorithm, "alpha": 0.3,
                                  "dither_mode": "pre"},
                       run={"steps": 50, "seeds": (0, 1)})
        plain = replace(cfg, optimizer=replace(cfg.optimizer,
                                               dither_mode="none"))
        for a, b in zip(run_seeds(cfg, collect_iterates=True),
                        run_seeds(plain, collect_iterates=True)):
            assert all(np.array_equal(x, y)
                       for x, y in zip(a.iterates, b.iterates))
            assert [replace(r, sigma_dither_sq=0.0) for r in a.rows] == b.rows
            assert [r.sigma_dither_sq for r in a.rows] == [
                dither_sigma_sq(r.k, cfg.optimizer) for r in a.rows]

    def test_hybrid_sgd_phase_records_the_schedule(self):
        cfg = quad_cfg(optimizer={"algorithm": "hybrid", "alpha": 0.3,
                                  "dither_mode": "pre", "t_switch": 20.0},
                       run={"steps": 50})
        sgd_rows = [r for r in run_single(cfg, 0).rows if r.phase == "sgd"]
        assert [r.k for r in sgd_rows] == list(range(20, 50))
        assert all(r.sigma_dither_sq == dither_sigma_sq(r.k, cfg.optimizer)
                   > 0.0 for r in sgd_rows)

def replay_grads(cfg, iterates, seed=0):
    """The stochastic gradient of each step, redrawn from the run's own
    gradient stream at the recorded iterates."""
    problem = build_problem(cfg)
    rng = RngStream(seed, STREAM_GRAD)
    return [stochastic_grad(problem, x, cfg.run.batch_size, rng).grad
            for x in iterates[:-1]]


class TestStepDecay:
    """run.decay_every multiplies lr and delta by decay_factor every
    decay_every steps; the hybrid's frozen calibrated stepsize is not
    decayed."""

    def test_decay_scales_lr(self):
        cfg = quad_cfg(optimizer={"algorithm": "sgd", "lr": 0.1},
                       run={"steps": 50, "decay_every": 10,
                            "decay_factor": 0.5})
        rec = run_single(cfg, 0, collect_iterates=True)
        lr = 0.1
        for k, g in enumerate(replay_grads(cfg, rec.iterates)):
            if k and k % 10 == 0:
                lr *= 0.5
            assert np.array_equal(rec.iterates[k + 1],
                                  rec.iterates[k] - lr * g)

    def test_decay_scales_delta_but_not_frozen_lambda(self):
        # dyadic delta from a dyadic start keeps sign steps exact
        cfg = quad_cfg(optimizer={"algorithm": "hybrid", "delta": 0.25,
                                  "eta": 0.5, "t_switch": 25.0},
                       run={"steps": 60, "decay_every": 10,
                            "decay_factor": 0.5})
        rec = run_single(cfg, 0, collect_iterates=True)
        lam_bar = rec.lambda_at_switch
        assert lam_bar > 0.0
        delta = 0.25
        for k, g in enumerate(replay_grads(cfg, rec.iterates)):
            if k and k % 10 == 0:
                delta *= 0.5
            x, x_next = rec.iterates[k], rec.iterates[k + 1]
            if k < 25:
                assert np.array_equal(np.abs(x_next - x), np.full(4, delta))
            else:
                assert np.array_equal(x_next, x - lam_bar * g)
        assert all(r.lambda_ema == lam_bar for r in rec.rows[25:])


class TestAggregation:
    def test_seed_order_invariance(self):
        cfg = quad_cfg(optimizer={"algorithm": "signsgdm"},
                       run={"steps": 100})
        fwd = run_seeds(cfg, seeds=(0, 1, 2, 3))
        rev = run_seeds(cfg, seeds=(3, 2, 1, 0))
        assert statistics.fmean(r.avg_phi for r in fwd) == \
            statistics.fmean(r.avg_phi for r in rev)


# Starts at the edge of overflow with noise that swamps the gradient: seed 0
# diverges at step 14 and seed 7 at step 24, the others run to the end.
X0_EDGE = 4.5e158


def edge_cfg():
    cfg = quad_cfg(sigma=(1e151,),
                   optimizer={"algorithm": "hybrid", "delta": 0.01 * X0_EDGE,
                              "t_switch": 30.0, "eta": 0.9, "alpha": 0.1,
                              "dither_mode": "pre"},
                   run={"steps": 60, "batch_size": 2})
    return replace(cfg, problem=replace(
        cfg.problem, x0=(X0_EDGE,),
        lipschitz=tuple(1e-10 * v for v in cfg.problem.lipschitz)))


BATCH_CONFIGS = {
    "sgd": quad_cfg(optimizer={"algorithm": "sgd", "lr": 0.1},
                    run={"steps": 60, "batch_size": 3}),
    "signsgd-uniform": replace(
        quad_cfg(optimizer={"algorithm": "signsgd"}, run={"steps": 60}),
        problem=ProblemSpec(kind="quadratic", dim=4, noise_family="uniform",
                            lipschitz=(0.5, 1.0, 2.0, 4.0))),
    "dithered-post-decay": quad_cfg(
        optimizer={"algorithm": "dithered", "alpha": 0.2,
                   "dither_mode": "post"},
        run={"steps": 60, "decay_every": 7, "decay_factor": 0.5}),
    "hybrid-bias-corrected": quad_cfg(
        optimizer={"algorithm": "hybrid", "t_switch": 25.0, "eta": 0.9,
                   "lambda_bias_correction": True},
        run={"steps": 60, "record_stride": 7}),
    "logistic-hybrid-pre": ExperimentConfig(
        problem=ProblemSpec(kind="logistic", dim=5, n_points=30,
                            x0=(0.0,), noise_family="laplace",
                            sigma=(0.5,)),
        optimizer=OptimizerSpec(algorithm="hybrid", t_switch=20.0,
                                alpha=0.1, dither_mode="pre"),
        run=RunSpec(steps=40, batch_size=2)),
    "mlp-dithered-pre": ExperimentConfig(
        problem=ProblemSpec(kind="mlp", layer_widths=(2, 3, 1),
                            n_points=20, x0=(0.3,),
                            noise_family="asymmetric-bimodal",
                            sigma=(0.5,)),
        optimizer=OptimizerSpec(algorithm="dithered", alpha=0.1,
                                dither_mode="pre"),
        run=RunSpec(steps=40, batch_size=2)),
    "diverging-edge": edge_cfg(),
}
SEED_POOL = (0, 1, 2, 3, 7)


def record_key(rec):
    """Everything a record holds but its wall time, comparable bitwise
    (repr writes every bit of a float and writes NaN as nan)."""
    return (repr(rec.rows), [x.tobytes() for x in rec.iterates],
            rec.oracle_calls, rec.diverged, repr(rec.final_f),
            repr(rec.avg_phi), repr(rec.avg_l1), repr(rec.delta_used),
            repr(rec.lambda_at_switch))


@functools.cache
def alone(name, seed):
    rec, = run_seeds(BATCH_CONFIGS[name], (seed,), collect_iterates=True)
    return record_key(rec)


# Optimizer sections that a mixed batch draws from: every preset, dither
# mode and bias-correction setting, switch points at the start, after a
# fractional and an integer step count, never, and at the last step, and
# values of the rule's parameters that differ from row to row.
MIXED_OPTIMIZERS = st.builds(
    lambda preset, bias, t_switch, gamma, lam_init, beta: OptimizerSpec(
        algorithm=preset[0], dither_mode=preset[1], alpha=0.2, gamma=gamma,
        t_switch=t_switch, eta=0.7, beta=beta, lambda_bias_correction=bias,
        lambda_init=0.0 if bias else lam_init, lr=0.05),
    preset=st.sampled_from([(a, m) for a in ("sgd", "signsgd", "signsgdm",
                                             "dithered", "hybrid")
                            for m in ("none", "pre", "post")
                            if (a, m) != ("dithered", "none")]),
    bias=st.booleans(),
    t_switch=st.sampled_from((0.0, 2.5, 3.0, math.inf, 30.0)),
    gamma=st.sampled_from((0.55, 0.8)),
    lam_init=st.sampled_from((0.0, 0.01)),
    beta=st.sampled_from((0.9, 0.5)))


def mixed_config(base, optimizer):
    """`optimizer` on a 30-step quadratic, or on the diverging edge config
    with that config's sign step."""
    if base == "quadratic":
        cfg = quad_cfg(run={"steps": 30, "batch_size": 2, "record_stride": 4})
    else:
        cfg = edge_cfg()
        optimizer = replace(optimizer, delta=cfg.optimizer.delta)
    return replace(cfg, optimizer=optimizer)


@functools.cache
def config_alone(cfg, seed):
    rec, = run_seeds(cfg, (seed,), collect_iterates=True)
    return record_key(rec)


class TestSeedBatching:
    """A seed's record does not depend on the seeds or the configs it runs
    with, nor on the block size of the random draws."""

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(BATCH_CONFIGS)),
           seeds=st.lists(st.sampled_from(SEED_POOL), min_size=1,
                          max_size=len(SEED_POOL), unique=True),
           block_bytes=st.sampled_from((1, 200, 1000, harness.BLOCK_BYTES)))
    def test_each_seed_matches_its_run_alone(self, name, seeds, block_bytes):
        with mock.patch.object(harness, "BLOCK_BYTES", block_bytes):
            recs = run_seeds(BATCH_CONFIGS[name], seeds,
                             collect_iterates=True)
        assert [r.seed for r in recs] == seeds
        for rec in recs:
            assert record_key(rec) == alone(name, rec.seed)

    def test_divergence_in_the_middle_of_a_noise_block(self):
        cfg = edge_cfg()
        # 3 seeds, batch size 2, dim 4: 8 * 4 * 3 bytes a step, 4-step blocks
        with mock.patch.object(harness, "BLOCK_BYTES", 4 * 8 * 4 * 3):
            recs = run_seeds(cfg, (1, 0, 2), collect_iterates=True)
        assert [r.diverged for r in recs] == [False, True, False]
        assert recs[1].oracle_calls == 14  # in the block of steps 12-15
        assert len(recs[1].iterates) == 15
        assert math.isfinite(recs[0].lambda_at_switch)
        for rec in recs:
            rec_alone, = run_seeds(cfg, (rec.seed,), collect_iterates=True)
            assert record_key(rec) == record_key(rec_alone)

    def test_run_single_is_one_seed_of_run_seeds(self):
        cfg = BATCH_CONFIGS["hybrid-bias-corrected"]
        a = run_single(cfg, 3, collect_iterates=True)
        b, = run_seeds(cfg, (3,), collect_iterates=True)
        assert record_key(a) == record_key(b)

    @settings(max_examples=60, deadline=None)
    @given(base=st.sampled_from(("quadratic", "diverging-edge")),
           optimizers=st.lists(MIXED_OPTIMIZERS, min_size=2, max_size=4),
           seeds=st.lists(st.sampled_from(SEED_POOL), min_size=1,
                          max_size=3, unique=True),
           block_bytes=st.sampled_from((1, 200, 1000, harness.BLOCK_BYTES)))
    def test_each_config_matches_its_run_alone(self, base, optimizers, seeds,
                                               block_bytes):
        cfgs = [mixed_config(base, opt) for opt in optimizers]
        with mock.patch.object(harness, "BLOCK_BYTES", block_bytes):
            recs = run_seeds(cfgs, seeds, collect_iterates=True)
        assert [r.seed for r in recs] == seeds * len(cfgs)
        for j, rec in enumerate(recs):
            assert record_key(rec) == config_alone(cfgs[j // len(seeds)],
                                                   rec.seed)

    def test_configs_must_share_problem_and_run(self):
        a = quad_cfg(run={"steps": 20})
        with pytest.raises(ValueError):
            run_seeds([a, replace(a, run=replace(a.run, steps=21))])
        with pytest.raises(ValueError):
            run_seeds([a, replace(a, problem=replace(a.problem, x0=(2.0,)))])

    def test_draw_buffer_does_not_grow_with_steps(self):
        """The theorem cell at n = 16 with 20 seeds: the random numbers are
        drawn in blocks of bounded size, so the peak traced memory of a run
        does not depend on its length (rows kept at 11 per seed)."""
        base = _theorem_base_config(1.0)
        problem = build_problem(base)

        def cell(steps):
            return replace(base, run=replace(base.run, steps=steps,
                                             batch_size=16,
                                             record_stride=steps // 10))

        # the first run in a process pays one-time allocations, the thread
        # pool's among them: 200 steps hold a full block of 163, whose
        # refill runs on the pool wherever there are two workers or more
        run_seeds(cell(200), problem=problem)

        def peak(steps):
            cfg = cell(steps)
            tracemalloc.start()
            try:
                recs = run_seeds(cfg, problem=problem)
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(recs) == 20 and all(len(r.rows) == 11 for r in recs)
            return top

        short, long = peak(2000), peak(8000)
        assert long <= 1.1 * short
        assert max(short, long) < 2 * 2**20


def stream_reads(kind, n, S, d, block, steps, cut, mask):
    """Every (S, d) draw of a `_RowStreams` over seeds 0..S-1, read one a
    step for `steps` steps and cut to `mask` before step `cut`: batch-n
    noise of a family on d coordinates, or the d-wide dither draws."""
    if kind == "dither":
        draw, width = (lambda r, c: r.normal((c, d))), d
    else:
        spec = NoiseSpec(kind, np.linspace(0.5, 2.0, d))
        draw, width = (lambda r, c: batch_noise(spec, n, c, r)), n * d
    streams = harness._RowStreams(
        [RngStream(s, STREAM_GRAD) for s in range(S)],
        lambda r, c, out: np.copyto(out, draw(r, c)), block, steps, d, width)
    reads = []
    for k in range(steps):
        if k == cut:
            streams.keep(np.array(mask))
        a = streams.normal()
        reads.append((a.shape, a.tobytes()))
    return reads


def theorem_cell(steps, **problem):
    """The rate check's config at batch size 16 over `steps` steps."""
    base = _theorem_base_config(1.0)
    return replace(base, problem=replace(base.problem, **problem),
                   run=replace(base.run, steps=steps, batch_size=16))


@pytest.fixture
def switching_often():
    """Python's threads switch every microsecond, as finely as the
    interpreter lets them interleave."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


class TestThreadedRefill:
    """A refill of at least `PARALLEL_DRAWS` draws fills its streams on
    `core.parallel_map`'s threads, bitwise as the serial refill does. Four
    workers are asked for, so the threads run on any host."""

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(NOISE_FAMILIES + ("dither",)),
           n=st.integers(1, 16), S=st.integers(1, 24), d=st.integers(1, 6),
           block=st.integers(1, 40), steps=st.integers(1, 60),
           data=st.data())
    def test_threaded_refills_are_the_serial_ones(self, kind, n, S, d, block,
                                                  steps, data):
        cut = data.draw(st.integers(0, steps))
        mask = data.draw(st.lists(st.booleans(), min_size=S,
                                  max_size=S).filter(any))
        args = kind, n, S, d, block, steps, cut, mask
        with mock.patch.object(core, "WORKERS", 4):
            with mock.patch.object(harness, "PARALLEL_DRAWS", 2**62):
                serial = stream_reads(*args)
            with mock.patch.object(harness, "PARALLEL_DRAWS", 0):
                threaded = stream_reads(*args)
        assert threaded == serial

    @pytest.mark.usefixtures("switching_often")
    @pytest.mark.parametrize("workers", (1, 2, 4))
    @pytest.mark.parametrize("dithered", (False, True))
    @pytest.mark.parametrize("family", NOISE_FAMILIES)
    def test_theorem_cell_seeds_match_their_runs_alone(
            self, monkeypatch, family, dithered, workers):
        # 20 seeds at n = 16 refill 163 steps of 521,600 draws at a time;
        # one seed alone refills 204 steps of 32,640, serially. A dither
        # refill holds at most BLOCK_BYTES / 8 draws, below PARALLEL_DRAWS,
        # and fills serially
        monkeypatch.setattr(core, "WORKERS", workers)
        calls = []

        def counting(fn, items):
            calls.append(len(items))
            return core.parallel_map(fn, items)

        monkeypatch.setattr(harness, "parallel_map", counting)
        cfg = theorem_cell(300, noise_family=family)
        if dithered:
            cfg = replace(cfg, optimizer=OptimizerSpec(
                algorithm="dithered", dither_mode="pre", alpha=0.1))
        recs = run_seeds(cfg, range(20), collect_iterates=True)
        assert calls == [20, 20]
        for rec in recs:
            rec_alone = run_single(cfg, rec.seed, collect_iterates=True)
            assert record_key(rec) == record_key(rec_alone)

    def test_worker_overflow_does_not_warn(self, monkeypatch):
        # the noise overflows in the workers' scale-and-sum; under
        # pyproject.toml's error::RuntimeWarning a worker without the
        # run's errstate would raise
        monkeypatch.setattr(core, "WORKERS", 2)
        cfg = theorem_cell(300, sigma=(1e308,))
        cfg = replace(cfg, run=replace(cfg.run, theorem_mode=False))
        recs = run_seeds(cfg, range(20), collect_iterates=True)
        assert len(recs) == 20 and all(r.diverged for r in recs)
        for rec in recs:
            rec_alone = run_single(cfg, rec.seed, collect_iterates=True)
            assert record_key(rec) == record_key(rec_alone)


# (kind, n, d) of a seed stream: each noise family at d = 1, where numpy's
# batch reduce sums the n draws of a coordinate pairwise, once n is 8 or
# more, and at d = 10, where it adds them in order; and the dither draws
REFILL_KINDS = [(family, n, d) for family in NOISE_FAMILIES
                for n, d in ((16, 1), (129, 1), (16, 10))]
REFILL_KINDS += [("dither", 1, 1), ("dither", 1, 10)]


@pytest.mark.usefixtures("switching_often")
class TestInPlaceRefill:
    """Each refill writes every stream's draws straight into its slice of
    one block, on one thread or several: the reads are bitwise each
    stream's drawn alone for 1, 2 and 4 workers, however the threads are
    scheduled."""

    @pytest.mark.parametrize("workers", (1, 2, 4))
    @pytest.mark.parametrize("kind, n, d", REFILL_KINDS)
    def test_reads_are_each_stream_drawn_alone(self, monkeypatch, kind, n,
                                                d, workers):
        if kind == "dither":
            def alone(r, c):
                return r.normal((c, d))

            def fill(r, c, out):
                np.copyto(out, r.normal((c, d)))
        else:
            spec = NoiseSpec(kind, np.linspace(0.5, 2.0, d))

            def alone(r, c):  # the batch mean as numpy's sum of a copy
                unit = sample_unit_noise(kind, (c, n, d), r)
                return (unit * spec.sigma).sum(axis=1) / n

            def fill(r, c, out):
                batch_noise(spec, n, c, r, out)

        monkeypatch.setattr(core, "WORKERS", workers)
        calls = []

        def counting(fn, items):
            calls.append(len(items))
            return core.parallel_map(fn, items)

        monkeypatch.setattr(harness, "parallel_map", counting)
        S, mask = 4, np.array([True, False, True, True])
        # the smallest block whose refill of all four streams is threaded;
        # the cut falls in the middle of the second block, so the third
        # refill, of three streams and half a block, is serial
        block = -(-harness.PARALLEL_DRAWS // (S * n * d))
        steps, cut = block * 5 // 2, block * 3 // 2
        streams = harness._RowStreams(
            [RngStream(s, STREAM_GRAD) for s in range(S)], fill, block,
            steps, d, n * d)
        reads = []
        for k in range(steps):
            if k == cut:
                streams.keep(mask)
            reads.append(streams.normal().copy())
        want = np.stack([alone(RngStream(s, STREAM_GRAD), steps)
                         for s in range(S)], axis=1)
        assert calls == [S, S]
        assert np.stack(reads[:cut]).tobytes() == want[:cut].tobytes()
        assert np.stack(reads[cut:]).tobytes() == want[cut:, mask].tobytes()


def count_rows(fn, counts, name):
    """`fn`, counting under `name` the points it is called on."""
    def counted(x):
        counts[name] += 1 if x.ndim == 1 else len(x)
        return fn(x)
    return counted


class TestOraclePasses:
    """Each step evaluates the objective once per live row, through one
    eval_fg call on all of them, and a run builds its noise profile
    once."""

    @pytest.mark.parametrize("name", ["sgd", "logistic-hybrid-pre",
                                      "mlp-dithered-pre", "diverging-edge"])
    def test_one_fused_call_per_row_and_step(self, name):
        cfg = BATCH_CONFIGS[name]
        problem = build_problem(cfg)
        counts = Counter()
        counted = replace(problem, **{
            attr: count_rows(getattr(problem, attr), counts, attr)
            for attr in ("eval_f", "eval_grad", "eval_fg")})
        recs = run_seeds(cfg, (1, 0, 2), counted)
        # a diverging seed is evaluated at the step whose f overflowed and
        # needs no final f
        assert counts["eval_fg"] == sum(
            r.oracle_calls + 1 if r.diverged else r.steps for r in recs)
        assert counts["eval_f"] == sum(not r.diverged for r in recs)
        assert counts["eval_grad"] == 0
        assert any(r.diverged for r in recs) == (name == "diverging-edge")

    @pytest.mark.parametrize("name", ["logistic-hybrid-pre",
                                      "mlp-dithered-pre"])
    def test_one_call_on_all_rows_per_step(self, name):
        cfg = BATCH_CONFIGS[name]
        problem = build_problem(cfg)
        calls = Counter()

        def counted(attr):
            def call(x):
                calls[attr] += 1
                return getattr(problem, attr)(x)
            return call

        recs = run_seeds(cfg, (1, 0, 2), replace(problem, **{
            attr: counted(attr) for attr in ("eval_f", "eval_grad",
                                             "eval_fg")}))
        assert not any(r.diverged for r in recs)
        assert calls == {"eval_fg": cfg.run.steps, "eval_f": 1}

    @pytest.mark.parametrize("name", ["sgd", "logistic-hybrid-pre"])
    def test_noise_profile_built_once_per_run(self, name, monkeypatch):
        built = []

        def counting(*args):
            built.append(args)
            return SnrProfile(*args)

        monkeypatch.setattr(harness, "SnrProfile", counting)
        run_seeds(BATCH_CONFIGS[name], (0, 1, 2))
        assert len(built) == 1

    def test_phi_with_noise_free_coordinates(self):
        cfg = quad_cfg(sigma=(0.0, 1.0, 0.0, 2.0),
                       optimizer={"algorithm": "signsgdm"},
                       run={"steps": 100, "batch_size": 4})
        recs = run_seeds(cfg, (0, 1), collect_iterates=True)
        problem = build_problem(cfg)
        s = problem.noise.sigma / math.sqrt(4)
        assert s[0] == s[2] == 0.0 < min(s[1], s[3])
        for rec in recs:
            for row in rec.rows:
                g = problem.eval_grad(rec.iterates[row.k])
                assert row.phi == phi_measure(SnrProfile(g, s))
        # the noisy coordinates' g_i^2 / s_i is taken somewhere
        assert any(row.phi < row.l1_grad for rec in recs for row in rec.rows)


def step_order_sum(values):
    """Left to right, as the run adds its steps."""
    total = 0.0
    for v in values:
        total += v
    return total


def diagnostics_block(cfg, seeds):
    """The steps a run measures together: its buffer of (S, d) true
    gradients holds at most BLOCK_BYTES // 8 bytes."""
    return max(1, harness.BLOCK_BYTES // 8 // (8 * len(seeds)
                                               * build_problem(cfg).dim))


class TestBlockDiagnostics:
    """l1 and phi are measured once per block of steps, with every record
    as it is when they are measured step by step."""

    @pytest.mark.parametrize("case", ["one-seed", "diverging"])
    # dim 4: 5-step blocks for 3 seeds and 15-step blocks for one
    @pytest.mark.parametrize("block_bytes", [harness.BLOCK_BYTES,
                                             64 * 4 * 3 * 5])
    def test_sums_stay_in_step_order(self, case, block_bytes):
        if case == "one-seed":
            cfg, seeds = quad_cfg(run={"steps": 3100}), (4,)
        else:
            # seed 0 diverges at step 14, inside a block at either size
            cfg, seeds = edge_cfg(), (1, 0, 2)
            cfg = replace(cfg, run=replace(cfg.run, steps=1100))
        with mock.patch.object(harness, "BLOCK_BYTES", block_bytes):
            block = diagnostics_block(cfg, seeds)
            recs = run_seeds(cfg, seeds)
        assert 2 <= block and cfg.run.steps > 3 * block
        assert [r.diverged for r in recs] == [
            case == "diverging" and r.seed == 0 for r in recs]
        for rec in recs:
            assert [r.k for r in rec.rows] == list(range(rec.oracle_calls))
            assert rec.avg_phi == step_order_sum(
                r.phi for r in rec.rows) / rec.oracle_calls
            assert rec.avg_l1 == step_order_sum(
                r.l1_grad for r in rec.rows) / rec.oracle_calls

    @pytest.mark.parametrize("name", ["theorem", "diverging-edge"])
    def test_measured_once_per_flush(self, name, monkeypatch):
        if name == "theorem":
            cfg, seeds = _theorem_base_config(1.0), tuple(range(20))
        else:
            cfg, seeds = BATCH_CONFIGS[name], SEED_POOL
        calls = Counter()

        def counted(attr):
            fn = getattr(harness, attr)

            def call(*args):
                calls[attr] += 1
                return fn(*args)
            return call

        for attr in ("phi_measure", "l1_norm"):
            monkeypatch.setattr(harness, attr, counted(attr))
        recs = run_seeds(cfg, seeds)
        flushes = (math.ceil(cfg.run.steps / diagnostics_block(cfg, seeds))
                   + sum(r.diverged for r in recs) + 1)
        assert any(r.diverged for r in recs) == (name == "diverging-edge")
        assert 0 < calls["phi_measure"] <= flushes
        assert 0 < calls["l1_norm"] <= flushes


def assert_rows_are(rows, want: str):
    """`repr(rows) == want`, failing at once with the first row that
    differs: pytest's diff of two long reprs can take minutes."""
    if repr(rows) == want:
        return
    pos = 1  # past the list's "["
    for j, row in enumerate(rows):
        got = repr(row)
        if not want.startswith(got, pos):
            pytest.fail(f"row {j} is {got}; the reference has "
                        f"{want[pos:want.find(')', pos) + 1]}")
        pos += len(got) + 2  # past ", "
    pytest.fail(f"the reference has rows past the record's {len(rows)}")


class TestColumnarRecord:
    """A record keeps its recorded steps as columns; its `rows` are the
    rows the one-step-at-a-time reference records, and its CSV survives a
    round trip through `load_csv` and a record built from rows."""

    @staticmethod
    def assert_columns_match_reference(tmp_path, cfgs, seeds, block=None):
        # `block` steps of diagnostics at a time, for the whole batch
        S, d = len(cfgs) * len(seeds), build_problem(cfgs[0]).dim
        block_bytes = 8 * 8 * S * d * block if block else harness.BLOCK_BYTES
        with mock.patch.object(harness, "BLOCK_BYTES", block_bytes):
            recs = run_seeds(cfgs, seeds)
        for j, rec in enumerate(recs):
            cfg, seed = cfgs[j // len(seeds)], seeds[j % len(seeds)]
            assert {len(c) for c in rec.columns.values()} == {len(rec.rows)}
            assert_rows_are(rec.rows, reference.reference_run(cfg, seed)[0])
            path, copy = tmp_path / f"{j}.csv", tmp_path / f"{j}.copy.csv"
            emit_csv(rec, path)
            assert load_csv(path) == rec.rows
            emit_csv(harness.RunRecord(rows=load_csv(path)), copy)
            assert copy.read_bytes() == path.read_bytes()
        return recs

    def test_stride_one(self, tmp_path):
        # 2100 steps cross the CSV writer's thousand-line parts, and
        # 7-step blocks cross many flushes
        cfg = reference.with_optimizer(
            reference.quadratic(steps=2100), algorithm="hybrid",
            t_switch=1000.0, alpha=0.2, dither_mode="pre", eta=0.9)
        for block in (None, 7):
            rec, = self.assert_columns_match_reference(tmp_path, [cfg], (3,),
                                                       block)
            assert rec.columns["k"].tolist() == list(range(2100))
            assert {r.phase for r in rec.rows} == {"sign", "sgd"}

    def test_stride_above_one_keeps_the_last_step(self, tmp_path):
        cfg = reference.with_optimizer(
            reference.quadratic(steps=61, record_stride=7), algorithm="hybrid",
            t_switch=30.0, alpha=0.2, dither_mode="post")
        recs = self.assert_columns_match_reference(tmp_path, [cfg], (0, 5), 4)
        for rec in recs:
            assert rec.columns["k"].tolist() == [*range(0, 61, 7), 60]

    def test_a_row_that_diverges_mid_block(self, tmp_path):
        # seed 0 diverges at step 14 and seed 7 at 24, inside 5-step
        # blocks; their columns stop at the step before
        cfg = reference.with_optimizer(
            reference.EDGE, algorithm="hybrid", t_switch=30.0, eta=0.9,
            alpha=0.1, dither_mode="pre", delta=0.01 * reference.X0_EDGE)
        recs = self.assert_columns_match_reference(tmp_path, [cfg],
                                                   (0, 1, 7), 5)
        assert [r.oracle_calls for r in recs] == [14, 60, 24]
        for rec in recs:
            assert rec.columns["k"].tolist() == list(range(rec.oracle_calls))

    def test_switch_suite_configs_through_a_cut(self, tmp_path):
        # the switch suite's batch, hybrids over a t-grid then SignSGD-M
        # and SGD, runs in switch order; sign steps diverge for seeds 0
        # and 7, which cuts rows out of the middle of that order
        grid = (13.0, 45.0, 30.0)
        opts = [dict(algorithm="hybrid", t_switch=t, eta=0.9, lr=1e-3,
                     delta=0.01 * reference.X0_EDGE) for t in grid]
        opts += [dict(algorithm="signsgdm", delta=0.01 * reference.X0_EDGE),
                 dict(algorithm="sgd", lr=1e-3)]
        cfgs = [reference.with_optimizer(reference.EDGE, **o) for o in opts]
        recs = self.assert_columns_match_reference(tmp_path, cfgs,
                                                   (0, 1, 7), 6)
        assert 0 < sum(r.diverged for r in recs) < len(recs)

    @staticmethod
    def stride_four_batch(*extra):
        # at stride 4 over 60 steps in 5-step blocks: SignSGD's first step
        # overflows (f is inf from step 1), the hybrid's seeds 0 and 7
        # diverge at 14 and at 24, itself a recorded k, and SGD runs on
        edge = replace(reference.EDGE,
                       run=replace(reference.EDGE.run, record_stride=4))
        opts = [dict(algorithm="sgd", lr=1e-3),
                dict(algorithm="signsgd", delta=1e308),
                dict(algorithm="hybrid", t_switch=30.0, eta=0.9, alpha=0.1,
                     dither_mode="pre", delta=0.01 * reference.X0_EDGE),
                *extra]
        return [reference.with_optimizer(edge, **o) for o in opts]

    def test_length_is_the_recorded_steps_below_oracle_calls(self, tmp_path):
        cfgs = self.stride_four_batch()
        recs = self.assert_columns_match_reference(tmp_path, cfgs,
                                                   (0, 1, 7), 5)
        assert [r.oracle_calls for r in recs] == [60] * 3 + [1] * 3 + [
            14, 60, 24]
        ks = [*range(0, 60, 4), 59]
        for rec in recs:
            below = [k for k in ks if k < rec.oracle_calls]
            assert rec.columns["k"].tolist() == below
            assert [len(c) for c in rec.columns.values()] == (
                [len(below)] * len(harness.ROW_FIELDS))

    def test_phase_and_lambda_follow_from_k_and_the_config(self, tmp_path):
        # the stride-4 batch and a bias-corrected hybrid that switches at
        # 2.5, between its recorded steps 0 and 4
        cfgs = self.stride_four_batch(dict(
            algorithm="hybrid", t_switch=2.5, eta=0.9,
            lambda_bias_correction=True, delta=0.01 * reference.X0_EDGE))
        recs = self.assert_columns_match_reference(tmp_path, cfgs,
                                                   (0, 1, 7), 5)
        for j, rec in enumerate(recs):
            params = optimizers.preset(cfgs[j // 3].optimizer)
            cols = rec.columns
            codes = optimizers.phase_codes(cols["k"], params.t_switch)
            assert cols["phase"].dtype == codes.dtype
            assert cols["phase"].tolist() == codes.tolist()
            silent = (cols["phase"] == 1) | (not params.momentum)
            assert not cols["lam"][silent].any()
        # the new hybrid's sign step 0 records its lambda, its SGD steps 0
        assert all(r.columns["lam"][0] > 0 for r in recs[-3:])
        assert all(r.columns["phase"].tolist() == [0] + [1] * 15
                   for r in recs[-3:])

    def test_an_empty_record_has_every_column(self):
        # f(x0) overflows, so every row dies at step 0 and records nothing
        cfg = reference.with_optimizer(
            replace(reference.EDGE, problem=replace(
                reference.EDGE.problem, x0=(1e300,))), algorithm="signsgdm")
        recs = run_seeds([cfg, cfg], (0, 1))
        assert [r.oracle_calls for r in recs] == [0] * 4
        for rec in [harness.RunRecord(), harness.RunRecord(rows=[]), *recs]:
            assert list(rec.columns) == list(harness.ROW_FIELDS)
            assert [len(c) for c in rec.columns.values()] == (
                [0] * len(harness.ROW_FIELDS))
            assert rec.rows == []

    def test_every_record_has_the_engines_dtypes(self, tmp_path):
        want = [("k", np.int64), *((name, np.float64) for name in
                                   harness.ROW_FIELDS[1:-1]),
                ("phase", np.int8)]
        live = run_single(quad_cfg(run={"steps": 1}), 0)
        path = tmp_path / "one.csv"
        emit_csv(live, path)
        # f(x0) overflows, so the run records nothing
        dead = run_single(reference.with_optimizer(
            replace(reference.EDGE, problem=replace(
                reference.EDGE.problem, x0=(1e300,))), algorithm="sgd"), 0)
        ints = harness.Row(0, 1, 2, 3, 4, 5, 6, "sgd")
        assert len(load_csv(path)) == 1 and dead.oracle_calls == 0
        for rec in (harness.RunRecord(), harness.RunRecord(rows=[]),
                    harness.RunRecord(rows=load_csv(path)),
                    harness.RunRecord(rows=[ints]), live, dead):
            assert [(name, c.dtype) for name, c in rec.columns.items()] == (
                want)

    def test_a_record_built_from_rows_keeps_them(self, tmp_path):
        rec = run_single(quad_cfg(run={"steps": 5}), 0)
        rows = list(rec.rows)
        again = harness.RunRecord(rows=rows)
        assert again.rows is rows
        # rows is still the first positional field
        assert harness.RunRecord(rows, seed=4).rows is rows
        assert "columns" not in again.summary()
        assert "columns" not in rec.summary()
        empty = tmp_path / "empty.csv"
        emit_csv(harness.RunRecord(), empty)
        assert empty.read_text() == CSV_HEADER + "\n"
        assert harness.RunRecord().rows == []


class TestLambdaAtSwitch:
    """A hybrid record's `lambda_at_switch` is read off its recorded rows:
    NaN exactly when no row took an SGD step, else the EMA on the first
    SGD row, which the SGD phase holds frozen."""

    @staticmethod
    def assert_read_off_rows(rec):
        sgd = [r for r in rec.rows if r.phase == "sgd"]
        if sgd:
            assert repr(rec.lambda_at_switch) == repr(sgd[0].lambda_ema)
        else:
            assert math.isnan(rec.lambda_at_switch)

    def test_switch_points_in_one_batch(self):
        K = 20
        grid = (0.0, 2.5, K - 1.0, K - 0.5, float(K), math.inf)
        base = quad_cfg(optimizer={"algorithm": "hybrid",
                                   "lambda_init": 0.01},
                        run={"steps": K})
        cfgs = [replace(base, optimizer=replace(base.optimizer, t_switch=t))
                for t in grid]
        cfgs.append(replace(base, optimizer=replace(base.optimizer,
                                                    algorithm="sgd")))
        seeds = (0, 1)
        recs = run_seeds(cfgs, seeds)
        for rec in recs[:-len(seeds)]:
            self.assert_read_off_rows(rec)
        switched = [math.isfinite(r.lambda_at_switch) for r in recs]
        assert switched == [True] * 6 + [False] * 6 + [False] * 2
        # SGD steps from the start, with no EMA to freeze
        assert all(r.rows[0].phase == "sgd" for r in recs[-len(seeds):])

    # at 30, seeds 0 and 7 diverge before the switch; at 13, seed 0
    # diverges at step 54, after it
    @pytest.mark.parametrize("t_switch", [30.0, 13.0])
    def test_diverging_edge_seeds(self, t_switch):
        cfg = edge_cfg()
        cfg = replace(cfg, optimizer=replace(cfg.optimizer,
                                             t_switch=t_switch))
        recs = run_seeds(cfg, SEED_POOL)
        assert any(r.diverged for r in recs)
        for rec in recs:
            assert len(rec.rows) == rec.oracle_calls
            self.assert_read_off_rows(rec)


class TestStepWork:
    def test_lambda_calibration_sees_only_the_sign_rows(self, monkeypatch):
        """In a switch-suite-style batch each momentum row passes through
        the lambda calibration (its inner product <sign m, g>) once per
        sign step, min(K, ceil(t_switch)) times, not once per step."""
        rows = []

        def counting(a, b):
            rows.append(len(a))
            return inner(a, b)

        monkeypatch.setattr(optimizers, "inner", counting)
        K, grid, seeds = 40, (25.0, 2.5, 60.0, 25.0), (0, 1)
        base = quad_cfg(run={"steps": K})
        cfgs = [replace(base, optimizer=OptimizerSpec(**opt)) for opt in (
            [{"algorithm": "hybrid", "t_switch": t} for t in grid]
            + [{"algorithm": "signsgdm"}, {"algorithm": "sgd"}])]
        run_seeds(cfgs, seeds)
        # signsgdm never switches, and sgd never takes a sign step
        sign_steps = [min(K, math.ceil(t)) for t in grid] + [K, 0]
        assert sum(rows) == len(seeds) * sum(sign_steps)


class TestSuites:
    def test_switch_suite_runs_one_batch(self, monkeypatch):
        calls = []

        def counting(cfgs, *args, **kwargs):
            calls.append([c.optimizer for c in cfgs])
            return run_seeds(cfgs, *args, **kwargs)

        monkeypatch.setattr(harness, "run_seeds", counting)
        cfg = quad_cfg(optimizer={"algorithm": "hybrid"}, run={"steps": 30})
        report = run_switch_suite(cfg, (5, 2.5, 30), (0, 1))
        assert len(calls) == 1
        assert [(o.algorithm, o.t_switch) for o in calls[0]] == [
            ("hybrid", 5.0), ("hybrid", 2.5), ("hybrid", 30.0),
            ("signsgdm", math.inf), ("sgd", math.inf)]
        assert [e["t_switch"] for e in report["entries"]] == [5, 2.5, 30]
        # the run ends at step 29, before the switch at 30
        assert math.isnan(report["entries"][2]["median_lambda_at_switch"])

    def test_switch_suite_keeps_an_unsorted_grid_in_order(self):
        # the batch steps its rows in switch order; the report does not
        cfg = quad_cfg(optimizer={"algorithm": "hybrid"}, run={"steps": 30})
        grid, seeds = (20, 5, 20, 0), (0, 1)
        report = run_switch_suite(cfg, grid, seeds)
        assert [e["t_switch"] for e in report["entries"]] == list(grid)
        for entry, t in zip(report["entries"], grid):
            alone = run_switch_suite(cfg, (t,), seeds)
            assert repr(entry) == repr(alone["entries"][0])
            for key in ("signsgdm_median_final_f", "sgd_median_final_f"):
                assert repr(report[key]) == repr(alone[key])

    def test_switch_suite_counts_diverged_runs(self):
        # SGD at lr 1 on curvature 3 doubles x every step and overflows f;
        # the sign steps of the hybrids and SignSGD-M stay finite
        cfg = quad_cfg(sigma=(0.0,), optimizer={"algorithm": "sgd",
                                                "lr": 1.0},
                       run={"steps": 50})
        cfg = replace(cfg, problem=replace(cfg.problem, x0=(1e150,),
                                           lipschitz=(3.0,)))
        seeds = (0, 1, 2)
        report = run_switch_suite(cfg, (0, 1000), seeds)
        assert [e["diverged"] for e in report["entries"]] == [0, 0]
        assert report["signsgdm_diverged"] == 0
        assert report["sgd_diverged"] == len(seeds)
        assert report["best"]["diverged"] == 0
        # a run that diverges at step 0 counts too
        at_zero = replace(cfg, problem=replace(cfg.problem, x0=(1e308,)))
        report = run_switch_suite(at_zero, (2,), seeds)
        assert [e["diverged"] for e in report["entries"]] == [3]
        assert report["signsgdm_diverged"] == report["sgd_diverged"] == 3
        json.dumps(report)

    def test_switch_suite_reports_nan_when_no_run_switches(self):
        # every hybrid run diverges before its switch
        cfg = quad_cfg(optimizer={"algorithm": "hybrid", "delta": 1e200},
                       run={"steps": 20})
        report = run_switch_suite(cfg, (5, 10), (0, 1))
        assert all(math.isnan(e["median_lambda_at_switch"])
                   for e in report["entries"])

    def test_theorem_suite_rejects_step_decay(self):
        cfg = quad_cfg(run={"steps": 30, "decay_every": 10,
                            "decay_factor": 0.5})
        with pytest.raises(ConfigError):
            run_theorem_suite(cfg, (0,), (10,), (1,))

    def test_theorem_suite_fails_a_cell_whose_run_diverged(self):
        cfg = quad_cfg(sigma=(0.0,), optimizer={"algorithm": "sgd",
                                                "lr": 1.0},
                       run={"steps": 50})
        cfg = replace(cfg, problem=replace(cfg.problem, x0=(1e150,)))
        assert run_single(cfg, 0).diverged
        report = run_theorem_suite(cfg, (0, 1), (50,), (1,))
        [cell] = report["cells"]
        # the averages up to the divergence are within both bounds
        assert cell["avg_phi"] <= cell["rhs_phi"]
        assert cell["avg_l1"] <= cell["rhs_l1"]
        assert not cell["passed"] and not report["passed"]

    def test_theorem_cells_count_their_diverged_runs(self):
        cfg = quad_cfg(sigma=(0.0,), optimizer={"algorithm": "sgd",
                                                "lr": 1.0})
        cfg = replace(cfg, problem=replace(cfg.problem, x0=(1e150,)))
        report = run_theorem_suite(cfg, (0, 1, 2), (5, 50), (1,))
        held, diverged = report["cells"]
        assert held["diverged"] == 0 and held["passed"]
        assert diverged["diverged"] == 3 and not diverged["passed"]

    def test_theorem_suite_rejects_an_overflowing_sigma_sum(self):
        cfg = quad_cfg(sigma=(1e308,))
        with pytest.raises(ConfigError,
                           match="finite sum of sigma, got inf"):
            run_theorem_suite(cfg, (0,), (5,), (1,))

    def test_theorem_suite_rejects_non_finite_f0(self):
        cfg = quad_cfg()
        cfg = replace(cfg, problem=replace(cfg.problem, x0=(1e300,)))
        with pytest.raises(ConfigError, match=r"finite f\(x0\), got inf"):
            run_theorem_suite(cfg, (0, 1), (5,), (1,))

    @pytest.mark.parametrize("run, name", [
        (lambda cfg: run_seeds([]), "cfg"),
        (lambda cfg: run_theorem_suite(cfg, (), (5,), (1,)), "seeds"),
        (lambda cfg: run_theorem_suite(cfg, (0,), (), (1,)), "k_grid"),
        (lambda cfg: run_theorem_suite(cfg, (0,), (5,), ()), "n_grid"),
        (lambda cfg: run_switch_suite(cfg, (), (0,)), "t_switch_grid"),
        (lambda cfg: run_switch_suite(cfg, (5,), ()), "seeds"),
    ], ids=["run-seeds-no-configs", "theorem-no-seeds", "theorem-no-k",
            "theorem-no-n", "switch-no-grid", "switch-no-seeds"])
    def test_entry_points_reject_empty_input(self, run, name):
        # a suite over nothing would pass having checked nothing
        with pytest.raises(ValueError, match=f"^{name} is empty$"):
            run(quad_cfg(optimizer={"algorithm": "hybrid"},
                         run={"steps": 10}))

    def test_no_seeds_give_no_records(self):
        assert run_seeds(quad_cfg(), ()) == []

    @pytest.mark.parametrize("run", [
        lambda cfg: run_seeds(cfg, (-1,)),
        lambda cfg: run_seeds(cfg, (1.5,)),
        lambda cfg: run_seeds(cfg, (True,)),
        lambda cfg: run_seeds(cfg, (2**70,)),
        lambda cfg: run_single(cfg, -1),
        lambda cfg: run_switch_suite(cfg, (5,), (0, 1.5)),
    ], ids=["negative", "fractional", "bool", "too-big", "run-single",
            "switch-suite"])
    def test_seeds_passed_directly_are_checked(self, run):
        # noiseless and undithered: no random stream would see the seed
        cfg = quad_cfg(sigma=(0.0,), optimizer={"algorithm": "hybrid"},
                       run={"steps": 10})
        with pytest.raises(ValueError, match="seeds"):
            run(cfg)

    def test_theorem_mode_rejects_zero_lipschitz_sum(self):
        cfg = replace(quad_cfg(run={"theorem_mode": True}),
                      problem=ProblemSpec(lipschitz=(0.0,)))
        with pytest.raises(ConfigError):
            run_single(cfg, 0)


class TestSerialization:
    def test_csv_header_is_exact(self):
        assert CSV_HEADER == "k,f,l1_grad,phi,lambda,lambda_ema,sigma_dither_sq,phase"

    def test_csv_roundtrip(self, tmp_path):
        cfg = quad_cfg(optimizer={"algorithm": "hybrid", "t_switch": 60.0,
                                  "alpha": 0.1, "dither_mode": "pre"})
        rec = run_single(cfg, 9)
        path = tmp_path / "run.csv"
        emit_csv(rec, path)
        header = path.read_text().splitlines()[0]
        assert header == CSV_HEADER
        rows = load_csv(path)
        assert rows == rec.rows
        assert {r.phase for r in rows} == {"sign", "sgd"}

    def test_csv_writes_every_float_as_its_repr_digits(self, tmp_path):
        """The bytes of one f-string per line, `{x:.17g}` for each float,
        over more than one block of a thousand lines."""
        values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300,
                  -1e300, 0.1, 1.0 / 3.0]
        rows = [harness.Row(k, *(values[(k + j) % len(values)]
                                 for j in range(6)), ("sign", "sgd")[k % 2])
                for k in range(2500)]
        path = tmp_path / "run.csv"
        emit_csv(harness.RunRecord(rows=rows), path)
        want = "".join(
            f"{r.k},{r.f:.17g},{r.l1_grad:.17g},{r.phi:.17g},{r.lam:.17g},"
            f"{r.lambda_ema:.17g},{r.sigma_dither_sq:.17g},{r.phase}\n"
            for r in rows)
        assert path.read_bytes() == (CSV_HEADER + "\n" + want).encode()

    def test_wrong_header_is_named(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text("k,f\n0,1\n")
        with pytest.raises(ValueError, match="^unexpected CSV header: 'k,f'$"):
            load_csv(path)

    @pytest.mark.parametrize("row", ["0,1.0,2.0",
                                     "0,1,2,3,4,5,6,sign,7"])
    def test_row_with_wrong_field_count_names_its_line(self, tmp_path, row):
        path = tmp_path / "run.csv"
        path.write_text(f"{CSV_HEADER}\n0,1,2,3,4,5,6,sign\n{row}\n")
        with pytest.raises(ValueError, match="^line 3: "):
            load_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("1,x,2,3,4,5,6,sign", "could not convert string to float: 'x'"),
        ("1.5,1,2,3,4,5,6,sign", "invalid literal for int"),
        ("1,1,2,3,4,5,6,bogus", "unknown phase 'bogus'"),
        ("1,1,2,3,4,5,6,", "unknown phase ''"),
    ])
    def test_bad_field_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "run.csv"
        path.write_text(f"{CSV_HEADER}\n0,1,2,3,4,5,6,sgd\n{row}\n")
        with pytest.raises(ValueError, match=f"^line 3: {message}"):
            load_csv(path)

    def test_config_roundtrip(self):
        cfg = quad_cfg(optimizer={"algorithm": "dithered", "alpha": 0.3,
                                  "dither_mode": "post", "epsilon": 1e-12})
        assert parse_config(serialize_config(cfg)) == cfg

    def test_json_summary(self, tmp_path):
        cfg = quad_cfg(optimizer={"algorithm": "sgd", "lr": 0.1})
        rec = run_single(cfg, 1)
        out = tmp_path / "summary.json"
        emit_json(run_summary(cfg, rec), out)
        import json
        loaded = json.loads(out.read_text())
        assert loaded["seed"] == 1
        assert loaded["final_f"] == rec.final_f
        assert parse_config(loaded["config"]) == cfg

    def test_json_is_strict(self, tmp_path):
        """A run that never switches has a NaN lambda_at_switch; the summary
        writes it as null, so a strict parser reads the file."""
        cfg = quad_cfg(optimizer={"algorithm": "signsgdm"})
        rec = run_single(cfg, 1)
        assert math.isnan(rec.lambda_at_switch)
        out = tmp_path / "summary.json"
        emit_json(run_summary(cfg, rec), out)

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        loaded = json.loads(out.read_text(), parse_constant=reject)
        assert loaded["lambda_at_switch"] is None
        assert loaded["final_f"] == rec.final_f

    def test_json_nests_non_finite_as_null(self, tmp_path):
        out = tmp_path / "report.json"
        emit_json({"cells": [{"avg": math.inf, "rhs": (1.5, -math.inf)}],
                   "median": math.nan, "passed": True}, out)
        assert json.loads(out.read_text(), parse_constant=float) == {
            "cells": [{"avg": None, "rhs": [1.5, None]}], "median": None,
            "passed": True}


class TestConfigParsing:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("problem.unknown = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("mystery.dim = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("run.steps = soon\n")

    def test_bad_algorithm_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("optimizer.algorithm = adam\n")

    def test_comments_and_blank_lines_ok(self):
        cfg = parse_config("# a comment\n\nproblem.dim = 3\n"
                           "problem.lipschitz = 1.0\nrun.steps = 10\n")
        assert cfg.problem.dim == 3
        assert cfg.run.steps == 10

    def test_byte_order_mark_is_dropped(self, tmp_path):
        text = "problem.dim = 3\nrun.steps = 10\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_config(marked) == load_config(plain)
        assert load_config(plain).problem.dim == 3

    def test_bad_byte_after_a_byte_order_mark_is_named_by_its_offset(
            self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"\xef\xbb\xbfrun.steps = 10 # \xff\n")
        with pytest.raises(ConfigError, match="at byte 20"):
            load_config(path)

    def test_infinity_roundtrip(self):
        cfg = ExperimentConfig()
        text = serialize_config(cfg)
        assert "optimizer.t_switch = inf" in text
        assert parse_config(text).optimizer.t_switch == math.inf

    def test_optimizer_values_rejected_at_parse_time(self):
        # theorem mode overrides delta at run time, but the configured
        # value must still be valid
        for text in ("optimizer.delta = 0\nrun.theorem_mode = true\n",
                     "optimizer.lr = -1\nrun.theorem_mode = true\n",
                     "optimizer.beta = 1.5\n"):
            with pytest.raises(ConfigError):
                parse_config(text)

    @pytest.mark.parametrize("run", [
        {"batch_size": 2**62},
        {"theorem_mode": True, "decay_every": 10},
        {"decay_every": 1, "decay_factor": 0.1},    # delta underflows
        {"decay_every": 1, "decay_factor": 10.0},   # delta overflows
    ], ids=["batch-size", "theorem-mode-decay", "decay-underflow",
            "decay-overflow"])
    def test_cross_section_rules_raise_config_error(self, run):
        cfg = quad_cfg(run={"steps": 1000})
        spec = replace(cfg.run, **run)  # valid on its own
        with pytest.raises(ConfigError):
            replace(cfg, run=spec)

    @pytest.mark.parametrize("key, value", [
        ("problem.dim", 0), ("optimizer.beta", 1.5), ("run.steps", 0),
        ("run.batch_size", 2**62),  # an ExperimentConfig rule
    ], ids=["problem", "optimizer", "run", "experiment"])
    def test_replace_fails_as_the_parser_does(self, key, value):
        with pytest.raises(ConfigError) as parsed:
            parse_config(f"{key} = {value}\n")
        section, name = key.split(".")
        cfg = ExperimentConfig()
        with pytest.raises(ConfigError) as replaced:
            spec = replace(getattr(cfg, section), **{name: value})
            replace(cfg, **{section: spec})
        assert str(replaced.value) == str(parsed.value)

    def test_n_params_counts_mlp_weights_and_biases(self):
        spec = ProblemSpec(kind="mlp", layer_widths=(2, 8, 1))
        assert spec.n_params == 2 * 8 + 8 + 8 * 1 + 1
        assert ProblemSpec(dim=7).n_params == 7
        cfg = ExperimentConfig(problem=replace(spec, sigma=(0.5,) * 33))
        assert build_problem(cfg).dim == 33
        with pytest.raises(ValueError):
            replace(spec, x0=(0.0,) * 10)  # 1 or 33 entries, for every kind

    def test_readme_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = parse_config(block)
        assert cfg.optimizer.algorithm == "hybrid"
        assert len(build_problem(cfg).lipschitz) == cfg.problem.dim

    @pytest.mark.parametrize("make", [
        lambda: RunSpec(steps=2.5),
        lambda: RunSpec(steps=True),
        lambda: RunSpec(batch_size=2.0),
        # at 12 steps a stride of 1.5 recorded k = 0, 3, 6, 9, 11, and a
        # decay every 2.5 steps decayed at k = 5 and 10
        lambda: RunSpec(record_stride=1.5),
        lambda: RunSpec(decay_every=2.5),
        lambda: RunSpec(seeds=(1.5,)),
        lambda: RunSpec(seeds=(True,)),
        lambda: ProblemSpec(dim=2.5),
        lambda: ProblemSpec(n_points=True),
        lambda: ProblemSpec(dataset_seed=1.5),
        lambda: ProblemSpec(kind="mlp", layer_widths=(2, 8.0, 1)),
    ], ids=["steps-fractional", "steps-bool", "batch-size-float",
            "record-stride-fractional", "decay-every-fractional",
            "seed-fractional", "seed-bool", "dim-fractional",
            "n-points-bool", "dataset-seed-fractional", "width-float"])
    def test_counts_and_seeds_are_integers(self, make):
        with pytest.raises(ConfigError):
            make()

    @pytest.mark.parametrize("section, values", [
        ("problem", {"dim": 2, "lipschitz": [1.0, 2.0]}),
        ("problem", {"dim": 2, "lipschitz": np.array([1.0, 2.0])}),
        ("problem", {"kind": "mlp", "layer_widths": [2, 3, 1]}),
        ("optimizer", {"lambda_bias_correction": np.True_}),
        ("optimizer", {"delta": np.float32(0.1)}),
        ("run", {"seeds": np.array([1, 2])}),
    ], ids=["list", "array", "width-list", "numpy-bool", "float32",
            "seed-array"])
    def test_sections_store_what_the_parser_gives(self, section, values):
        base = ExperimentConfig(run=RunSpec(steps=20))
        spec = replace(getattr(base, section), **values)
        cfg = replace(base, **{section: spec})
        parsed = parse_config(serialize_config(cfg))
        assert parsed == cfg and hash(parsed) == hash(cfg)
        for part in (cfg.problem, cfg.optimizer, cfg.run):
            for f in fields(part):
                value = getattr(part, f.name)
                assert type(value) is type(f.default), f.name
                if isinstance(value, tuple):
                    assert {type(v) for v in value} == {type(f.default[0])}
        assert ([record_key(r) for r in run_seeds(cfg, collect_iterates=True)]
                == [record_key(r)
                    for r in run_seeds(parsed, collect_iterates=True)])

    @pytest.mark.parametrize("key, make", [
        ("run.theorem_mode", lambda: RunSpec(theorem_mode="false")),
        ("optimizer.delta", lambda: OptimizerSpec(delta=True)),
        ("optimizer.delta", lambda: OptimizerSpec(delta="0.1")),
        # past the float range, so not finite
        ("optimizer.delta", lambda: OptimizerSpec(delta=10**400)),
        ("optimizer.t_switch", lambda: OptimizerSpec(t_switch=None)),
        ("optimizer.lambda_bias_correction",
         lambda: OptimizerSpec(lambda_bias_correction=1)),
        ("problem.sigma", lambda: ProblemSpec(sigma=0.5)),
        ("problem.lipschitz", lambda: ProblemSpec(lipschitz="1")),
        ("problem.x0", lambda: ProblemSpec(x0=np.ones((1, 1)))),
        ("problem.layer_widths",
         lambda: ProblemSpec(kind="mlp", layer_widths=3)),
        # no rule reads a quadratic's widths, but the parser takes ints
        ("problem.layer_widths",
         lambda: ProblemSpec(layer_widths=(2, 8.5, 1))),
        ("run.seeds", lambda: RunSpec(seeds=3)),
        # a section of ExperimentConfig is its section's class
        ("problem", lambda: ExperimentConfig(problem=None)),
        ("problem", lambda: ExperimentConfig(problem={"dim": 3})),
        ("run", lambda: ExperimentConfig(run=OptimizerSpec())),
    ], ids=["flag-str", "float-bool", "float-str", "float-huge-int",
            "float-none", "flag-int", "vector-float", "vector-str",
            "vector-2d", "widths-int", "widths-quadratic", "seeds-int",
            "section-none", "section-dict", "section-class"])
    def test_values_of_the_wrong_kind_name_their_key(self, key, make):
        with pytest.raises(ConfigError, match=re.escape(key)):
            make()

    def test_numpy_counts_and_seeds_run_as_python_ints(self):
        def cfg(count, seed):
            return ExperimentConfig(
                problem=ProblemSpec(kind="logistic", dim=count(5),
                                    n_points=count(30),
                                    dataset_seed=seed(7), x0=(0.0,),
                                    sigma=(0.5,)),
                optimizer=OptimizerSpec(algorithm="hybrid", alpha=0.1,
                                        dither_mode="pre", t_switch=20.0),
                run=RunSpec(steps=count(60), batch_size=count(3),
                            seeds=(seed(3), seed(2**60 + 1)),
                            record_stride=count(2), decay_every=count(25),
                            decay_factor=0.9))

        python = run_seeds(cfg(int, int), collect_iterates=True)
        numpy = run_seeds(cfg(np.int64, np.uint64), collect_iterates=True)
        for rec in numpy:  # sums over a numpy step count: numpy floats
            rec.avg_phi, rec.avg_l1 = float(rec.avg_phi), float(rec.avg_l1)
        assert ([record_key(r) for r in numpy]
                == [record_key(r) for r in python])

    def test_numpy_counts_leave_python_numbers_in_records_and_reports(
            self, tmp_path):
        # so that a summary or a suite report serializes as JSON
        cfg = ExperimentConfig(run=RunSpec(steps=np.int64(20),
                                           seeds=(np.uint64(3),)))
        for rec in run_seeds(cfg) + run_seeds(cfg, (np.uint64(4),)):
            assert [type(v) for v in (rec.steps, rec.oracle_calls, rec.seed,
                                      rec.avg_phi, rec.avg_l1)] == [
                int, int, int, float, float]
            emit_json(run_summary(cfg, rec), tmp_path / "run.json")
        report = run_theorem_suite(cfg, (0,), (np.int64(10),),
                                   (np.int64(1),))
        [cell] = report["cells"]
        assert type(cell["K"]) is int and type(cell["n"]) is int
        json.dumps(report)
        report = run_switch_suite(cfg, (np.int64(5),), (0,))
        assert [type(e["t_switch"]) for e in report["entries"]] == [int]
        assert type(report["best"]["t_switch"]) is int
        json.dumps(report)
