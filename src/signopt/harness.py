"""Experiment runner: seeded trajectories, run for many seeds at once,
multi-seed suites, CSV/JSON output.

Per-step diagnostics (the l1 gradient norm and the SNR-weighted measure)
are always computed from the TRUE gradient at the current iterate and the
known batch noise scale, never from the stochastic sample, and the summary
averages cover every step regardless of the recording stride.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .core import RngStream, STREAM_DITHER, STREAM_GRAD, l1_norm
from .config import (ConfigError, ExperimentConfig, build_problem,
                     initial_point, serialize_config)
from .dither import dither_sigma_sq
# lambda_project and the five *_step presets are not called here;
# perfbench/tracing.py wraps them under this module's name
from .optimizers import (column_of, dithered_step, hybrid_step, init_state,
                         lambda_project, preset, sgd_step, signsgd_step,
                         signsgdm_step, stack_params, step)
# stochastic_grad is not called here either; perfbench/tracing.py wraps it
from .problems import Problem, batch_noise, stochastic_grad
from .theory import SnrProfile, phi_measure

CSV_HEADER = "k,f,l1_grad,phi,lambda,lambda_ema,sigma_dither_sq,phase"

AUTO_STRIDE_LIMIT = 10_000

# `run_seeds` draws random numbers a block of steps ahead. A block holds at
# most this many bytes of one seed's noise draws (n * d a step) and of the
# draws of all S seeds (S * d a step), so memory does not grow with steps.
BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class Row:
    k: int
    f: float
    l1_grad: float
    phi: float
    lam: float
    lambda_ema: float
    sigma_dither_sq: float
    phase: str


@dataclass
class RunRecord:
    rows: list = field(default_factory=list)
    iterates: list = field(default_factory=list)  # filled on request only
    seed: int = 0
    steps: int = 0
    final_f: float = math.nan
    avg_phi: float = math.nan
    avg_l1: float = math.nan
    delta_used: float = math.nan
    lambda_at_switch: float = math.nan
    oracle_calls: int = 0
    diverged: bool = False
    wall_time: float = 0.0

    def summary(self) -> dict:
        return {
            "seed": self.seed,
            "steps": self.steps,
            "final_f": self.final_f,
            "avg_phi": self.avg_phi,
            "avg_l1": self.avg_l1,
            "delta_used": self.delta_used,
            "lambda_at_switch": self.lambda_at_switch,
            "oracle_calls": self.oracle_calls,
            "diverged": self.diverged,
            "wall_time": self.wall_time,
        }


def default_stride(steps: int) -> int:
    if steps <= AUTO_STRIDE_LIMIT:
        return 1
    return math.ceil(steps / AUTO_STRIDE_LIMIT)


def theorem_delta(problem: Problem, steps: int) -> float:
    """Constant stepsize 1/sqrt(L1 * K) prescribed by the rate theorem."""
    l1_k = float(np.sum(problem.lipschitz)) * steps
    if not 0 < l1_k < math.inf:
        raise ConfigError(f"theorem mode needs 0 < L1 * K < inf, got {l1_k}")
    return 1.0 / math.sqrt(l1_k)


def run_single(cfg: ExperimentConfig, seed: int,
               problem: Problem | None = None,
               collect_iterates: bool = False) -> RunRecord:
    """Execute one seeded trajectory of the configured optimizer."""
    return run_seeds(cfg, (seed,), problem, collect_iterates)[0]


class _RowStreams:
    """One random stream per row of a batched state, read one (S, d) draw
    per call and drawn up to `block` calls ahead in one call per stream.
    Each stream yields exactly the values it yields when drawn one step at
    a time, so a row's results do not depend on the batch it is in."""

    def __init__(self, streams: list, draw, block: int, limit: int):
        self.streams = streams
        self.draw = draw        # (stream, count) -> (count, d) array
        self.block = block
        self.left = limit       # the most draws still to be read
        self.buf = np.empty((0,))
        self.pos = 0

    def next(self) -> np.ndarray:
        if self.pos == len(self.buf):
            count = min(self.block, self.left)
            self.buf = np.stack([self.draw(r, count) for r in self.streams],
                                axis=1)
            self.pos = 0
        self.pos += 1
        self.left -= 1
        return self.buf[self.pos - 1]

    def normal(self, size=None) -> np.ndarray:
        """The next standard-normal draw of every row: the step rules'
        dither stream."""
        return self.next()

    def keep(self, rows: np.ndarray) -> None:
        self.streams = [r for r, k in zip(self.streams, rows) if k]
        if self.pos < len(self.buf):
            self.buf = self.buf[:, rows]


def _row_values(v, rows: int) -> list:
    """A per-row state value (one value or an (S,) array) as S values."""
    return v.tolist() if isinstance(v, np.ndarray) else [v] * rows


def _keep_rows(obj, rows: np.ndarray):
    """A state or step parameters cut to the given rows: every per-row
    array field keeps those rows."""
    return replace(obj, **{f.name: v[rows] for f in fields(obj)
                           if isinstance(v := getattr(obj, f.name),
                                         np.ndarray)})


def _finish(rec: RunRecord, steps: int, sum_phi: float, sum_l1: float,
            f: float, lambda_ema: float, switch_step) -> None:
    """Close a record after `steps` steps. A row that took its first SGD
    step (`switch_step`) has held its EMA frozen since: that is the
    lambda it switched at."""
    rec.oracle_calls = steps
    rec.final_f = f
    rec.diverged = not math.isfinite(f)
    rec.avg_phi = sum_phi / max(steps, 1)
    rec.avg_l1 = sum_l1 / max(steps, 1)
    if switch_step < steps:
        rec.lambda_at_switch = lambda_ema


def run_seeds(cfg, seeds=None, problem: Problem | None = None,
              collect_iterates: bool = False) -> list:
    """Execute the configured optimizer for every seed in one loop.

    `cfg` is one config, or a list of configs that differ only in their
    optimizer section; then every config runs every seed, and the records
    come config by config, each in seed order. The iterates and momenta of
    the live rows are (S, d) arrays that each step advances with one
    numpy call per operation, and the rows' optimizer parameters are
    columns where the configs differ. Each step makes one `eval_fg` call
    on all live rows, and the run one `eval_f` call for the final f. Each
    row draws from its seed's own Philox gradient and dither streams, a
    block of steps at a time, so every record is bitwise the one the seed
    gives alone under its config.
    A row whose f overflows stops at that step and leaves the batch. Each
    record's `wall_time` is the elapsed time of the whole batch.
    """
    t0 = time.perf_counter()
    cfgs = [cfg] if isinstance(cfg, ExperimentConfig) else list(cfg)
    base = cfgs[0]
    if any(c.problem != base.problem or c.run != base.run for c in cfgs):
        raise ValueError("configs run together must share their problem "
                         "and run sections")
    seeds = tuple(base.run.seeds if seeds is None else seeds)
    if not seeds:
        return []
    if problem is None:
        problem = build_problem(base)
    run = base.run
    opts = [c.optimizer for c in cfgs]
    K = run.steps
    n = run.batch_size
    if run.theorem_mode:
        delta = theorem_delta(problem, K)
        opts = [replace(opt, delta=delta) for opt in opts]
    stride = run.record_stride or default_stride(K)
    n_seeds, d = len(seeds), problem.dim
    S = len(opts) * n_seeds
    # the noise scale is fixed for the run: validate it and find its
    # noise-free coordinates once, then measure each step's gradient
    snr = SnrProfile(np.zeros(d), problem.noise.sigma / math.sqrt(n))

    presets = [preset(opt) for opt in opts]
    params = stack_params(presets, n_seeds)
    # the step of each config's first SGD step, for the rows that switch
    switch_steps = [math.ceil(p.t_switch)
                    if p.track_ema and p.t_switch < math.inf else math.inf
                    for p in presets]
    recs = [RunRecord(seed=s, steps=K, delta_used=opt.delta)
            for opt in opts for s in seeds]
    live = np.arange(S)  # the record of each row
    x0 = initial_point(base, problem)
    state = init_state(np.tile(x0, (S, 1)), lambda_ema=column_of(
        [opt.lambda_init for opt in opts], n_seeds))
    if collect_iterates:
        for rec in recs:
            rec.iterates.append(x0.copy())
    block = max(1, BLOCK_BYTES // (8 * d * max(n, S)))
    noise = dither = None
    row_seeds = seeds * len(opts)
    if np.any(problem.noise.sigma > 0):
        noise = _RowStreams([RngStream(s, STREAM_GRAD) for s in row_seeds],
                            lambda r, c: batch_noise(problem.noise, n, c, r),
                            block, K)
    dithered = [opt.dither_mode != "none" for opt in opts]
    if any(dithered):  # read only by the rows that dither
        dither = _RowStreams([RngStream(s, STREAM_DITHER) for s in row_seeds],
                             lambda r, c: r.normal((c, d)), block, K)
    sum_phi = np.zeros(S)
    sum_l1 = np.zeros(S)

    def finish(j, steps, f_j):
        """Close the record of live row j, read from the loop's arrays as
        they are when it is called."""
        i, ema = live[j], state.lambda_ema
        _finish(recs[i], steps, float(sum_phi[j]), float(sum_l1[j]), f_j,
                float(ema[j]) if isinstance(ema, np.ndarray) else ema,
                switch_steps[i // n_seeds])

    for k in range(K):
        # overflow here is the divergence signal, not an error
        with np.errstate(over="ignore", invalid="ignore"):
            f, g_true = problem.eval_fg(state.x)
        finite = np.isfinite(f)
        if not finite.all():
            for j in np.flatnonzero(~finite):
                finish(j, k, float(f[j]))
            live, state = live[finite], _keep_rows(state, finite)
            params = _keep_rows(params, finite)
            g_true, f = g_true[finite], f[finite]
            sum_phi, sum_l1 = sum_phi[finite], sum_l1[finite]
            for streams in (noise, dither):
                if streams is not None:
                    streams.keep(finite)
            if not live.size:
                break
        l1 = l1_norm(g_true)
        phi = phi_measure(snr, g_true)
        sum_phi += phi
        sum_l1 += l1

        if run.decay_every and k and k % run.decay_every == 0:
            # the hybrid's frozen EMA is not decayed
            params = replace(params, delta=params.delta * run.decay_factor,
                             lr=params.lr * run.decay_factor)

        g = g_true if noise is None else g_true + noise.next()
        state = step(state, g, params, dither)

        if k % stride == 0 or k == K - 1:
            rows = live.size
            # the schedule is recorded whenever the config names a dither
            # mode, also on steps that apply none
            sig2 = [dither_sigma_sq(k, opt) if on else 0.0
                    for opt, on in zip(opts, dithered)]
            for i, f_i, l1_i, phi_i, lam, ema, phase in zip(
                    live.tolist(), f.tolist(), l1.tolist(), phi.tolist(),
                    _row_values(state.last_lambda, rows),
                    _row_values(state.lambda_ema, rows),
                    _row_values(state.phase, rows)):
                recs[i].rows.append(Row(k=k, f=f_i, l1_grad=l1_i, phi=phi_i,
                                        lam=lam, lambda_ema=ema,
                                        sigma_dither_sq=sig2[i // n_seeds],
                                        phase=phase))
        if collect_iterates:
            for i, x in zip(live, state.x):
                recs[i].iterates.append(x.copy())

    if live.size:
        with np.errstate(over="ignore", invalid="ignore"):
            f = problem.eval_f(state.x)
        for j in range(live.size):
            finish(j, K, float(f[j]))
    wall_time = time.perf_counter() - t0
    for rec in recs:
        rec.wall_time = wall_time
    return recs


# ---------------------------------------------------------------------------
# Suites

def run_theorem_suite(cfg_base: ExperimentConfig, seeds, k_grid, n_grid) -> dict:
    """Average the per-step diagnostics over seeds for each (K, n) cell and
    compare against the closed-form rate bounds."""
    from .theory import TheoremInputs, theorem_rhs_l1, theorem_rhs_phi

    if cfg_base.run.decay_every:
        raise ConfigError("the theorem suite runs at the constant theorem "
                          "stepsize; run.decay_every must be 0")
    problem = build_problem(cfg_base)
    x0 = initial_point(cfg_base, problem)
    f0 = problem.eval_f(x0)
    l1_L = float(np.sum(problem.lipschitz))
    l1_sigma = float(np.sum(problem.noise.sigma))

    cells = []
    all_pass = True
    for K in k_grid:
        for n in n_grid:
            cfg = replace(cfg_base,
                          run=replace(cfg_base.run, steps=K, batch_size=n,
                                      theorem_mode=True,
                                      record_stride=max(1, K // 10)))
            recs = run_seeds(cfg, seeds, problem)
            avg_phi = statistics.fmean(r.avg_phi for r in recs)
            avg_l1 = statistics.fmean(r.avg_l1 for r in recs)
            t = TheoremInputs(l1_lipschitz=l1_L, l1_sigma=l1_sigma, f0=f0,
                              f_star=problem.f_star, K=K, n=n)
            rhs_phi = theorem_rhs_phi(t)
            rhs_l1 = theorem_rhs_l1(t)
            ok = avg_phi <= rhs_phi and avg_l1 <= rhs_l1
            all_pass &= ok
            cells.append({"K": K, "n": n, "avg_phi": avg_phi,
                          "rhs_phi": rhs_phi, "avg_l1": avg_l1,
                          "rhs_l1": rhs_l1, "passed": ok})
    return {"cells": cells, "passed": all_pass, "f0": f0,
            "l1_lipschitz": l1_L, "l1_sigma": l1_sigma}


def run_switch_suite(cfg_base: ExperimentConfig, t_switch_grid, seeds) -> dict:
    """Hybrid runs across switch points against pure SignSGD-M and pure SGD
    baselines with matched step budgets, all in one `run_seeds` batch."""
    t_switch_grid, seeds = tuple(t_switch_grid), tuple(seeds)

    def variant(**changes):
        return replace(cfg_base,
                       optimizer=replace(cfg_base.optimizer, **changes))

    cfgs = [variant(algorithm="hybrid", t_switch=float(t))
            for t in t_switch_grid]
    cfgs += [variant(algorithm="signsgdm"), variant(algorithm="sgd")]
    recs = run_seeds(cfgs, seeds)
    runs = [recs[i:i + len(seeds)] for i in range(0, len(recs), len(seeds))]

    def median_final(run):
        return statistics.median(r.final_f for r in run)

    entries = []
    for t, run in zip(t_switch_grid, runs):
        # NaN when no run reached the switch (t_switch >= steps, or every
        # run diverged before it)
        lam_finite = [r.lambda_at_switch for r in run
                      if math.isfinite(r.lambda_at_switch)]
        lam_switch = statistics.median(lam_finite) if lam_finite else math.nan
        entries.append({"t_switch": t, "median_final_f": median_final(run),
                        "median_lambda_at_switch": lam_switch})
    med_sign, med_sgd = (median_final(run) for run in runs[-2:])
    best = min(entries, key=lambda e: e["median_final_f"])
    return {"entries": entries, "signsgdm_median_final_f": med_sign,
            "sgd_median_final_f": med_sgd, "best": best,
            "passed": best["median_final_f"] < med_sign}


# ---------------------------------------------------------------------------
# Serialization

def emit_csv(record: RunRecord, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in record.rows:
            fh.write(f"{r.k},{r.f:.17g},{r.l1_grad:.17g},{r.phi:.17g},"
                     f"{r.lam:.17g},{r.lambda_ema:.17g},"
                     f"{r.sigma_dither_sq:.17g},{r.phase}\n")


def load_csv(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header!r}")
        rows = []
        for line in fh:
            parts = line.rstrip("\n").split(",")
            rows.append(Row(k=int(parts[0]), f=float(parts[1]),
                            l1_grad=float(parts[2]), phi=float(parts[3]),
                            lam=float(parts[4]), lambda_ema=float(parts[5]),
                            sigma_dither_sq=float(parts[6]), phase=parts[7]))
    return rows


def emit_json(summary: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_summary(cfg: ExperimentConfig, record: RunRecord) -> dict:
    out = record.summary()
    out["config"] = serialize_config(cfg)
    return out
