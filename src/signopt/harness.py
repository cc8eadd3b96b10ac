"""Experiment runner: seeded trajectories, run for many seeds at once,
multi-seed suites, CSV/JSON output.

Per-step diagnostics (the l1 gradient norm and the SNR-weighted measure)
are always computed from the TRUE gradient at the current iterate and the
known batch noise scale, never from the stochastic sample, and the summary
averages cover every step regardless of the recording stride.

The diagnostics are reduced once per block of steps: each step's true
gradient waits in a buffer, and a flush measures the whole block with one
`l1_norm` and one `phi_measure` call, each a last-axis sum per row as on
a single step. The running sums take the block's values in step order
through `np.add.accumulate`, never `np.add.reduce`, which sums a
contiguous block pairwise and so differs in the last bits. One `finish`
in `run_seeds` closes records, both at a divergence and at the end of the
run: it flushes the block, then closes each given row's record from the
sums. So a row whose f overflows has sums that stop at its last finite
step.

A record keeps its recorded steps as columns, one array per `Row` field
(`RunRecord.columns`); a record with no recorded step has every column,
empty. A recorded step's f and the step rule's lambda and EMA, which the
rule holds as state, wait in the diagnostics block beside its gradient,
and the flush moves the block's recorded steps, with their l1 and phi,
into the run's columns. At the end of the run each record takes the
run's recorded steps below its `oracle_calls`, since a row is closed
before the step it dies at is recorded. The dither variance and phase
columns follow from k and the config, and are filled once per config:
a row is in the sign phase while k < t_switch (`phase_codes`). No `Row`
is built in the run: `rows` and `emit_csv` read the columns, and `rows`
builds its list on first read.

The rows of a batch run in switch order, by t_switch, descending and
stable: the rows in the sign phase at any step are a leading slice, so
`optimizers.RowStepper` steps each phase on its own slice of the rows,
in place. The stepper's `order` maps each row to its record through every
cut; the per-row seed streams are put in that order once, and the records
come back in config then seed order.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .core import (RngStream, STREAM_DITHER, STREAM_GRAD, is_seed, l1_norm,
                   parallel_map, run_errstate)
from .config import (ConfigError, ExperimentConfig, build_problem,
                     initial_point, serialize_config)
# lambda_project and the five *_step presets are not called here;
# perfbench/tracing.py wraps them under this module's name
from .optimizers import (PHASES, RowStepper, dither_sigma_sq, dithered_step,
                         hybrid_step, lambda_project, phase_codes, preset,
                         sgd_step, signsgd_step, signsgdm_step, stack_params)
# stochastic_grad is not called here either; perfbench/tracing.py wraps it
from .problems import Problem, batch_noise, stochastic_grad
from .theory import (SnrProfile, TheoremInputs, phi_measure, theorem_rhs_l1,
                     theorem_rhs_phi)

CSV_HEADER = "k,f,l1_grad,phi,lambda,lambda_ema,sigma_dither_sq,phase"
# a CSV line of a recorded step: %.17g writes every bit of a float
CSV_LINE = "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s\n"

AUTO_STRIDE_LIMIT = 10_000

# `run_seeds` draws random numbers a block of steps ahead. A block holds at
# most this many bytes of one seed's noise draws (n * d a step) and of the
# draws of all S seeds (S * d a step), so memory does not grow with steps:
# a refill holds the block plus up to `core.WORKERS` unit draws of one
# stream (`_RowStreams`). The true gradients awaiting their diagnostics
# (S * d a step) hold at most an eighth of it, so the temporaries of their
# flush stay small; the recorded steps' f, l1, phi, lambda and EMA (5 * S a
# step) wait beside them.
BLOCK_BYTES = 1 << 18

# A refill of the seed streams of at least this many draws (block steps x
# streams x draws a row takes a step) fills the streams on
# `core.parallel_map`'s threads. Below it, handing the streams to the pool
# costs about what a second core saves. On 2 vCPUs, threaded refills read
# 0.9-1.3x serial at 2^15 draws (the switch sweep's refill), 0.9-1.5x at
# 2^16 and 1.4-1.9x at 2^19 (the n = 16 theorem cell's). Threaded or not,
# the refill holds the block plus up to `core.WORKERS` unit draws of one
# stream, one per busy thread.
PARALLEL_DRAWS = 1 << 16


@dataclass
class Row:
    """One recorded step of a run."""

    k: int
    f: float
    l1_grad: float
    phi: float
    lam: float
    lambda_ema: float
    sigma_dither_sq: float
    phase: str


ROW_FIELDS = tuple(f.name for f in fields(Row))


def _column_lists(columns: dict, part=slice(None)) -> list:
    """The `part` of the columns as lists of Python values in `Row` field
    order, the phase as its name."""
    lists = [columns[name][part].tolist() for name in ROW_FIELDS]
    lists[-1] = [PHASES[c] for c in lists[-1]]
    return lists


def _columns_of(rows: list) -> dict:
    """The columns of a list of `Row`s in the engine's dtypes: k int64,
    the six float fields float64 and the phase its int8 code."""
    lists = [[getattr(r, name) for r in rows] for name in ROW_FIELDS]
    lists[-1] = [PHASES.index(p) for p in lists[-1]]
    return {name: np.array(v, dtype) for name, v, dtype in zip(
        ROW_FIELDS, lists, (np.int64,) + (np.float64,) * 6 + (np.int8,))}


class _DerivedRows:
    """`RunRecord.rows`: the list of `Row`s of the record's columns, built
    on first read and then kept; a change to that list does not reach the
    columns. A list given to the constructor, or assigned, is kept as it
    is and becomes the record's columns."""

    def __get__(self, rec, owner=None):
        if rec is None:
            return None  # the field's default: no list given
        if rec._rows is None:
            rec._rows = list(map(Row, *_column_lists(rec.columns)))
        return rec._rows

    def __set__(self, rec, rows):
        rec._rows = rows
        if rows is not None:
            rec.columns = _columns_of(rows)


@dataclass(eq=False, repr=False)
class RunRecord:
    """One seeded run: its recorded steps and its summary values."""

    # the recorded steps, one array per Row field, the phase as an index
    # into PHASES; every column is empty when none was recorded. Declared
    # before `rows`, whose list given to the constructor replaces this
    # default, and keyword-only, so `rows` stays the first positional field.
    columns: dict = field(default_factory=lambda: _columns_of([]),
                          repr=False, compare=False, kw_only=True)
    rows: list = _DerivedRows()
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
        """Every field but the per-step ones, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("columns", "rows", "iterates")}


def theorem_delta(problem: Problem, steps: int) -> float:
    """Constant stepsize 1/sqrt(L1 * K) prescribed by the rate theorem."""
    with run_errstate():  # a sum of finite constants may overflow
        l1_k = float(np.sum(problem.lipschitz)) * steps
    if not 0 < l1_k < math.inf:
        raise ConfigError(f"theorem mode needs 0 < L1 * K < inf, got {l1_k}")
    return 1.0 / math.sqrt(l1_k)


def _nonempty(name: str, values) -> tuple:
    """`values` as a tuple; a run or suite over none of them would check
    nothing, so that raises `ValueError` naming the argument."""
    values = tuple(values)
    if not values:
        raise ValueError(f"{name} is empty")
    return values


def run_single(cfg: ExperimentConfig, seed: int,
               collect_iterates: bool = False) -> RunRecord:
    """Execute one seeded trajectory of the configured optimizer."""
    return run_seeds(cfg, (seed,), collect_iterates=collect_iterates)[0]


class _RowStreams:
    """One random stream per row of a batched state, read one (S, d) draw
    per call and drawn up to `block` calls ahead in one call per stream.
    Each stream yields exactly the values it yields when drawn one step at
    a time, so a row's results do not depend on the batch it is in.

    A refill allocates one (count, S, d) block, dropping the block before
    it, and `fill` writes each stream's next `count` draws straight into
    its (count, d) slice. A refill of at least `PARALLEL_DRAWS` draws
    makes these calls through `core.parallel_map`: each stream is filled
    by exactly one thread, in one call, so the bits are those of the
    serial refill, and the threads run under the run's errstate. A
    smaller refill fills the streams one after another on the calling
    thread. Either way a refill holds the block plus up to
    `core.WORKERS` unit draws of one stream, each busy thread's (count,
    n, d) draw before it is reduced into the block."""

    def __init__(self, streams: list, fill, block: int, limit: int,
                 dim: int, width: int):
        self.streams = streams
        self.fill = fill        # (stream, count, out (count, d)) -> None
        self.block = block
        self.dim = dim
        self.width = width      # the draws a row takes a step
        self.left = limit       # the most draws still to be read
        self.buf = np.empty((0,))
        self.pos = 0

    def _refill(self) -> None:
        count = min(self.block, self.left)
        streams = self.streams
        self.buf = None  # the spent block goes before the next is made
        self.buf = buf = np.empty((count, len(streams), self.dim))

        def fill(i):
            self.fill(streams[i], count, buf[:, i])

        if count * len(streams) * self.width >= PARALLEL_DRAWS:
            parallel_map(fill, range(len(streams)))
        else:
            for i in range(len(streams)):
                fill(i)
        self.pos = 0

    def normal(self, size=None) -> np.ndarray:
        """The next (S, d) draw of every row, of which a `size` of
        (rows, d) returns the first `rows`. It has RngStream's `normal`
        signature, so the step rule reads its dither stream through it,
        for the rows in the sign phase; every stream advances."""
        if self.pos == len(self.buf):
            self._refill()
        self.pos += 1
        self.left -= 1
        draw = self.buf[self.pos - 1]
        return draw if size is None else draw[:size[0]]

    def keep(self, rows: np.ndarray) -> None:
        self.streams = [r for r, k in zip(self.streams, rows) if k]
        if self.pos < len(self.buf):
            self.buf = self.buf[:, rows]


class _BlockDiagnostics:
    """The l1 norm and phi of each step's true gradient and their running
    sums, measured a block of `size` steps at a time, and the run's
    recorded steps as columns, `moved`.

    `add` copies a step's (S, d) gradient into a (size, S, d) buffer,
    flushing it first when it is full, and `record` marks the step last
    added as recorded: its f and the step rule's `lam` and `ema` are
    written into rows 0, 3 and 4 of a (5, size, S) buffer, `marks`,
    beside its k; a cut cuts `marks` itself. A flush
    measures the buffered steps with one `l1_norm` and one `phi_measure`
    call, adds them to the sums in step order, and appends the block's
    recorded steps to `moved`, one write from batch rows to records
    through the rule's `order`. The batch is cut only
    right after a flush, so `order` holds for the whole block; a record
    that left the batch has garbage in the blocks after it left."""

    def __init__(self, snr: SnrProfile, size: int, rule: RowStepper):
        rows, dim = rule.x.shape
        self.snr, self.rule, self.records = snr, rule, rows
        self.grads = np.empty((size, rows, dim))
        # phi and l1: the sums so far, then a value per buffered step.
        # Accumulating along axis 1 adds step after step; np.add.reduce
        # would sum one seed's contiguous column pairwise.
        self.acc = np.zeros((2, size + 1, rows))
        self.used = 0
        # per recorded step of the block, by batch row: f, l1, phi, lambda
        # and EMA, the float fields of a Row in order (l1 and phi are
        # written by the flush)
        self.marks = np.empty((5, size, rows))
        self.steps = []     # per recorded step: its position and k
        # the moved steps, a block at a time: k and the float columns (5,
        # records, steps); the first block is empty, so a run that records
        # no step has columns too
        self.moved = [(np.empty(0, np.int64), np.empty((5, rows, 0)))]

    def add(self, g: np.ndarray) -> None:
        if self.used == len(self.grads):
            self.flush()
        self.grads[self.used] = g
        self.used += 1

    def record(self, k: int, f: np.ndarray) -> None:
        """Mark step k, the last added, as recorded; `f` is each row's f
        there."""
        m, r = self.marks, len(self.steps)
        m[0, r], m[3, r], m[4, r] = f, self.rule.lam, self.rule.ema
        self.steps.append((self.used - 1, k))

    def flush(self) -> None:
        used = self.used
        if not used:
            return
        g = self.grads[:used]
        l1 = l1_norm(g)
        phi = phi_measure(self.snr, g)
        acc = self.acc[:, :used + 1]
        acc[0, 1:] = phi
        acc[1, 1:] = l1
        np.add.accumulate(acc, axis=1, out=acc)
        acc[:, 0] = acc[:, used]
        self.used = 0
        if not self.steps:
            return
        pos, ks = map(list, zip(*self.steps))
        marks = self.marks[:, :len(pos)]
        marks[1], marks[2] = l1[pos], phi[pos]
        floats = np.empty((5, self.records, len(pos)))
        floats[:, self.rule.order] = marks.transpose(0, 2, 1)
        self.moved.append((np.array(ks, np.int64), floats))
        self.steps = []

    def sums(self, j: int) -> tuple:
        """Row j's phi and l1 sums over the flushed steps."""
        return float(self.acc[0, 0, j]), float(self.acc[1, 0, j])

    def keep(self, rows: np.ndarray) -> None:
        """Cut the batch to `rows`; call it right after a flush."""
        self.acc = self.acc[:, :, rows]
        self.grads = self.grads[:, rows]
        self.marks = self.marks[:, :, rows]


def run_seeds(cfg, seeds=None, problem: Problem | None = None,
              collect_iterates: bool = False) -> list:
    """Execute the configured optimizer for every seed in one loop.

    `cfg` is one config, or a list of configs that differ only in their
    optimizer section; then every config runs every seed, and the records
    come config by config, each in seed order. The iterates and momenta of
    the live rows are (S, d) arrays, in switch order, that each step
    advances in place with one numpy call per operation on each phase's
    slice of rows, and the rows' optimizer parameters are columns where
    the configs differ. Each step makes one `eval_fg` call
    on all live rows, and the run one `eval_f` call for the final f. Each
    row draws from its seed's own Philox gradient and dither streams, a
    block of steps at a time, so every record is bitwise the one the seed
    gives alone under its config.
    A row whose f overflows stops at that step and leaves the batch: the
    step rule, the diagnostics and the seed streams each cut their rows
    with one `keep`. One `finish` closes records, both the dead rows' at
    a divergence and the live rows' at the end of the run, each after one
    flush. A record's recorded steps, `RunRecord.columns`, are the run's
    recorded ks below its `oracle_calls`. Each record's `wall_time` is
    the elapsed time of the whole batch. An empty list of configs, or a
    seed that is not an integer in [0, 2^64), raises `ValueError`; no
    seeds give no records.
    """
    t0 = time.perf_counter()
    cfgs = ((cfg,) if isinstance(cfg, ExperimentConfig)
            else _nonempty("cfg", cfg))
    base = cfgs[0]
    if any(c.problem != base.problem or c.run != base.run for c in cfgs):
        raise ValueError("configs run together must share their problem "
                         "and run sections")
    seeds = tuple(base.run.seeds if seeds is None else seeds)
    if not all(map(is_seed, seeds)):
        raise ValueError("seeds must be integers in [0, 2^64)")
    if not seeds:
        return []
    seeds = tuple(map(int, seeds))
    if problem is None:
        problem = build_problem(base)
    run = base.run
    opts = [c.optimizer for c in cfgs]
    K = run.steps
    n = run.batch_size
    if run.theorem_mode:
        delta = theorem_delta(problem, K)
        opts = [replace(opt, delta=delta) for opt in opts]
    stride = run.record_stride or math.ceil(K / AUTO_STRIDE_LIMIT)
    n_seeds, d = len(seeds), problem.dim
    S = len(opts) * n_seeds
    # the noise scale is fixed for the run: validate it once, then measure
    # each block's gradients against it
    snr = SnrProfile(np.zeros(d), problem.noise.sigma / math.sqrt(n))

    recs = [RunRecord(seed=s, steps=K, delta_used=opt.delta)
            for opt in opts for s in seeds]
    x0 = initial_point(base, problem)
    params = [preset(opt) for opt in opts]
    # the rows in switch order: each step's sign rows are a leading slice
    rule = RowStepper(np.tile(x0, (S, 1)), np.zeros((S, d)),
                      np.repeat([opt.lambda_init for opt in opts], n_seeds),
                      stack_params(params, n_seeds))
    if collect_iterates:
        for rec in recs:
            rec.iterates.append(x0.copy())
    block = max(1, BLOCK_BYTES // (8 * d * max(n, S)))
    noise = dither = None
    row_seeds = [seeds[i % n_seeds] for i in rule.order.tolist()]
    if np.any(problem.noise.sigma > 0):
        noise = _RowStreams(
            [RngStream(s, STREAM_GRAD) for s in row_seeds],
            lambda r, c, out: batch_noise(problem.noise, n, c, r, out),
            block, K, d, n * d)
    dithered = [opt.dither_mode != "none" for opt in opts]
    if any(dithered):  # read only by the rows that dither
        dither = _RowStreams(
            [RngStream(s, STREAM_DITHER) for s in row_seeds],
            lambda r, c, out: np.copyto(out, r.normal((c, d))),
            block, K, d, d)
    diag = _BlockDiagnostics(snr, max(1, BLOCK_BYTES // 8 // (8 * S * d)),
                             rule)

    def finish(rows, steps, f):
        """Flush the diagnostics, then close the record of each of `rows`
        after `steps` steps from its f in `f` and the step rule as it is
        now. At a divergence, the dead rows' sums and recorded steps end
        with the step before the one whose f overflowed."""
        diag.flush()
        for j in rows:
            rec = recs[rule.order[j]]
            rec.oracle_calls = steps
            rec.final_f = f_j = float(f[j])
            rec.diverged = not math.isfinite(f_j)
            if steps:  # else the averages keep RunRecord's NaN
                rec.avg_phi, rec.avg_l1 = (v / steps for v in diag.sums(j))
            rec.lambda_at_switch = rule.switch_lambda(j)

    with run_errstate():
        for k in range(K):
            f, g_true = problem.eval_fg(rule.x)
            finite = np.isfinite(f)
            if not finite.all():
                finish(np.flatnonzero(~finite), k, f)
                for part in (rule, diag, noise, dither):
                    if part is not None:
                        part.keep(finite)
                g_true, f = g_true[finite], f[finite]
                if not finite.any():
                    break
            diag.add(g_true)

            if run.decay_every and k and k % run.decay_every == 0:
                rule.decay(run.decay_factor)

            g = g_true if noise is None else g_true + noise.normal()
            rule.step(g, k, dither)

            if k % stride == 0 or k == K - 1:
                diag.record(k, f)
            if collect_iterates:
                for i, x in zip(rule.order, rule.x):
                    recs[i].iterates.append(x.copy())

        if rule.order.size:
            finish(range(rule.order.size), K, problem.eval_f(rule.x))
    # the run's recorded steps: k (R,) and the float columns (5, S, R); a
    # record takes those below its oracle_calls
    ks, floats = (np.concatenate(part, axis=-1) for part in zip(*diag.moved))
    for c, (opt, on) in enumerate(zip(opts, dithered)):
        # the schedule is recorded whenever the config names a dither
        # mode, also on steps that apply none
        sig2 = dither_sigma_sq(ks, opt) if on else np.zeros(len(ks))
        codes = phase_codes(ks, params[c].t_switch)
        for i in range(c * n_seeds, (c + 1) * n_seeds):
            n = np.count_nonzero(ks < recs[i].oracle_calls)
            recs[i].columns = dict(zip(ROW_FIELDS, (
                ks[:n], *floats[:, i, :n], sig2[:n], codes[:n])))
    wall_time = time.perf_counter() - t0
    for rec in recs:
        rec.wall_time = wall_time
    return recs


# ---------------------------------------------------------------------------
# Suites

def run_theorem_suite(cfg_base: ExperimentConfig, seeds, k_grid, n_grid) -> dict:
    """Average the per-step diagnostics over seeds for each (K, n) cell and
    compare against the closed-form rate bounds. Each cell records
    `diverged`, the number of its runs that diverged, whose averages the
    bounds do not cover: a cell passes when both bounds hold and that
    number is 0. Each of the seeds and the two grids must be nonempty."""
    import statistics  # here, not at set-up: it loads fractions and decimal
    seeds = _nonempty("seeds", seeds)
    k_grid, n_grid = _nonempty("k_grid", k_grid), _nonempty("n_grid", n_grid)
    problem = build_problem(cfg_base)
    with run_errstate():  # a sum of finite constants may overflow
        f0 = problem.eval_f(initial_point(cfg_base, problem))
        l1_sigma = float(np.sum(problem.noise.sigma))
        l1_L = float(np.sum(problem.lipschitz))
    for what, v in (("f(x0)", f0), ("sum of sigma", l1_sigma)):
        if not math.isfinite(v):
            raise ConfigError(f"the theorem suite needs a finite {what}, "
                              f"got {v}")

    cells = []
    for K in k_grid:
        for n in n_grid:
            # the cell's run section holds K and n as Python ints
            run = replace(cfg_base.run, steps=K, batch_size=n,
                          theorem_mode=True, record_stride=max(1, K // 10))
            recs = run_seeds(replace(cfg_base, run=run), seeds, problem)
            avg_phi = statistics.fmean(r.avg_phi for r in recs)
            avg_l1 = statistics.fmean(r.avg_l1 for r in recs)
            t = TheoremInputs(l1_L, l1_sigma, f0, problem.f_star, run.steps,
                              run.batch_size)
            rhs_phi, rhs_l1 = theorem_rhs_phi(t), theorem_rhs_l1(t)
            diverged = sum(r.diverged for r in recs)
            ok = avg_phi <= rhs_phi and avg_l1 <= rhs_l1 and not diverged
            cells.append({"K": run.steps, "n": run.batch_size,
                          "avg_phi": avg_phi, "rhs_phi": rhs_phi,
                          "avg_l1": avg_l1, "rhs_l1": rhs_l1,
                          "diverged": diverged, "passed": ok})
    return {"cells": cells, "passed": all(c["passed"] for c in cells),
            "f0": f0, "l1_lipschitz": l1_L, "l1_sigma": l1_sigma}


def run_switch_suite(cfg_base: ExperimentConfig, t_switch_grid, seeds) -> dict:
    """Hybrid runs across switch points against pure SignSGD-M and pure SGD
    baselines with matched step budgets, all in one `run_seeds` batch.
    Each entry and each baseline records `diverged`, the number of its
    runs that diverged. The grid and the seeds must be nonempty."""
    import statistics  # here, not at set-up: it loads fractions and decimal
    # a numpy scalar as its Python number, so the report serializes as JSON
    t_switch_grid = [t.item() if isinstance(t, np.generic) else t
                     for t in _nonempty("t_switch_grid", t_switch_grid)]
    seeds = _nonempty("seeds", seeds)

    def variant(**changes):
        return replace(cfg_base,
                       optimizer=replace(cfg_base.optimizer, **changes))

    cfgs = [variant(algorithm="hybrid", t_switch=t) for t in t_switch_grid]
    cfgs += [variant(algorithm="signsgdm"), variant(algorithm="sgd")]
    recs = run_seeds(cfgs, seeds)
    runs = [recs[i:i + len(seeds)] for i in range(0, len(recs), len(seeds))]

    def median_final(run):
        return statistics.median(r.final_f for r in run)

    def diverged(run):
        return sum(r.diverged for r in run)

    entries = []
    for t, run in zip(t_switch_grid, runs):
        # NaN when no run reached the switch (t_switch >= steps, or every
        # run diverged before it)
        lam_finite = [r.lambda_at_switch for r in run
                      if math.isfinite(r.lambda_at_switch)]
        lam_switch = statistics.median(lam_finite) if lam_finite else math.nan
        entries.append({"t_switch": t, "median_final_f": median_final(run),
                        "median_lambda_at_switch": lam_switch,
                        "diverged": diverged(run)})
    sign_run, sgd_run = runs[-2:]
    med_sign = median_final(sign_run)
    best = min(entries, key=lambda e: e["median_final_f"])
    return {"entries": entries, "signsgdm_median_final_f": med_sign,
            "signsgdm_diverged": diverged(sign_run),
            "sgd_median_final_f": median_final(sgd_run),
            "sgd_diverged": diverged(sgd_run), "best": best,
            "passed": best["median_final_f"] < med_sign}


# ---------------------------------------------------------------------------
# Serialization

def emit_csv(record: RunRecord, path) -> None:
    """Write the record's columns, a line per recorded step. The lines
    are built and written a thousand at a time, so the Python values of a
    whole long record are never held at once."""
    columns = record.columns
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for start in range(0, len(columns["k"]), 1000):
            part = _column_lists(columns, slice(start, start + 1000))
            fh.write("".join([CSV_LINE % row for row in zip(*part)]))


def load_csv(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header!r}")
        rows = []
        n_fields = CSV_HEADER.count(",") + 1
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            try:
                if len(parts) != n_fields:
                    raise ValueError(f"expected {n_fields} CSV fields, got "
                                     f"{len(parts)}")
                if parts[7] not in PHASES:
                    raise ValueError(f"unknown phase {parts[7]!r}")
                # the CSV columns are the Row fields in order
                rows.append(Row(int(parts[0]), *map(float, parts[1:7]),
                                parts[7]))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    return rows


def _strict_json(value):
    """`value` with every NaN or infinite float as None, since strict JSON
    has no token for them (jq, JSON.parse and serde reject NaN)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


def emit_json(summary: dict, path) -> None:
    """Write `summary` as strict JSON: a non-finite float is null."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_strict_json(summary), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def run_summary(cfg: ExperimentConfig, record: RunRecord) -> dict:
    out = record.summary()
    out["config"] = serialize_config(cfg)
    return out
