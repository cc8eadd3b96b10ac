"""The four signopt benchmark workloads.

Each workload turns a seed into inputs, then exposes a list of operations.
An operation is one closed-loop call into signopt's public API; its check
returns a verdict and the bytes its digest is taken over, with every float
formatted to 17 significant digits so that the digest changes when any bit
of a result changes.

Importing this module imports signopt and numpy, so `import workloads`
plus `setup()` is the benchmark's set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from signopt import checks, cli, config, dither, harness, theory
from signopt.core import STREAM_MC, RngStream

# mc-verify's default seed reproduces the grids `signopt selftest` draws;
# seed 0 of theorem-cell reproduces the selftest seeds 0..19.
DEFAULT_SEEDS = {"theorem-cell": 0, "switch-sweep": 0, "single-run": 0,
                 "mc-verify": checks.MC_SEED}

SIZES = {
    "theorem-cell": {"full": {"K": 10_000, "n": 16, "seeds": 20},
                     "tiny": {"K": 200, "n": 16, "seeds": 2}},
    "switch-sweep": {"full": {"K": 4000, "n": 1, "seeds": 5,
                              "t_grid": (500, 1000, 2000)},
                     "tiny": {"K": 400, "n": 1, "seeds": 2,
                              "t_grid": (50, 100, 200)}},
    "single-run": {"full": {"K": 10_000, "n": 1, "seeds": 1},
                   "tiny": {"K": 200, "n": 1, "seeds": 1}},
    "mc-verify": {"full": {"trials": 10**6}, "tiny": {"trials": 10**4}},
}


def _f17(x) -> str:
    return f"{x:.17g}"


def _material(*values) -> bytes:
    return ",".join(_f17(v) if isinstance(v, float) else str(v)
                    for v in values).encode() + b"\n"


@dataclass
class Op:
    """One public call. `steps` counts optimizer steps (Monte Carlo trials
    on mc-verify) and `draws` the random numbers the call samples."""
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple]  # result -> (passed, digest bytes)
    steps: int
    draws: int
    kind: str | None = None           # per-kind split of the traced run


@dataclass
class Bench:
    ops: list
    sizes: dict
    # the contention reference whose code is most like the operations'
    # (see contention.py): small numpy calls in a Python loop, or large
    # vectorised calls
    reference: str = "loop"


def _write_config(cfg, path: Path):
    config.save_config(cfg, path)
    loaded = config.load_config(path)
    if loaded != cfg:
        raise RuntimeError(f"config round trip changed {path.name}")
    return loaded


# -- theorem-cell -----------------------------------------------------------

def _theorem_cell(seed, size, workdir):
    K, n, n_seeds = size["K"], size["n"], size["seeds"]
    base = checks._theorem_base_config(1.0)
    seeds = tuple(n_seeds * seed + i for i in range(n_seeds))
    cfg = _write_config(replace(base, run=replace(base.run, seeds=seeds)),
                        workdir / "theorem-cell.cfg")
    dim = config.build_problem(cfg).dim

    def call():
        return harness.run_theorem_suite(cfg, cfg.run.seeds, (K,), (n,))

    def check(report):
        data = b"".join(_material(c["K"], c["n"], c["avg_phi"], c["avg_l1"])
                        for c in report["cells"])
        return report["passed"], data

    steps = K * n_seeds
    return Bench([Op("cell", call, check, steps, steps * n * dim)],
                 {"dim": dim, "K": K, "n": n, "seeds": n_seeds})


# -- switch-sweep -----------------------------------------------------------

def _switch_config(seeds, K):
    """The configuration of `checks.check_switching_benefit`."""
    return config.ExperimentConfig(
        problem=config.ProblemSpec(kind="quadratic", dim=10,
                                   lipschitz=tuple(np.linspace(0.5, 4.0, 10)),
                                   x_opt=(0.0,), x0=(1.0,),
                                   noise_family="gaussian", sigma=(1.0,)),
        optimizer=config.OptimizerSpec(algorithm="hybrid", delta=0.05,
                                       beta=0.9, eta=0.99, lr=0.01),
        run=config.RunSpec(steps=K, batch_size=1, seeds=seeds,
                           record_stride=K // 10),
    )


def _switch_sweep(seed, size, workdir):
    K, n_seeds, t_grid = size["K"], size["seeds"], size["t_grid"]
    seeds = tuple(n_seeds * seed + i for i in range(n_seeds))
    cfg = _write_config(_switch_config(seeds, K), workdir / "switch-sweep.cfg")
    dim = config.build_problem(cfg).dim

    def call():
        return harness.run_switch_suite(cfg, t_grid, cfg.run.seeds)

    def check(report):
        data = b"".join(_material(e["t_switch"], e["median_final_f"],
                                  e["median_lambda_at_switch"])
                        for e in report["entries"])
        data += _material(report["signsgdm_median_final_f"],
                          report["sgd_median_final_f"])
        return report["passed"], data

    steps = K * n_seeds * (len(t_grid) + 2)
    return Bench([Op("sweep", call, check, steps, steps * dim)],
                 {"dim": dim, "K": K, "n": 1, "seeds": n_seeds,
                  "t_grid": list(t_grid)})


# -- single-run -------------------------------------------------------------

def _single_configs(seed, K):
    logistic = config.ExperimentConfig(
        problem=config.ProblemSpec(kind="logistic", dim=20, n_points=100,
                                   dataset_seed=seed, x0=(0.0,),
                                   noise_family="gaussian", sigma=(0.5,)),
        optimizer=config.OptimizerSpec(algorithm="hybrid", delta=0.01,
                                       beta=0.9, alpha=0.1, dither_mode="pre",
                                       t_switch=float(K // 2)),
        run=config.RunSpec(steps=K, seeds=(seed,), record_stride=1),
    )
    widths = (2, 8, 1)
    mlp_dim = 2 * 8 + 8 + 8 * 1 + 1
    x0 = np.random.default_rng(seed).normal(0.0, 0.5, mlp_dim)
    mlp = config.ExperimentConfig(
        problem=config.ProblemSpec(kind="mlp", layer_widths=widths,
                                   n_points=100, dataset_seed=seed,
                                   x0=tuple(float(v) for v in x0),
                                   noise_family="gaussian", sigma=(0.5,)),
        optimizer=config.OptimizerSpec(algorithm="dithered", delta=0.01,
                                       beta=0.9, alpha=0.1,
                                       dither_mode="post"),
        run=config.RunSpec(steps=K, seeds=(seed,), record_stride=1),
    )
    return {"logistic": logistic, "mlp": mlp}


def _single_run(seed, size, workdir):
    K = size["K"]
    ops, dims = [], {}
    for kind, cfg in _single_configs(seed, K).items():
        path = workdir / f"{kind}.cfg"
        out = workdir / kind
        cfg = _write_config(cfg, path)
        dims[kind] = config.build_problem(cfg).dim
        argv = ["run", "--config", str(path), "--seed", str(seed),
                "--out", str(out)]
        csv_path = out / f"run_seed{seed}.csv"
        json_path = out / f"run_seed{seed}.json"

        def call(argv=argv):
            # the summary line the CLI prints is kept off the result stream
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        def check(code, cfg=cfg, csv_path=csv_path, json_path=json_path):
            csv_bytes = csv_path.read_bytes()
            summary = json.loads(json_path.read_text())
            rows = harness.load_csv(csv_path)
            # the CSV round trip is bit-exact: re-emitting the parsed rows
            # gives the same bytes, and their phi and l1 columns average to
            # the summary's values in the harness's summation order
            copy_path = csv_path.with_suffix(".copy.csv")
            harness.emit_csv(harness.RunRecord(rows=rows), copy_path)
            sum_phi = sum_l1 = 0.0
            for r in rows:
                sum_phi += r.phi
                sum_l1 += r.l1_grad
            ok = (code == cli.EXIT_OK
                  and not summary["diverged"]
                  and config.parse_config(summary["config"]) == cfg
                  and copy_path.read_bytes() == csv_bytes
                  and len(rows) == cfg.run.steps
                  and sum_phi / len(rows) == summary["avg_phi"]
                  and sum_l1 / len(rows) == summary["avg_l1"]
                  and summary["final_f"] < rows[0].f)
            # every call writes new files, as a first run does: ext4 flushes
            # a file that is truncated and rewritten to disk when it is
            # closed, which would time the shared host's disk
            for path in (csv_path, json_path, copy_path):
                path.unlink()
            return ok, csv_bytes

        ops.append(Op(kind, call, check, K, K * dims[kind], kind=kind))
    return Bench(ops, {"dim": dims, "K": K, "n": 1, "seeds": 1})


# -- mc-verify --------------------------------------------------------------

def _mc_verify(seed, size, workdir):
    trials = size["trials"]
    ops = []
    grid = checks.SNR_GRID

    def family_op(family, rng_for):
        symmetric = family in checks.SYMMETRIC_FAMILIES

        def call():
            return [theory.mc_sign_failure(family, S, trials, rng_for(i))
                    for i, S in enumerate(grid)]

        def check(estimates):
            # symmetric noise obeys the bound in every cell (3-se slack);
            # asymmetric noise must break it somewhere
            over = [p > theory.gauss_bound(S) + 3.0 * se
                    for S, (p, se) in zip(grid, estimates)]
            ok = not any(over) if symmetric else any(over)
            return ok, b"".join(_material(p, se) for p, se in estimates)

        return Op(family, call, check, trials * len(grid),
                  trials * len(grid))

    # stream layout of check_gauss_bound_validity and check_asymmetric_failure
    symmetric_rng = RngStream(seed, STREAM_MC)
    for f_index, family in enumerate(checks.SYMMETRIC_FAMILIES):
        ops.append(family_op(
            family, lambda i, f=f_index: symmetric_rng.derive(
                f * len(grid) + i)))
    asymmetric_rng = RngStream(seed + 3, STREAM_MC)
    ops.append(family_op("asymmetric-bimodal", asymmetric_rng.derive))

    ratios = checks.DITHER_RATIO_GRID
    dither_rng = RngStream(seed + 1, STREAM_MC)

    def dither_call():
        return [dither.mc_dithered_sign(r, 1.0, trials, dither_rng.derive(i))
                for i, r in enumerate(ratios)]

    def dither_check(estimates):
        ok = all(abs(mean - dither.expected_dithered_sign(r, 1.0)) <= 4.0 * se
                 for r, (mean, se) in zip(ratios, estimates))
        return ok, b"".join(_material(m, se) for m, se in estimates)

    ops.append(Op("dither", dither_call, dither_check,
                  trials * len(ratios), trials * len(ratios)))
    return Bench(ops, {"trials": trials, "snr_cells": len(grid),
                       "families": len(checks.SYMMETRIC_FAMILIES) + 1,
                       "dither_cells": len(ratios)}, reference="vector")


_BUILDERS = {"theorem-cell": _theorem_cell, "switch-sweep": _switch_sweep,
             "single-run": _single_run, "mc-verify": _mc_verify}


def setup(name: str, seed: int, size: str, workdir: Path) -> Bench:
    """Write the workload's configs under `workdir`, parse them, build the
    problems and return the operations."""
    return _BUILDERS[name](seed, SIZES[name][size], workdir)
