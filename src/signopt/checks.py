"""Verification suites: every closed-form claim gets an empirical check
with pinned tolerances.

Each check function returns a CheckResult; `run_all` executes the full
battery (this is what the `selftest` CLI command runs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import (ExperimentConfig, OptimizerSpec, ProblemSpec, RunSpec,
                     parse_config, serialize_config)
from .core import RngStream, STREAM_MC, inner, l2_norm_sq, sign_vec
from .dither import expected_dithered_sign, mc_dithered_sign
from .harness import (emit_csv, load_csv, run_seeds, run_switch_suite,
                      run_theorem_suite)
from .optimizers import lambda_project
from .problems import NoiseSpec, make_logistic, make_mlp
from .theory import (GAUSS_SPLIT, gauss_bound, mc_sign_failure,
                     sign_agreement_lower_bound)

MC_SEED = 20240817
MC_TRIALS = 10**6

SYMMETRIC_FAMILIES = ("gaussian", "uniform", "laplace")
SNR_GRID = (0.1, 0.25, 0.5, GAUSS_SPLIT, 1.0, 2.0, 5.0)

DITHER_RATIO_GRID = (0.0, 0.1, -0.1, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0)

THEOREM_K_GRID = (100, 1000, 10000)
THEOREM_N_GRID = (1, 4, 16)
THEOREM_SEEDS = tuple(range(20))
SWITCH_T_GRID = (500, 1000, 2000)


@dataclass(eq=False, repr=False)
class CheckResult:
    """One check's verdict and the detail its line prints."""

    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}" + (f": {self.detail}" if self.detail else "")


def _theorem_base_config(sigma: float = 1.0) -> ExperimentConfig:
    """The rate check's 10-dim quadratic; the decay, switching and
    limit-cycle checks derive their configs from it."""
    return ExperimentConfig(
        problem=ProblemSpec(kind="quadratic", dim=10,
                            lipschitz=np.linspace(0.5, 4.0, 10),
                            x_opt=(0.0,), x0=(1.0,),
                            noise_family="gaussian", sigma=(sigma,)),
        optimizer=OptimizerSpec(algorithm="signsgd"),
        run=RunSpec(steps=1000, batch_size=1, seeds=THEOREM_SEEDS,
                    theorem_mode=True),
    )


# -- 1 ----------------------------------------------------------------------

def _bound_margins(seed: int, families, trials: int):
    """(margin, family, S) for each family over SNR_GRID, in that order:
    how far the Gauss bound, plus three standard errors, lies above the
    Monte Carlo sign-failure rate. Each cell draws on its own substream,
    numbered in order, and is drawn only when it is read."""
    rng = RngStream(seed, STREAM_MC)
    cells = ((family, S) for family in families for S in SNR_GRID)
    for i, (family, S) in enumerate(cells):
        p_hat, se = mc_sign_failure(family, S, trials, rng.derive(i))
        yield gauss_bound(S) + 3.0 * se - p_hat, family, S


def check_gauss_bound_validity(trials: int = MC_TRIALS) -> CheckResult:
    """Sign-failure rate never exceeds the unimodal-symmetric bound."""
    margins = list(_bound_margins(MC_SEED, SYMMETRIC_FAMILIES, trials))
    worst, family, S = min(margins, key=lambda m: m[0])
    ok = not any(m < 0 for m, _, _ in margins)
    return CheckResult(
        "gauss-bound-validity", ok,
        f"min margin {worst:.2e} at ({family}, S={S:.4g})")


# -- 2 ----------------------------------------------------------------------

def check_relaxation_inequality() -> CheckResult:
    """1 - 2*bound(S) >= min(1,S)/3 with zero tolerance on a dense grid."""
    grid = [0.001 * j for j in range(1, 10001)]
    grid += [GAUSS_SPLIT - 1e-9, GAUSS_SPLIT, GAUSS_SPLIT + 1e-9]
    bad = [S for S in grid
           if 1.0 - 2.0 * gauss_bound(S) < sign_agreement_lower_bound(S)]
    return CheckResult("sign-agreement-relaxation", not bad,
                       f"{len(grid)} grid points, {len(bad)} violations")


# -- 3 & 4 ------------------------------------------------------------------

def check_theorem_rate() -> tuple:
    """Both rate bounds hold in every (K, n) cell and no run diverged;
    returns the phi-bound and l1-bound results separately."""
    cells = run_theorem_suite(_theorem_base_config(1.0), THEOREM_SEEDS,
                              THEOREM_K_GRID, THEOREM_N_GRID)["cells"]
    diverged = any(c["diverged"] for c in cells)
    note = "; a run diverged" if diverged else ""
    results = []
    for name in ("phi", "l1"):
        ok = all(c[f"avg_{name}"] <= c[f"rhs_{name}"] for c in cells)
        margin = min(c[f"rhs_{name}"] / c[f"avg_{name}"] for c in cells)
        results.append(CheckResult(f"theorem-rate-{name}", ok and not diverged,
                                   f"min rhs/lhs ratio {margin:.3f}{note}"))
    return tuple(results)


def check_decay_exponent() -> CheckResult:
    """Noiseless rate: the K-averaged measure decays like K^-p, p in
    [0.4, 0.6]."""
    report = run_theorem_suite(_theorem_base_config(0.0), (0,),
                               THEOREM_K_GRID, (1,))
    avgs = [c["avg_phi"] for c in report["cells"]]
    slope = np.polyfit(np.log(THEOREM_K_GRID), np.log(avgs), 1)[0]
    p = -slope
    return CheckResult("noiseless-decay-exponent", 0.4 <= p <= 0.6,
                       f"fitted exponent {p:.3f}")


# -- 5 ----------------------------------------------------------------------

def check_dither_statistics(trials: int = MC_TRIALS) -> CheckResult:
    """MC dithered-sign mean matches 2*Phi(m/sigma)-1 on the ratio grid,
    and the small-ratio linearization is accurate to 0.1%."""
    rng = RngStream(MC_SEED + 1, STREAM_MC)
    ok = True
    worst = math.inf
    for i, r in enumerate(DITHER_RATIO_GRID):
        mean, se = mc_dithered_sign(r, 1.0, trials, rng.derive(i))
        analytic = expected_dithered_sign(r, 1.0)
        slack = 4.0 * se - abs(mean - analytic)
        worst = min(worst, slack)
        if slack < 0:
            ok = False
    analytic = expected_dithered_sign(0.01, 1.0)
    linear = 0.01 * math.sqrt(2.0 / math.pi)
    rel = abs(analytic - linear) / abs(analytic)
    ok = ok and rel <= 1e-3
    return CheckResult("dithered-sign-statistics", ok,
                       f"min MC slack {worst:.2e}, linearization rel err {rel:.2e}")


# -- 6 ----------------------------------------------------------------------

def check_projection_calibration() -> CheckResult:
    """Nonnegativity, the defining identity to 2 ulps, exact zero on
    orthogonal input, and the worked value delta/c."""
    n_triples = 10**4
    rng = RngStream(MC_SEED + 2, STREAM_MC).generator
    eps = 1e-12
    ok = True
    for _ in range(n_triples):
        d = int(rng.integers(1, 9))
        m = rng.standard_normal(d)
        g = rng.standard_normal(d) * 10.0 ** rng.integers(-3, 4)
        delta = 10.0 ** rng.uniform(-4, 0)
        lam = lambda_project(m, g, delta, eps)
        if lam < 0:
            ok = False
            break
        lhs = lam * (l2_norm_sq(g) + eps)
        rhs = delta * abs(inner(sign_vec(m), g))
        if abs(lhs - rhs) > 2.0 * np.spacing(max(abs(lhs), abs(rhs))):
            ok = False
            break
    # exactly orthogonal input -> exactly zero
    m = np.ones(4)
    g = np.array([1.0, -1.0, 2.0, -2.0])
    ok = ok and lambda_project(m, g, 0.1, eps) == 0.0
    # zero gradient -> zero (epsilon guards the division)
    ok = ok and lambda_project(m, np.zeros(4), 0.1, eps) == 0.0
    # worked value: g = c*sign(m), d=4, c=2, delta=0.1 -> delta/c = 0.05.
    # Exact only when epsilon is negligible against ||g||^2 = 16.
    g = 2.0 * sign_vec(m)
    exact = lambda_project(m, g, 0.1, 1e-300)
    ok = ok and exact == 0.05
    near = lambda_project(m, g, 0.1, eps)
    ok = ok and abs(near - 0.05) <= 1e-13 * 0.05
    return CheckResult("projection-calibration", ok,
                       f"{n_triples} random triples, worked value {exact!r}")


# -- 7 ----------------------------------------------------------------------

def _reduction_config(**opt_kwargs) -> ExperimentConfig:
    return ExperimentConfig(
        problem=ProblemSpec(kind="quadratic", dim=5,
                            lipschitz=(0.5, 1.0, 2.0, 3.0, 4.0),
                            x_opt=(0.0,), x0=(1.0,),
                            noise_family="gaussian", sigma=(0.5,)),
        optimizer=OptimizerSpec(**{"delta": 0.05, "beta": 0.9, **opt_kwargs}),
        run=RunSpec(steps=300, batch_size=1, seeds=(7,)),
    )


def check_reduction_identities() -> CheckResult:
    """alpha=0 dithering, never-switching and immediately-switching hybrids
    collapse bitwise onto their base methods."""
    lr = 0.02
    cfgs = [_reduction_config(**kwargs) for kwargs in (
        {"algorithm": "signsgdm"},
        {"algorithm": "dithered", "alpha": 0.0, "dither_mode": "pre"},
        {"algorithm": "dithered", "alpha": 0.0, "dither_mode": "post"},
        {"algorithm": "hybrid", "t_switch": math.inf},
        {"algorithm": "hybrid", "t_switch": 10**9},
        {"algorithm": "hybrid", "t_switch": 0.0, "lambda_init": lr},
        {"algorithm": "sgd", "lr": lr})]
    base, dith_pre, dith_post, never, also_never, immediate, pure_sgd = (
        np.array(rec.iterates)
        for rec in run_seeds(cfgs, collect_iterates=True))
    ok = (np.array_equal(dith_pre, base)
          and np.array_equal(dith_post, base)
          and np.array_equal(dith_pre, dith_post)
          and np.array_equal(never, base)
          and np.array_equal(also_never, base)
          and np.array_equal(immediate, pure_sgd))
    return CheckResult("reduction-identities", ok,
                       f"{len(base) - 1} steps compared bitwise")


# -- 8 ----------------------------------------------------------------------

def check_sign_phase_geometry() -> CheckResult:
    """Every sign-phase coordinate step is exactly -delta, 0 or +delta
    (dyadic delta so set membership is exact in floating point)."""
    delta = 1.0 / 32.0
    cfgs = [_reduction_config(algorithm=algo, delta=delta, **kwargs)
            for algo, kwargs in (("signsgdm", {}),
                                 ("signsgd", {}),
                                 ("dithered", {"alpha": 0.1,
                                               "dither_mode": "pre"}),
                                 ("hybrid", {"t_switch": math.inf}))]
    cfgs = [replace(c, problem=replace(c.problem, x0=(0.5,))) for c in cfgs]
    ok = all(np.isin(np.diff(rec.iterates, axis=0), (-delta, 0.0, delta)).all()
             for rec in run_seeds(cfgs, collect_iterates=True))
    return CheckResult("sign-phase-geometry", ok,
                       "coordinate steps confined to {-d, 0, +d}")


def check_scale_invariance() -> CheckResult:
    """Scaling all gradients by c leaves the clean momentum-sign trajectory
    bitwise unchanged and scales the calibration scalar by 1/c."""
    c = 10.0
    base = ExperimentConfig(
        problem=ProblemSpec(kind="quadratic", dim=10, lipschitz=(2.0,),
                            x_opt=(0.0,), x0=(50.0,),
                            noise_family="gaussian", sigma=(0.0,)),
        optimizer=OptimizerSpec(algorithm="signsgdm", delta=1.0 / 32.0,
                                beta=0.9),
        run=RunSpec(steps=200, batch_size=1, seeds=(3,), record_stride=1),
    )
    scaled = replace(base, problem=replace(base.problem,
                                           lipschitz=(2.0 * c,)))
    rec_a, = run_seeds(base, collect_iterates=True)
    rec_b, = run_seeds(scaled, collect_iterates=True)
    ok = np.array_equal(rec_a.iterates, rec_b.iterates)
    lam_a, lam_b = rec_a.columns["lam"], rec_b.columns["lam"]
    err, ulp = np.abs(c * lam_b - lam_a), np.spacing(lam_a)
    ok = ok and bool(np.all(err <= 4.0 * ulp))  # a NaN error fails
    # in ulps of lambda, 0 where lambda is 0; max skips a NaN ratio
    ratio = np.divide(err, ulp, out=np.zeros_like(err), where=lam_a != 0)
    worst = max([0.0, *ratio.tolist()])
    return CheckResult("scale-invariance", ok,
                       f"lambda worst error {worst:.2f} ulps (limit 4)")


# -- 9 ----------------------------------------------------------------------

def check_switching_benefit() -> CheckResult:
    """Some switch point beats pure momentum-sign descent on the noisy
    quadratic of the rate check (median final loss over its seeds)."""
    cfg = replace(
        _theorem_base_config(1.0),
        optimizer=OptimizerSpec(algorithm="hybrid", delta=0.05, beta=0.9,
                                eta=0.99, lr=0.01),
        run=RunSpec(steps=4000, batch_size=1, seeds=THEOREM_SEEDS,
                    record_stride=400),
    )
    report = run_switch_suite(cfg, SWITCH_T_GRID, THEOREM_SEEDS)
    best = report["best"]
    return CheckResult(
        "switching-benefit", report["passed"],
        f"best T={best['t_switch']} median f {best['median_final_f']:.4g} "
        f"vs signsgdm {report['signsgdm_median_final_f']:.4g}")


def check_sign_limit_cycle() -> CheckResult:
    """Noiseless fixed-step sign descent stalls in a delta-wide band: the
    loss cycle peak stays above max(L) * delta^2 / 8 and below the full
    band value."""
    delta = 0.05
    problem = _theorem_base_config(0.0).problem
    L = problem.lipschitz
    cfg = ExperimentConfig(
        problem=replace(problem, x0=(1.0137,)),
        optimizer=OptimizerSpec(algorithm="signsgd", delta=delta),
        run=RunSpec(steps=2000, batch_size=1, seeds=(0,), record_stride=1),
    )
    rec, = run_seeds(cfg, collect_iterates=True)
    tail_f = rec.columns["f"][-2:].tolist()
    lower = max(L) * delta * delta / 8.0
    upper = 0.5 * sum(L) * delta * delta
    in_band = np.all(np.abs(rec.iterates[-1]) <= delta)
    ok = bool(max(tail_f) >= lower and max(tail_f) <= upper and in_band)
    return CheckResult(
        "sign-limit-cycle", ok,
        f"cycle peak {max(tail_f):.4g} in [{lower:.4g}, {upper:.4g}], "
        f"band confinement {bool(in_band)}")


# -- 10 ---------------------------------------------------------------------

def check_asymmetric_failure() -> CheckResult:
    """The symmetric-noise bound breaks under asymmetric-bimodal noise, and
    sign descent stalls where SGD converges on the matching 1-D quadratic."""
    # stops drawing at the first violated cell
    violated = any(m < 0 for m, _, _ in _bound_margins(
        MC_SEED + 3, ("asymmetric-bimodal",), MC_TRIALS))

    prob = ProblemSpec(kind="quadratic", dim=1, lipschitz=(1.0,),
                       x_opt=(0.0,), x0=(1.0,),
                       noise_family="asymmetric-bimodal", sigma=(3.0,))
    sign_cfg = ExperimentConfig(
        problem=prob,
        optimizer=OptimizerSpec(algorithm="signsgd", delta=0.01),
        run=RunSpec(steps=10000, batch_size=1, seeds=(1,), record_stride=1))
    sgd_cfg = replace(sign_cfg,
                      optimizer=OptimizerSpec(algorithm="sgd", lr=3e-4))
    f0 = 0.5  # f(x0) for L=1, x0 - x* = 1
    sign_rec, sgd_rec = run_seeds([sign_cfg, sgd_cfg])
    sign_min, sgd_min = (min(r.columns["f"].tolist())
                         for r in (sign_rec, sgd_rec))
    sign_stalls = sign_min >= 0.5 * f0
    sgd_converges = sgd_min < 0.01 * f0
    ok = violated and sign_stalls and sgd_converges
    return CheckResult(
        "asymmetric-noise-failure", ok,
        f"bound violated {violated}, sign min f {sign_min:.4g} "
        f"(>= {0.5 * f0}), sgd min f {sgd_min:.2e} (< {0.01 * f0})")


# -- 11 ---------------------------------------------------------------------

def _gradient_problems() -> tuple:
    """(problem, scale of its random points, finite-difference step) for
    each problem of the gradient check."""
    return ((make_logistic(11, 5, 60, NoiseSpec("gaussian", (0.0,) * 5)),
             1.0, 1e-6),
            (make_mlp(13, (3, 6, 1), NoiseSpec("gaussian", (0.0,))),
             0.5, 1e-5))


def _central_differences(f, x: np.ndarray, h: float) -> np.ndarray:
    """Central differences of f at x along every axis: the 2*dim probes
    x +- h*e_i are the rows of two calls of f."""
    probe = h * np.eye(x.size)
    return (f(x + probe) - f(x - probe)) / (2.0 * h)


def check_gradient_correctness() -> CheckResult:
    """Analytic gradients of the logistic and MLP problems agree with
    central finite differences at 100 random points each."""
    rng = RngStream(MC_SEED + 4, STREAM_MC).generator
    worst = []
    for problem, scale, h in _gradient_problems():
        err = 0.0
        for _ in range(100):
            x = scale * rng.standard_normal(problem.dim)
            g = problem.eval_grad(x)
            g_fd = _central_differences(problem.eval_f, x, h)
            err = max(err, math.sqrt(l2_norm_sq(g - g_fd))
                      / math.sqrt(l2_norm_sq(g)))
        worst.append(err)
    worst_logi, worst_mlp = worst
    ok = worst_logi < 1e-6 and worst_mlp < 1e-4
    return CheckResult("gradient-correctness", ok,
                       f"logistic rel err {worst_logi:.2e} (< 1e-6), "
                       f"mlp rel err {worst_mlp:.2e} (< 1e-4)")


# -- 12 ---------------------------------------------------------------------

def check_serialization_roundtrip() -> CheckResult:
    """Config text and trajectory CSV survive a round trip bit-exactly."""
    import tempfile
    from pathlib import Path

    cfg = ExperimentConfig(
        problem=ProblemSpec(kind="quadratic", dim=3,
                            lipschitz=(0.5, math.pi, 4.0),
                            x_opt=(0.1, -0.2, 0.3), x0=(1.0,),
                            noise_family="laplace", sigma=(1e-3, 0.1, 7.0)),
        optimizer=OptimizerSpec(algorithm="hybrid", delta=0.1, beta=0.9,
                                alpha=0.1, t_switch=50.0,
                                dither_mode="pre", epsilon=1e-12),
        run=RunSpec(steps=100, batch_size=2, seeds=(0, 1, 42),
                    record_stride=1),
    )
    cfg_ok = parse_config(serialize_config(cfg)) == cfg

    csv_ok = True
    with tempfile.TemporaryDirectory() as td:
        for rec in run_seeds(cfg):
            path = Path(td) / f"run_seed{rec.seed}.csv"
            emit_csv(rec, path)
            csv_ok &= load_csv(path) == rec.rows
    ok = cfg_ok and csv_ok
    # load_csv rejects any phase but sign and sgd, so the phases always
    # hold; the line keeps its third field
    return CheckResult("serialization-roundtrip", ok,
                       f"config {cfg_ok}, csv {csv_ok}, phases True")


# ---------------------------------------------------------------------------

def run_all() -> list:
    """The complete verification battery, at its full Monte Carlo sizes:
    what the `selftest` CLI command runs."""
    return [check_gauss_bound_validity(),
            check_relaxation_inequality(),
            *check_theorem_rate(),
            check_decay_exponent(),
            check_dither_statistics(),
            check_projection_calibration(),
            check_reduction_identities(),
            check_sign_phase_geometry(),
            check_scale_invariance(),
            check_switching_benefit(),
            check_sign_limit_cycle(),
            check_asymmetric_failure(),
            check_gradient_correctness(),
            check_serialization_roundtrip()]
