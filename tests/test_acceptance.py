"""Acceptance battery: one test per criterion, each printing a pass/fail
line. The session fixture executes the identical check set the `selftest`
CLI command runs, at full Monte Carlo sizes."""

import pytest

from signopt.checks import run_all


# The battery's output at its full Monte Carlo sizes, seed sets and grids.
# A shrunken trial count, seed set or grid changes a detail below.
FULL_BATTERY_LINES = [
    "[PASS] gauss-bound-validity: min margin 1.09e-03 at (uniform, S=0.5)",
    "[PASS] sign-agreement-relaxation: 10003 grid points, 0 violations",
    "[PASS] theorem-rate-phi: min rhs/lhs ratio 2.605",
    "[PASS] theorem-rate-l1: min rhs/lhs ratio 3.228",
    "[PASS] noiseless-decay-exponent: fitted exponent 0.500",
    "[PASS] dithered-sign-statistics: min MC slack 9.23e-04, "
    "linearization rel err 1.67e-05",
    "[PASS] projection-calibration: 10000 random triples, worked value 0.05",
    "[PASS] reduction-identities: 300 steps compared bitwise",
    "[PASS] sign-phase-geometry: coordinate steps confined to {-d, 0, +d}",
    "[PASS] scale-invariance: lambda worst error 1.00 ulps (limit 4)",
    "[PASS] switching-benefit: best T=500 median f 0.03868 vs signsgdm 0.4143",
    "[PASS] sign-limit-cycle: cycle peak 0.01482 in [0.00125, 0.02813], "
    "band confinement True",
    "[PASS] asymmetric-noise-failure: bound violated True, sign min f 0.4704 "
    "(>= 0.25), sgd min f 1.07e-03 (< 0.005)",
    "[PASS] gradient-correctness: logistic rel err 1.20e-09 (< 1e-6), "
    "mlp rel err 1.79e-10 (< 1e-4)",
    "[PASS] serialization-roundtrip: config True, csv True, phases True",
]


@pytest.fixture(scope="session")
def results():
    return {r.name: r for r in run_all()}


def _assert(results, name):
    r = results[name]
    print(r.line())
    assert r.passed, r.detail


def test_criterion_01_gauss_bound_validity(results):
    _assert(results, "gauss-bound-validity")


def test_criterion_02_relaxation_inequality(results):
    _assert(results, "sign-agreement-relaxation")


def test_criterion_03_theorem_phi_bound(results):
    _assert(results, "theorem-rate-phi")


def test_criterion_04_theorem_l1_bound_and_decay(results):
    _assert(results, "theorem-rate-l1")
    _assert(results, "noiseless-decay-exponent")


def test_criterion_05_dithered_sign_statistics(results):
    _assert(results, "dithered-sign-statistics")


def test_criterion_06_projection_calibration(results):
    _assert(results, "projection-calibration")


def test_criterion_07_reduction_identities(results):
    _assert(results, "reduction-identities")


def test_criterion_08_geometry_and_scale_invariance(results):
    _assert(results, "sign-phase-geometry")
    _assert(results, "scale-invariance")


def test_criterion_09_switching_benefit_and_limit_cycle(results):
    _assert(results, "switching-benefit")
    _assert(results, "sign-limit-cycle")


def test_criterion_10_asymmetric_noise_failure(results):
    _assert(results, "asymmetric-noise-failure")


def test_criterion_11_gradient_correctness(results):
    _assert(results, "gradient-correctness")


def test_criterion_12_serialization_and_selftest(results):
    _assert(results, "serialization-roundtrip")
    # selftest exit code 0 is equivalent to every check above passing
    failing = [n for n, r in results.items() if not r.passed]
    print(f"[{'PASS' if not failing else 'FAIL'}] selftest-aggregate: "
          f"{len(results)} checks, failing: {failing or 'none'}")
    assert not failing


def test_battery_lines_are_pinned(results):
    assert [r.line() for r in results.values()] == FULL_BATTERY_LINES
