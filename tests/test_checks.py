"""The battery's checks reach the engine through its batch paths; these
tests pin that the batched forms equal their one-at-a-time references and
that the batched checks can still fail."""

from dataclasses import replace

import numpy as np
import pytest

from signopt import checks, cli, harness
from signopt.config import save_config
from signopt.core import STREAM_MC, RngStream


def _fd_gradient(f, x: np.ndarray, h: float) -> np.ndarray:
    """Reference: central differences one coordinate at a time."""
    g = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        g[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return g


def test_row_differences_equal_the_coordinate_loop():
    # the check's own points: the same stream, drawn in the same order
    rng = RngStream(checks.MC_SEED + 4, STREAM_MC).generator
    for problem, scale, h in checks._gradient_problems():
        for _ in range(100):
            x = scale * rng.standard_normal(problem.dim)
            rows = checks._central_differences(problem.eval_f, x, h)
            loop = _fd_gradient(problem.eval_f, x, h)
            assert rows.tobytes() == loop.tobytes()


def test_gradient_check_makes_two_eval_f_calls_per_point(monkeypatch):
    gradient_problems = checks._gradient_problems
    calls = []

    def counted(problem):
        def eval_f(x):
            calls[-1] += 1
            return problem.eval_f(x)
        return replace(problem, eval_f=eval_f)

    def problems():
        for problem, scale, h in gradient_problems():
            calls.append(0)
            yield counted(problem), scale, h

    monkeypatch.setattr(checks, "_gradient_problems", problems)
    assert checks.check_gradient_correctness().passed
    assert calls == [200, 200]


def _nudge(monkeypatch, record: int, step: int) -> list:
    """Wrap `checks.run_seeds` so that the largest coordinate of one
    record's iterate at one step moves up by one ulp; returns the list the
    wrapper counts its calls in."""
    run_seeds = checks.run_seeds
    calls = []

    def nudged(*args, **kwargs):
        calls.append(1)
        recs = run_seeds(*args, **kwargs)
        x = recs[record].iterates[step]
        i = np.argmax(np.abs(x))
        assert x[i] != 0  # one ulp from 0 would vanish in a difference
        x[i] = np.nextafter(x[i], np.inf)
        return recs

    monkeypatch.setattr(checks, "run_seeds", nudged)
    return calls


@pytest.mark.parametrize("record", range(7))
def test_reduction_identities_catch_a_one_ulp_change(monkeypatch, record):
    calls = _nudge(monkeypatch, record, step=150)
    assert not checks.check_reduction_identities().passed
    assert len(calls) == 1


@pytest.mark.parametrize("record", range(4))
def test_sign_phase_geometry_catches_an_off_grid_step(monkeypatch, record):
    calls = _nudge(monkeypatch, record, step=150)
    assert not checks.check_sign_phase_geometry().passed
    assert len(calls) == 1


def test_theorem_rate_fails_both_lines_when_a_run_diverged(monkeypatch):
    # a cell the suite failed though both inequalities hold
    cell = {"K": 50, "n": 1, "avg_phi": 1.0, "rhs_phi": 2.0, "avg_l1": 1.0,
            "rhs_l1": 2.0, "diverged": 1, "passed": False}
    monkeypatch.setattr(checks, "run_theorem_suite",
                        lambda *args: {"cells": [cell], "passed": False})
    for result in checks.check_theorem_rate():
        assert not result.passed
        assert result.detail == "min rhs/lhs ratio 2.000; a run diverged"


def test_a_diverged_cell_that_broke_a_bound_still_says_so(monkeypatch,
                                                          tmp_path, capsys):
    # a run diverged, and the l1 bound is broken as well
    cell = {"K": 50, "n": 1, "avg_phi": 1.0, "rhs_phi": 2.0, "avg_l1": 3.0,
            "rhs_l1": 2.0, "diverged": 1, "passed": False}
    report = {"cells": [cell], "passed": False}
    monkeypatch.setattr(checks, "run_theorem_suite", lambda *args: report)
    phi, l1 = checks.check_theorem_rate()
    assert not phi.passed and not l1.passed
    assert phi.detail == "min rhs/lhs ratio 2.000; a run diverged"
    assert l1.detail == "min rhs/lhs ratio 0.667; a run diverged"

    monkeypatch.setattr(harness, "run_theorem_suite", lambda *args: report)
    config = tmp_path / "exp.cfg"
    save_config(checks._theorem_base_config(1.0), config)
    assert cli.main(["theorem-suite", "--config", str(config)]) == 1
    line, = capsys.readouterr().out.splitlines()
    assert line.startswith("[FAIL] K=50 ")
    assert line.endswith("  (a run diverged)")


def test_projection_calibration_catches_a_negative_lambda(monkeypatch):
    lambda_project = checks.lambda_project
    calls = []

    def negated(*args):
        calls.append(1)
        return -lambda_project(*args) - 1e-300

    monkeypatch.setattr(checks, "lambda_project", negated)
    assert not checks.check_projection_calibration().passed
    # the first triple stops the loop; the two worked values still run
    assert len(calls) == 3


def test_projection_calibration_catches_a_broken_identity(monkeypatch):
    lambda_project = checks.lambda_project
    calls = []

    def scaled(*args):
        calls.append(1)
        return lambda_project(*args) * (1.0 + 1e-12)

    monkeypatch.setattr(checks, "lambda_project", scaled)
    assert not checks.check_projection_calibration().passed
    assert len(calls) == 3


def test_scale_invariance_catches_a_lambda_off_by_more_than_4_ulps(
        monkeypatch):
    run_seeds = checks.run_seeds
    calls = []

    def shifted(*args, **kwargs):
        calls.append(1)
        recs = run_seeds(*args, **kwargs)
        if len(calls) == 2:  # the scaled problem's run
            recs[0].columns["lam"][-1] *= 1.0 + 1e-14  # about 45 ulps
        return recs

    monkeypatch.setattr(checks, "run_seeds", shifted)
    result = checks.check_scale_invariance()
    assert not result.passed
    assert len(calls) == 2


def test_scale_invariance_reads_lambda_as_the_row_loop_does(monkeypatch):
    # a zero lambda in both runs counts 0 ulps, and a NaN lambda in the
    # scaled run neither fails the check nor sets the worst error
    run_seeds = checks.run_seeds
    recs = []

    def edited(*args, **kwargs):
        rec, = run_seeds(*args, **kwargs)
        rec.columns["lam"][3] = 0.0
        if recs:
            rec.columns["lam"][7] = np.nan
        recs.append(rec)
        return [rec]

    monkeypatch.setattr(checks, "run_seeds", edited)
    result = checks.check_scale_invariance()
    rec_a, rec_b = recs
    ok, worst = True, 0.0
    for ra, rb in zip(rec_a.columns["lam"].tolist(),
                      rec_b.columns["lam"].tolist()):
        err = abs(10.0 * rb - ra)
        worst = max(worst, err / np.spacing(ra) if ra else 0.0)
        ok = ok and not err > 4.0 * np.spacing(ra)
    assert result.passed == ok
    assert result.detail == f"lambda worst error {worst:.2f} ulps (limit 4)"


@pytest.mark.parametrize("check", ["check_scale_invariance",
                                   "check_sign_limit_cycle",
                                   "check_asymmetric_failure"])
def test_record_checks_build_no_row(monkeypatch, check):
    # they read the records' columns; a record's rows would be built here
    built = []
    row = harness.Row

    def counted(*args):
        built.append(1)
        return row(*args)

    monkeypatch.setattr(harness, "Row", counted)
    assert getattr(checks, check)().passed
    assert not built
