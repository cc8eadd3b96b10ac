"""The battery's checks reach the engine through its batch paths; these
tests pin that the batched forms equal their one-at-a-time references and
that the batched checks can still fail."""

from dataclasses import replace

import numpy as np
import pytest

from signopt import checks
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
            "rhs_l1": 2.0, "passed": False}
    monkeypatch.setattr(checks, "run_theorem_suite",
                        lambda *args: {"cells": [cell], "passed": False})
    for result in checks.check_theorem_rate():
        assert not result.passed
        assert result.detail == "min rhs/lhs ratio 2.000; a run diverged"
