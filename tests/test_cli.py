import contextlib
import io
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from signopt.checks import (SWITCH_T_GRID, THEOREM_K_GRID, THEOREM_N_GRID,
                            THEOREM_SEEDS, CheckResult)
from signopt.cli import build_parser, main
from signopt.config import (ExperimentConfig, OptimizerSpec, ProblemSpec,
                            RunSpec, save_config)
from signopt.core import MAX_VECTOR


def write_cfg(path, **opt):
    cfg = ExperimentConfig(
        problem=ProblemSpec(kind="quadratic", dim=3,
                            lipschitz=(0.5, 1.0, 2.0), x_opt=(0.0,),
                            x0=(1.0,), noise_family="gaussian",
                            sigma=(0.5,)),
        optimizer=OptimizerSpec(**opt),
        run=RunSpec(steps=200, batch_size=1, seeds=(0,)))
    save_config(cfg, path)
    return path


def test_run_command_writes_outputs(tmp_path):
    cfg_path = write_cfg(tmp_path / "exp.cfg", algorithm="signsgdm")
    code = main(["run", "--config", str(cfg_path), "--seed", "4",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "run_seed4.csv").exists()
    assert (tmp_path / "out" / "run_seed4.json").exists()


def test_divergence_exit_code(tmp_path):
    cfg_path = write_cfg(tmp_path / "bad.cfg", algorithm="sgd", lr=1e6)
    code = main(["run", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == 3


def test_config_error_exit_code(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("optimizer.algorithm = adamw\n")
    assert main(["run", "--config", str(path)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 2


def test_bound_verify_passes():
    assert main(["bound-verify", "--trials", "20000"]) == 0


def test_dither_verify_passes():
    assert main(["dither-verify", "--trials", "20000"]) == 0


CANNED = [CheckResult("first", True, "detail one"),
          CheckResult("second", True)]


def selftest(monkeypatch, capsys, results, argv=("selftest",)):
    """`signopt selftest` over canned battery results: (exit code, stdout
    lines)."""
    monkeypatch.setattr("signopt.cli.run_all", lambda: list(results))
    code = main(list(argv))
    return code, capsys.readouterr().out.splitlines()


def test_selftest_prints_one_line_per_result(monkeypatch, capsys):
    code, lines = selftest(monkeypatch, capsys, CANNED)
    assert code == 0
    assert lines == ["[PASS] first: detail one", "[PASS] second"]


def test_selftest_exits_1_when_a_check_fails(monkeypatch, capsys):
    code, lines = selftest(monkeypatch, capsys,
                           CANNED + [CheckResult("third", False, "off")])
    assert code == 1
    assert lines == ["[PASS] first: detail one", "[PASS] second",
                     "[FAIL] third: off"]


def test_selftest_has_no_fast_flag(monkeypatch, capsys):
    code, lines = selftest(monkeypatch, capsys, CANNED,
                           argv=("selftest", "--fast"))
    assert code == 2
    assert lines == []


def test_out_root_env_var(tmp_path, monkeypatch):
    cfg_path = write_cfg(tmp_path / "exp.cfg", algorithm="signsgd")
    monkeypatch.setenv("SIGNOPT_OUT_ROOT", str(tmp_path / "envout"))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "envout" / "run_seed0.csv").exists()


@pytest.mark.parametrize("argv", [
    ["theorem-suite", "--seeds", "2", "--k-grid", "100", "--n-grid", "1"],
    ["switch-suite", "--seeds", "2", "--t-grid", "50"],
])
def test_suites_write_only_with_out(tmp_path, monkeypatch, argv):
    """`SIGNOPT_OUT_ROOT` redirects `run` alone: without --out, a suite
    writes nothing, neither under the variable nor in the working
    directory."""
    cfg_path = write_cfg(tmp_path / "exp.cfg", algorithm="hybrid",
                         delta=0.05)
    monkeypatch.setenv("SIGNOPT_OUT_ROOT", str(tmp_path / "envout"))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(argv + ["--config", str(cfg_path)]) in (0, 1)
    assert not (tmp_path / "envout").exists()
    assert not any(cwd.iterdir())


def test_theorem_suite_command(tmp_path):
    cfg_path = write_cfg(tmp_path / "exp.cfg", algorithm="signsgd")
    code = main(["theorem-suite", "--config", str(cfg_path),
                 "--seeds", "3", "--k-grid", "100,400", "--n-grid", "1,4",
                 "--out", str(tmp_path / "suite")])
    assert code == 0
    assert (tmp_path / "suite" / "theorem_suite.json").exists()


def test_switch_suite_command(tmp_path):
    cfg_path = write_cfg(tmp_path / "exp.cfg", algorithm="hybrid",
                         delta=0.05)
    code = main(["switch-suite", "--config", str(cfg_path),
                 "--seeds", "4", "--t-grid", "50,100"])
    assert code in (0, 1)  # benefit is not guaranteed at this tiny budget


def test_suite_defaults_are_the_battery_grids():
    parser = build_parser()
    theorem = parser.parse_args(["theorem-suite", "--config", "c"])
    switch = parser.parse_args(["switch-suite", "--config", "c"])
    assert tuple(range(theorem.seeds)) == THEOREM_SEEDS
    assert tuple(theorem.k_grid) == THEOREM_K_GRID
    assert tuple(theorem.n_grid) == THEOREM_N_GRID
    assert tuple(range(switch.seeds)) == THEOREM_SEEDS
    assert tuple(switch.t_grid) == SWITCH_T_GRID


# file cases: the config path is a directory, or --out names a file
CONFIG_IS_DIRECTORY = object()
OUT_IS_FILE = object()


@pytest.mark.parametrize("text", [
    "optimizer.beta = 1.5\n",
    "optimizer.algorithm = dithered\noptimizer.dither_mode = none\n",
    "optimizer.lr = -1\n",
    pytest.param("problem.sigma = -1\n", id="sigma-negative"),
    pytest.param("problem.kind = mlp\nproblem.layer_widths = 2,1\n",
                 id="mlp-two-widths"),
    pytest.param("problem.kind = mlp\nproblem.layer_widths = 2,0,1\n",
                 id="mlp-zero-width"),
    pytest.param("problem.lipschitz = -1\n", id="lipschitz-negative"),
    pytest.param("problem.lipschitz = nan\n", id="lipschitz-nan"),
    pytest.param("problem.x0 = inf\n", id="x0-inf"),
    pytest.param("problem.kind = logistic\nproblem.n_points = 0\n",
                 id="logistic-no-points"),
    pytest.param("problem.kind = logistic\nproblem.dataset_seed = -1\n",
                 id="dataset-seed-negative"),
    pytest.param("run.decay_every = 10\nrun.decay_factor = 0\n",
                 id="decay-factor-zero"),
    pytest.param("run.decay_every = 1\nrun.decay_factor = 0.5\n"
                 "run.steps = 1200\n", id="decay-underflow"),
    pytest.param("run.decay_every = 1\nrun.decay_factor = 2\n"
                 "run.steps = 1100\n", id="decay-overflow"),
    pytest.param("optimizer.lambda_init = inf\n", id="lambda-init-inf"),
    pytest.param("run.record_stride = -1\n", id="record-stride-negative"),
    pytest.param("run.seeds = -1\n", id="seed-negative"),
    pytest.param("run.seeds =\n", id="seeds-empty"),
    pytest.param("run.theorem_mode = yes\n", id="theorem-mode-not-bool"),
    pytest.param("problem.kind = cubic\n", id="kind-unknown"),
    pytest.param("problem.noise_family = cauchy\n", id="noise-family-unknown"),
    pytest.param("run.steps = 10\nrun.steps = 20\n", id="duplicate-key"),
    pytest.param("steps = 5\n", id="key-without-section"),
    pytest.param("run.theorem_mode = true\nrun.decay_every = 10\n"
                 "run.decay_factor = 0.5\n", id="theorem-mode-with-decay"),
    pytest.param("optimizer.lambda_bias_correction = true\n"
                 "optimizer.lambda_init = 0.02\n",
                 id="bias-correction-nonzero-init"),
    pytest.param(b"run.steps = 10 # \xff\n", id="config-not-utf8"),
    pytest.param(CONFIG_IS_DIRECTORY, id="config-is-directory"),
    pytest.param(OUT_IS_FILE, id="out-is-file"),
    # valid but unbuildable sizes, rejected before anything is allocated
    pytest.param("problem.dim = 9223372036854775807\n", id="dim-too-big"),
    pytest.param("problem.kind = mlp\nproblem.layer_widths = "
                 + ",".join(["1"] * 600) + "\n", id="mlp-too-deep"),
    pytest.param("run.steps = 1" + "0" * 400 + "\n", id="steps-not-a-float"),
    pytest.param(f"run.batch_size = {2**62}\n", id="batch-too-big"),
    pytest.param(f"problem.kind = logistic\nproblem.n_points = {2**62}\n",
                 id="logistic-data-too-big"),
    pytest.param(f"problem.kind = mlp\nproblem.n_points = {2**62}\n",
                 id="mlp-data-too-big"),
])
def test_invalid_optimizer_value_exits_2_with_one_line(tmp_path, capsys, text):
    path = tmp_path / "bad.cfg"
    if text is CONFIG_IS_DIRECTORY:
        path.mkdir()
    elif text is OUT_IS_FILE:
        path.write_text("")
        (tmp_path / "out").write_text("")
    elif isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("text, argv", [
    pytest.param("run.theorem_mode = true\nproblem.lipschitz = 0\n",
                 ["run"], id="run-theorem-mode-flat"),
    pytest.param(f"run.batch_size = {2**62}\n", ["run"],
                 id="run-batch-too-big"),
    # the suite builds each cell's config: its batch is checked there
    pytest.param("", ["theorem-suite", "--seeds", "2", "--k-grid", "100",
                      "--n-grid", str(2**60)],
                 id="theorem-suite-batch-too-big"),
    # the suite sets theorem mode on each cell, so the error must say so
    pytest.param("run.decay_every = 100\n", ["theorem-suite"],
                 id="theorem-suite-decay"),
])
def test_failed_command_leaves_no_out_directory(tmp_path, capsys, text, argv):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main(argv + ["--config", str(path),
                        "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


# the flags of a small run of each writing command, and the file it writes
WRITES = {
    "run": ([], "run_seed0.csv"),
    "theorem-suite": (["--seeds", "1", "--k-grid", "10", "--n-grid", "1"],
                      "theorem_suite.json"),
    "switch-suite": (["--seeds", "1", "--t-grid", "5"], "switch_suite.json"),
}


@pytest.mark.parametrize("command", sorted(WRITES))
def test_unwritable_output_file_exits_2_with_one_line(tmp_path, capsys,
                                                      command):
    flags, name = WRITES[command]
    cfg_path = write_cfg(tmp_path / "exp.cfg", algorithm="hybrid",
                         delta=0.05)
    (tmp_path / "out" / name).mkdir(parents=True)
    assert main([command, "--config", str(cfg_path), *flags,
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {tmp_path / 'out'}")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("under", ["", "sub"])
@pytest.mark.parametrize("command", sorted(WRITES))
def test_out_under_a_file_fails_before_the_run(tmp_path, capsys, monkeypatch,
                                               command, under):
    def never(*args, **kwargs):
        raise AssertionError("ran before --out was checked")

    for name in ("signopt.cli.run_single",
                 "signopt.harness.run_theorem_suite",
                 "signopt.harness.run_switch_suite"):
        monkeypatch.setattr(name, never)
    cfg_path = write_cfg(tmp_path / "exp.cfg", algorithm="hybrid",
                         delta=0.05)
    (tmp_path / "out").write_text("")
    assert main([command, "--config", str(cfg_path), *WRITES[command][0],
                 "--out", str(tmp_path / "out" / under)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create output directory")
    assert len(err.splitlines()) == 1
    assert (tmp_path / "out").read_text() == ""


# each suite command, the harness function it runs and a canned report
SUITE_RUNNERS = {
    "theorem-suite": ("run_theorem_suite", {"cells": [], "passed": True}),
    "switch-suite": ("run_switch_suite", {
        "entries": [], "signsgdm_median_final_f": 1.0,
        "signsgdm_diverged": 0, "sgd_median_final_f": 1.0,
        "sgd_diverged": 0, "passed": True}),
}


@pytest.mark.parametrize("command", sorted(SUITE_RUNNERS))
def test_suite_command_calls_the_runner_on_harness(tmp_path, monkeypatch,
                                                   command):
    """A suite command finds its runner on `harness` at call time, so a
    wrapper set there (a tracer's span) sees every CLI suite call."""
    name, report = SUITE_RUNNERS[command]
    calls = []

    def runner(*args):
        calls.append(args)
        return report

    monkeypatch.setattr(f"signopt.harness.{name}", runner)
    cfg_path = write_cfg(tmp_path / "exp.cfg", algorithm="signsgd")
    assert main([command, "--config", str(cfg_path)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["run", "theorem-suite", "switch-suite"])
def test_memory_error_exits_2_with_one_line(tmp_path, capsys, monkeypatch,
                                            command):
    """A valid size too large for memory is a config error, not a failed
    check; the build is patched to fail, so nothing large is allocated."""
    def build_problem(cfg):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with "
                          "shape (1000000000000,) and data type float64")

    monkeypatch.setattr("signopt.harness.build_problem", build_problem)
    cfg_path = write_cfg(tmp_path / "exp.cfg", algorithm="signsgd")
    assert main([command, "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["theorem-suite", "--seeds", "0"],
    ["theorem-suite", "--k-grid", "0"],
    ["theorem-suite", "--n-grid", "1,0"],
    ["switch-suite", "--seeds", "0"],
    ["dither-verify", "--trials", "0"],
    ["bound-verify", "--trials", "0"],
    ["run", "--seed", "-1"],
    ["switch-suite", "--t-grid", "1" + "0" * 400],
    ["theorem-suite", "--k-grid", "1" + "0" * 400],
    ["theorem-suite", "--n-grid", "4,1" + "0" * 400],
    ["run", "--seed", str(2**64)],
    ["theorem-suite", "--seeds", str(2**63)],
    ["switch-suite", "--seeds", str(2**63)],
    ["dither-verify", "--trials", str(10**19)],
    ["bound-verify", "--trials", str(2**62)],
    ["theorem-suite", "--k-grid", ","],
])
def test_out_of_range_argument_exits_2(tmp_path, capsys, argv):
    cfg_path = write_cfg(tmp_path / "exp.cfg", algorithm="signsgd")
    if argv[0] not in ("dither-verify", "bound-verify"):
        argv = argv + ["--config", str(cfg_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"signopt {argv[0]}: error: ")


def test_theorem_suite_decay_error_names_the_suite(tmp_path, capsys):
    path = tmp_path / "decay.cfg"
    path.write_text("run.decay_every = 100\n")
    assert main(["theorem-suite", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "theorem suite" in err and "run.decay_every must be 0" in err


# Each integer flag at the edges of its rule: `core.is_seed` for --seed,
# `core.is_count` up to MAX_VECTOR for --seeds and --trials, and for the
# grids a count (>= 1, or >= 0 for --t-grid) at most the largest float.
# Parsed only: a command run with --seeds MAX_VECTOR would list 2^60 seeds.
@pytest.mark.parametrize("flags, value, accepted", [
    (["run", "--seed"], 2**64 - 1, True),
    (["run", "--seed"], 2**64, False),
    (["run", "--seed"], -1, False),
    *[(flags, value, value == MAX_VECTOR)
      for flags in (["theorem-suite", "--seeds"], ["switch-suite", "--seeds"],
                    ["dither-verify", "--trials"],
                    ["bound-verify", "--trials"])
      for value in (MAX_VECTOR, MAX_VECTOR + 1)],
    (["switch-suite", "--t-grid"], 0, True),
    (["theorem-suite", "--k-grid"], 0, False),
    (["theorem-suite", "--n-grid"], 0, False),
    *[(flags, value, value == 10**308)
      for flags in (["theorem-suite", "--k-grid"],
                    ["theorem-suite", "--n-grid"], ["switch-suite", "--t-grid"])
      for value in (10**308, 10**309)],
])
def test_integer_flag_edges(capsys, flags, value, accepted):
    argv = flags + [str(value)]
    if flags[0] not in ("dither-verify", "bound-verify"):
        argv += ["--config", "unused.cfg"]
    if accepted:
        args = vars(build_parser().parse_args(argv))
        parsed = args[flags[1][2:].replace("-", "_")]
        assert parsed == ([value] if flags[1].endswith("grid") else value)
        return
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"signopt {flags[0]}: error: ")


# Exit-code contract under random input: every config text and argument
# vector gives 0, 1, 2 or 3, and none raises or prints a traceback. Runs are
# kept short (run.steps <= 50, tiny grids and trial counts); `selftest` takes
# no config and is left out for its run time.
FLOATS = ["0", "0.5", "2", "1e-3", "1e300", "1e308", "-1", "nan", "inf",
          "-inf"]
SIZES = ["-1", "0", "1", "2", "3", "10", "50"]
SEEDS = SIZES + [str(2**64 - 1), str(2**64)]
WORDS = ["quadratic", "logistic", "mlp", "gaussian", "laplace",
         "asymmetric-bimodal", "sgd", "signsgd", "signsgdm", "dithered",
         "hybrid", "pre", "post", "none", "bogus"]


def _values_for(name, default):
    """Mostly well-typed values for a config key, some out of range."""
    if isinstance(default, bool):
        return st.sampled_from(["true", "false", "1"])
    if isinstance(default, str):
        return st.sampled_from(WORDS)
    pool = (FLOATS if isinstance(default, float)
            or (isinstance(default, tuple) and isinstance(default[0], float))
            else SEEDS if "seed" in name else SIZES)
    if isinstance(default, tuple):
        return st.lists(st.sampled_from(pool), max_size=4).map(",".join)
    return st.sampled_from(pool + ["abc"])


FUZZ_KEYS = [(f"{section}.{f.name}", f.default)
             for section, cls in (("problem", ProblemSpec),
                                  ("optimizer", OptimizerSpec),
                                  ("run", RunSpec))
             for f in fields(cls) if f.name != "steps"]
config_lines = st.one_of(
    st.sampled_from(FUZZ_KEYS).flatmap(
        lambda kv: _values_for(*kv).map(lambda v: f"{kv[0]} = {v}")),
    st.sampled_from(["garbage", "= 1", "run.steps", "# comment",
                     "problem.n_params = 3", "problem.__class__ = 1",
                     "mystery.key = 1"]))
config_texts = st.builds(
    lambda lines, steps, at: "\n".join(
        lines[:at] + [f"run.steps = {steps}"] + lines[at:]) + "\n",
    st.lists(config_lines, max_size=6), st.integers(-1, 50),
    st.integers(0, 6))
COMMANDS = {
    "run": [],
    "theorem-suite": ["--seeds", "2", "--k-grid", "10", "--n-grid", "1"],
    "switch-suite": ["--seeds", "2", "--t-grid", "5"],
    "dither-verify": ["--trials", "100"],
    "bound-verify": ["--trials", "100"],
}
extra_flags = st.lists(st.one_of(
    st.tuples(st.sampled_from(["--seeds", "--seed", "--trials"]),
              # 2^63 and 2^64 - 1: seeds to --seed, and past MAX_VECTOR,
              # so --seeds and --trials reject them before any allocation
              st.sampled_from(["-1", "0", "1", "3", "x", "", str(2**63),
                               str(2**64 - 1)])),
    st.tuples(st.sampled_from(["--k-grid", "--n-grid", "--t-grid"]),
              st.sampled_from(["0", "1", "5,20", "-1", "", ",", "50"])),
    st.tuples(st.sampled_from(["--config", "--out"]),
              st.sampled_from(["CONFIG", "DIR", "FILE", "MISSING"])),
    st.tuples(st.sampled_from(["--fast", "--bogus", "extra"]))), max_size=3)


# Configs that overflow where a run expects it: in phi at a diagnostics
# flush, in a sign step, in an SGD step and in f(x0). None of them may let a
# RuntimeWarning out of `main`.
QUAD3 = "problem.kind = quadratic\nproblem.dim = 3\n"
OVERFLOW_IN_PHI = QUAD3 + ("problem.lipschitz = 1e250\nproblem.x0 = 1e-60\n"
                           "optimizer.delta = 1e-70\nrun.steps = 5\n")
OVERFLOW_IN_SIGN_STEP = QUAD3 + (
    "optimizer.algorithm = dithered\noptimizer.dither_mode = post\n"
    "optimizer.alpha = 1e300\noptimizer.delta = 1e300\nrun.steps = 20\n")
OVERFLOW_IN_SGD_STEP = QUAD3 + ("optimizer.algorithm = sgd\n"
                                "optimizer.lr = 1e300\n"
                                "problem.lipschitz = 1e10\nrun.steps = 20\n")
INFINITE_F0 = QUAD3 + "problem.x0 = 1e300\nproblem.lipschitz = 1e10\n"
# diverges at step 13, with its averages far inside the theorem's bounds
SGD_DIVERGES = QUAD3 + ("problem.x0 = 1e150\nproblem.lipschitz = 3\n"
                        "problem.sigma = 0\noptimizer.algorithm = sgd\n"
                        "optimizer.lr = 1\n")
# L1 * K overflows in the sum of the Lipschitz constants, which theorem mode
# takes under the run's float policy; the small x0 keeps f(x0) finite
LIPSCHITZ_SUM_OVERFLOWS = QUAD3 + ("problem.lipschitz = 1e308\n"
                                   "run.theorem_mode = true\nrun.steps = 3\n")
THEOREM_NEEDS = "config error: theorem mode needs 0 < L1 * K < inf, got inf\n"


@settings(max_examples=150, deadline=None)
@given(text=config_texts, command=st.sampled_from(sorted(COMMANDS)),
       flags=extra_flags)
@example(text=OVERFLOW_IN_PHI, command="run", flags=[])
@example(text=OVERFLOW_IN_SIGN_STEP, command="run", flags=[])
@example(text=OVERFLOW_IN_SGD_STEP, command="run", flags=[])
@example(text=INFINITE_F0, command="theorem-suite", flags=[])
@example(text=QUAD3 + "run.steps = 20\n", command="run",
         flags=[("--seed", str(2**64 - 1))])
def test_exit_code_contract_holds_for_random_input(text, command, flags):
    with tempfile.TemporaryDirectory() as td:
        root = Path(td)
        paths = {"CONFIG": root / "exp.cfg", "DIR": root / "out",
                 "FILE": root / "file", "MISSING": root / "missing.cfg"}
        paths["CONFIG"].write_text(text)
        paths["FILE"].write_text("")
        argv = [command] + COMMANDS[command]
        if command in ("run", "theorem-suite", "switch-suite"):
            argv += ["--config", str(paths["CONFIG"]), "--out", str(root)]
        for flag in flags:
            argv += [str(paths.get(token, token)) for token in flag]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2, 3), (argv, text)
    assert "Traceback" not in err.getvalue(), (argv, text)


def test_theorem_suite_says_a_run_diverged(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text(SGD_DIVERGES)
    assert main(["theorem-suite", "--seeds", "2", "--k-grid", "10,50",
                 "--n-grid", "1", "--config", str(config)]) == 1
    held, diverged = capsys.readouterr().out.splitlines()
    assert held.startswith("[PASS] K=10 ") and "diverged" not in held
    assert diverged.startswith("[FAIL] K=50 ")
    assert diverged.endswith("  (a run diverged)")


def test_switch_suite_says_a_run_diverged(tmp_path, capsys):
    # SGD at lr 1 on curvature 3 doubles x every step; the sign steps of
    # the hybrids and SignSGD-M do not diverge
    config = tmp_path / "exp.cfg"
    config.write_text(SGD_DIVERGES + "run.steps = 50\n")
    assert main(["switch-suite", "--seeds", "2", "--t-grid", "0,1000",
                 "--config", str(config)]) == 1
    *held, sgd = capsys.readouterr().out.splitlines()
    assert len(held) == 3 and all("diverged" not in line for line in held)
    assert sgd.startswith("pure sgd ")
    assert sgd.endswith("  (a run diverged)")


@pytest.mark.parametrize("text, argv, code, err", [
    (OVERFLOW_IN_PHI, ["run"], 0, ""),
    (OVERFLOW_IN_SIGN_STEP, ["run"], 3, "run diverged at step 1\n"),
    (OVERFLOW_IN_SGD_STEP, ["run"], 3, "run diverged at step 1\n"),
    (INFINITE_F0, ["theorem-suite", "--seeds", "2", "--k-grid", "5",
                   "--n-grid", "1"], 2,
     "config error: the theorem suite needs a finite f(x0), got inf\n"),
    (SGD_DIVERGES, ["theorem-suite", "--seeds", "2", "--k-grid", "50",
                    "--n-grid", "1"], 1, ""),
    (LIPSCHITZ_SUM_OVERFLOWS, ["run"], 2, THEOREM_NEEDS),
    (LIPSCHITZ_SUM_OVERFLOWS, ["switch-suite", "--seeds", "2", "--t-grid",
                               "5"], 2, THEOREM_NEEDS),
    (LIPSCHITZ_SUM_OVERFLOWS + "problem.x0 = 1e-160\n",
     ["theorem-suite", "--seeds", "2", "--k-grid", "5", "--n-grid", "1"], 2,
     THEOREM_NEEDS),
], ids=["phi", "sign-step", "sgd-step", "infinite-f0", "suite-diverged",
        "theorem-run", "theorem-switch-suite", "theorem-suite"])
def test_handled_overflow_gives_its_exit_code_alone(tmp_path, capsys, text,
                                                    argv, code, err):
    config = tmp_path / "exp.cfg"
    config.write_text(text)
    assert main(argv + ["--config", str(config), "--out",
                        str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == err
