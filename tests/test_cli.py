import pytest

from signopt.cli import main
from signopt.config import (ExperimentConfig, OptimizerSpec, ProblemSpec,
                            RunSpec, save_config)


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


def test_out_root_env_var(tmp_path, monkeypatch):
    cfg_path = write_cfg(tmp_path / "exp.cfg", algorithm="signsgd")
    monkeypatch.setenv("SIGNOPT_OUT_ROOT", str(tmp_path / "envout"))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "envout" / "run_seed0.csv").exists()


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


@pytest.mark.parametrize("text", [
    "optimizer.beta = 1.5\n",
    "optimizer.algorithm = dithered\noptimizer.dither_mode = none\n",
    "optimizer.lr = -1\n",
])
def test_invalid_optimizer_value_exits_2_with_one_line(tmp_path, capsys, text):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main(["run", "--config", str(path),
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
])
def test_out_of_range_argument_exits_2(tmp_path, argv):
    cfg_path = write_cfg(tmp_path / "exp.cfg", algorithm="signsgd")
    if argv[0] not in ("dither-verify", "bound-verify"):
        argv = argv + ["--config", str(cfg_path)]
    assert main(argv) == 2
