"""Command-line interface.

Exit codes: 0 all checks pass, 1 check failure, 2 usage/config error,
3 divergence.

argparse is imported only where the command line is parsed: with its
gettext it costs about 2 ms, which an import of `cli` that parses nothing
should not pay.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from . import harness
from .checks import (MC_TRIALS, SWITCH_T_GRID, THEOREM_K_GRID,
                     THEOREM_N_GRID, THEOREM_SEEDS, check_dither_statistics,
                     check_gauss_bound_validity, check_relaxation_inequality,
                     run_all)
from .config import ConfigError, load_config
from .core import MAX_VECTOR, is_count, is_seed
from .harness import emit_csv, emit_json, run_single, run_summary

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3

OUT_ROOT_ENV = "SIGNOPT_OUT_ROOT"


def _out_dir(flag_value) -> Path:
    """The output directory, checked before anything runs: the nearest of
    it and its parents that exists must be a directory. Nothing is
    created until `_write`."""
    path = Path(flag_value or os.environ.get(OUT_ROOT_ENV, "."))
    for part in (path, *path.parents):
        if os.path.exists(part):
            if not os.path.isdir(part):
                raise ConfigError(f"cannot create output directory {path}: "
                                  f"{part} is not a directory")
            break
    return path


def _write(emit, obj, path: Path) -> None:
    """`emit(obj, path)` into a directory created on demand; a path that
    cannot be written is a config error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        emit(obj, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _integer(rule, bound: str):
    """argparse type: one integer that `rule` accepts; `bound` says which."""
    # argparse names the function in its "invalid <name> value" message
    def integer(text: str) -> int:
        value = int(text)
        if not rule(value):
            import argparse  # already loaded: only a parse calls this
            raise argparse.ArgumentTypeError(f"must be {bound}")
        return value
    return integer


def _grid(minimum: int):
    """argparse type: comma-separated integers, at least one, each a count
    >= minimum and at most the largest float: grid values become run
    lengths, stepsizes and switch points, and `RunSpec` puts that bound on
    `run.steps`."""
    integer = _integer(
        lambda v: is_count(v, minimum) and v <= sys.float_info.max,
        f"an integer >= {minimum} and <= {sys.float_info.max:.4g}")

    def integers(text: str) -> list:
        values = [integer(t) for t in text.split(",") if t.strip()]
        if not values:
            import argparse
            raise argparse.ArgumentTypeError("expected at least one integer")
        return values
    return integers


_seed = _integer(is_seed, "a 64-bit unsigned integer")
# --seeds and --trials size arrays, so they share the config's size bound
_count = _integer(lambda v: is_count(v) and v <= MAX_VECTOR,
                  f"an integer >= 1 and <= {MAX_VECTOR}")


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args.out)
    record = run_single(cfg, args.seed)
    _write(emit_csv, record, out / f"run_seed{args.seed}.csv")
    _write(emit_json, run_summary(cfg, record),
           out / f"run_seed{args.seed}.json")
    if record.diverged:
        print(f"run diverged at step {record.oracle_calls}", file=sys.stderr)
        return EXIT_DIVERGED
    print(f"final f = {record.final_f:.6g}  avg phi = {record.avg_phi:.6g}  "
          f"avg |g|_1 = {record.avg_l1:.6g}")
    return EXIT_OK


def _diverged_note(diverged: int) -> str:
    """What a suite line adds when `diverged` of its runs diverged."""
    return "  (a run diverged)" if diverged else ""


def cmd_theorem_suite(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args.out) if args.out else None
    seeds = list(range(args.seeds))
    report = harness.run_theorem_suite(cfg, seeds, args.k_grid, args.n_grid)
    for cell in report["cells"]:
        mark = "PASS" if cell["passed"] else "FAIL"
        print(f"[{mark}] K={cell['K']:<6} n={cell['n']:<3} "
              f"avg_phi={cell['avg_phi']:.4g} <= {cell['rhs_phi']:.4g}  "
              f"avg_l1={cell['avg_l1']:.4g} <= {cell['rhs_l1']:.4g}"
              f"{_diverged_note(cell['diverged'])}")
    if out is not None:
        _write(emit_json, report, out / "theorem_suite.json")
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def cmd_switch_suite(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args.out) if args.out else None
    seeds = list(range(args.seeds))
    report = harness.run_switch_suite(cfg, args.t_grid, seeds)
    for e in report["entries"]:
        print(f"T_switch={e['t_switch']:<6} median final f "
              f"{e['median_final_f']:.6g}  median lambda-at-switch "
              f"{e['median_lambda_at_switch']:.6g}"
              f"{_diverged_note(e['diverged'])}")
    print(f"pure signsgdm median final f {report['signsgdm_median_final_f']:.6g}"
          f"{_diverged_note(report['signsgdm_diverged'])}")
    print(f"pure sgd      median final f {report['sgd_median_final_f']:.6g}"
          f"{_diverged_note(report['sgd_diverged'])}")
    if out is not None:
        _write(emit_json, report, out / "switch_suite.json")
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def _print_results(results) -> int:
    for r in results:
        print(r.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def cmd_dither_verify(args) -> int:
    return _print_results([check_dither_statistics(args.trials)])


def cmd_bound_verify(args) -> int:
    return _print_results([check_gauss_bound_validity(args.trials),
                           check_relaxation_inequality()])


def cmd_selftest(args) -> int:
    return _print_results(run_all())


def build_parser():
    """The `signopt` argument parser, with one subcommand per `cmd_*`."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="signopt",
        description="Sign-based optimizers with dithering, calibrated "
                    "switching, and bound-verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="single experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("theorem-suite", help="rate-bound verification grid")
    p.add_argument("--config", required=True)
    # the suites default to the battery's grids and seeds (--seeds n runs
    # seeds 0 .. n-1)
    p.add_argument("--seeds", type=_count, default=len(THEOREM_SEEDS))
    p.add_argument("--k-grid", type=_grid(1),
                   default=list(THEOREM_K_GRID))
    p.add_argument("--n-grid", type=_grid(1),
                   default=list(THEOREM_N_GRID))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_theorem_suite)

    p = sub.add_parser("switch-suite", help="hybrid switch-point sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", type=_count, default=len(THEOREM_SEEDS))
    p.add_argument("--t-grid", type=_grid(0),
                   default=list(SWITCH_T_GRID))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_switch_suite)

    p = sub.add_parser("dither-verify", help="dithered-sign MC grid")
    p.add_argument("--trials", type=_count, default=MC_TRIALS)
    p.set_defaults(func=cmd_dither_verify)

    p = sub.add_parser("bound-verify", help="sign-failure bound grids")
    p.add_argument("--trials", type=_count, default=MC_TRIALS)
    p.set_defaults(func=cmd_bound_verify)

    p = sub.add_parser("selftest", help="full verification battery")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # a size the config allows but this machine cannot hold
        print(f"config error: too large for memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
