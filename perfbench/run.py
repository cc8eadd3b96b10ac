"""signopt benchmark: one workload per process, closed loop, verified.

    python3 perfbench/run.py --workload theorem-cell --seed 0 --seconds 20 --trace 0

With `--trace 0` it times whole rounds of the workload's operations for
about `--seconds` seconds and reports the end-to-end metrics, with each
call's time in reference seconds, which the shared host's contention
leaves alone (see contention.py). With `--trace 1` it runs a warm-up
round, then two untraced rounds around one round with every layer of
signopt wrapped in spans, and reports the per-layer metrics. Either way
the last line of standard output is the JSON result, and the line before
it is the run's provenance.
"""

from __future__ import annotations

import os

# pinned before numpy loads: one BLAS thread per workload process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import dataclasses
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import contention

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("theorem-cell", "switch-sweep", "single-run", "mc-verify")
# set-ups in fresh interpreters, half before and half after the measured
# rounds, so that the median draws on both ends of the run
SETUP_PROBES = 12
# seconds from the end of one contention reference to the start of the
# next, in the measured rounds and in set-up
ROUND_REFERENCE_INTERVAL = 0.02
SETUP_REFERENCE_INTERVAL = 0.003

END_TO_END_UNITS = {"steps_per_s": "1/s", "mc_draws_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}

# per-step self time in µs: metric -> span name
STEP_TIMES = {
    "problems.eval_grad_us": "problems.eval_grad",
    "problems.eval_f_us": "problems.eval_f",
    "theory.phi_us": "theory.phi",
    "core.l1_norm_us": "core.l1_norm",
    "problems.oracle_self_us": "problems.oracle",
    "optimizers.step_us": "optimizers.step",
    "optimizers.lambda_project_us": "optimizers.lambda_project",
    "harness.loop_self_us": "harness.run_single",
}
# calls per step: metric -> span name
STEP_CALLS = {
    "problems.eval_grad_per_step": "problems.eval_grad",
    "problems.eval_f_per_step": "problems.eval_f",
    "optimizers.lambda_project_per_step": "optimizers.lambda_project",
}
# counter per step: metric -> counter name
STEP_COUNTS = {
    "core.rng_calls_per_step": "core.rng_calls",
    "dither.draws_per_step": "dither.draws",
    "dither.sigma_sq_per_step": "dither.sigma_sq",
}
# self seconds per call: metric -> span name
CALL_TIMES = {
    "config.parse_s": "config.parse",
    "config.build_problem_s": "config.build_problem",
    "harness.suite_self_s": "harness.suite",
    "theory.mc_sign_failure_s": "theory.mc_sign_failure",
    "dither.mc_dithered_sign_s": "dither.mc_dithered_sign",
}
# per `signopt run` invocation: metric -> (span or counter name, unit)
CLI_RUN = {
    "harness.emit_s": ("harness.emit", "s"),
    "harness.emit_bytes": ("harness.emit_bytes", "bytes"),
    "harness.rows_recorded": ("harness.rows_recorded", "count"),
    "cli.self_s": ("cli.main", "s"),
}
ALGORITHMS = ("hybrid", "signsgdm", "sgd")     # switch-sweep split
KINDS = ("logistic", "mlp")                     # single-run split
KIND_SPLIT = ("config.parse_s", "config.build_problem_s", "harness.emit_s",
              "cli.self_s")


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in STEP_CALLS:
        units[name] = "count"
    for name in STEP_COUNTS:
        units[name] = "count"
    for name in STEP_TIMES:
        units[name] = "us"
        for group in ALGORITHMS + KINDS:
            units[f"{name}.{group}"] = "us"
    for name in CALL_TIMES:
        units[name] = "s"
    for name, (_, unit) in CLI_RUN.items():
        units[name] = unit
    for name in KIND_SPLIT:
        for kind in KINDS:
            units[f"{name}.{kind}"] = "s"
    units["harness.diverged_runs"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.coverage_ratio"] = "ratio"
    return units


# Set-up in a fresh interpreter: the same import and workload set-up the
# measured process pays before its first timed call. numpy is imported
# before the clock starts, so that set-up times signopt's own part. The
# import reference runs every few milliseconds inside the set-up.
SETUP_PROBE = """
import json, sys, tempfile, time
from pathlib import Path
import numpy
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import contention
contention.warm()

def setup():
    import workloads
    workloads.setup(sys.argv[4], int(sys.argv[5]), sys.argv[6], Path(workdir))

with tempfile.TemporaryDirectory(dir=sys.argv[3]) as workdir:
    with contention.Sampler(float(sys.argv[7])) as sampler:
        _, span = sampler.timed("import", setup)
print(json.dumps({"start": span.start, "end": span.end,
                  "references": span.references}))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the smoke test only")
    args = parser.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2**32:
        parser.error("--seed must be in [0, 2^32)")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


class Verifier:
    """Checks each operation's verdict and digest. A digest must equal the
    one committed for this seed, and repeat across rounds."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.seen = {}
        self.attempted = 0
        self.failed = 0

    def run(self, op, reference=None, sampler=None):
        """Call the operation, sampling `reference` if a sampler is given;
        return its contention.Span."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            if sampler is None:
                result = op.call()
                span = contention.Span(reference, start,
                                       time.perf_counter(), [])
            else:
                result, span = sampler.timed(reference, op.call)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return contention.Span(reference, start, time.perf_counter(), [])
        try:
            passed, data = op.check(result)
        except Exception:
            traceback.print_exc()
            passed, data = False, b""
        digest = hashlib.sha256(data).hexdigest()
        reference = self.expected.get(op.label) or self.seen.get(op.label)
        self.seen.setdefault(op.label, digest)
        if not passed:
            print(f"{op.label}: verdict failed", file=sys.stderr)
        if reference is not None and digest != reference:
            print(f"{op.label}: digest {digest} != {reference}",
                  file=sys.stderr)
            passed = False
        self.failed += not passed
        return span


def run_round(bench, verifier, wrap=None, sampler=None):
    """Every operation once, in order; returns (spans, steps, draws)."""
    spans = []
    steps = draws = 0
    for op in bench.ops:
        if wrap is not None:
            op = wrap(op)
        spans.append(verifier.run(op, bench.reference, sampler))
        steps += op.steps
        draws += op.draws
    return spans, steps, draws


def call_seconds(spans):
    return sum(s.seconds for s in spans)


def setup_samples(args, seed, count):
    """Set-up spans of `count` fresh interpreters."""
    spans = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), str(OUT),
             args.workload, str(seed), args.size,
             str(SETUP_REFERENCE_INTERVAL)],
            capture_output=True, text=True, timeout=120, check=True)
        spans.append(contention.Span(
            "import", **json.loads(proc.stdout.strip().splitlines()[-1])))
    return spans


def measure(args, bench, verifier, seed):
    setups = setup_samples(args, seed, SETUP_PROBES // 2)
    contention.warm()
    spans = []
    steps = draws = rounds = 0
    with contention.Sampler(ROUND_REFERENCE_INTERVAL) as sampler:
        start = time.perf_counter()
        while True:
            round_spans, round_steps, round_draws = run_round(
                bench, verifier, sampler=sampler)
            spans += round_spans
            steps += round_steps
            draws += round_draws
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed * (1 + 1 / rounds) > args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups += setup_samples(args, seed, SETUP_PROBES - SETUP_PROBES // 2)
    # every call's time in reference seconds, summed over all rounds
    seconds = sum(contention.reference_seconds(spans))
    metrics = {
        "steps_per_s": steps / seconds,
        "mc_draws_per_s": draws / seconds,
        "setup_s": statistics.median(contention.reference_seconds(setups)),
        "peak_rss_mb": peak_rss_mb,
    }
    raw = call_seconds(spans)
    referenced = sum(s.reference_time for s in spans)
    extra = {"rounds": rounds, "call_seconds": raw,
             "reference_seconds": referenced,
             "wall_steps_per_s": steps / (raw - referenced),
             "wall_setup_s": statistics.median(
                 s.seconds - s.reference_time for s in setups)}
    for name, group in (("reference", spans), ("setup_reference", setups)):
        times = [d for s in group for _, d in s.references]
        extra[f"{name}_us"] = {"n": len(times), "min": min(times) * 1e6,
                               "mean": statistics.fmean(times) * 1e6}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in metrics.items()}, extra


# spans whose self time is whatever their unwrapped code does: they are
# left out of the numerator of trace.coverage_ratio, so that time no layer
# function explains lowers the ratio
CATCH_ALL_SPANS = ("harness.run_single", "harness.suite", "cli.main")


def layer_metrics(tracer, op_seconds, untraced_seconds):
    totals = tracer.layer_totals()
    counts = tracer.counts

    def span_sum(name, group=None, field=1):
        return sum(v[field] for (n, g), v in totals.items()
                   if n == name and (group is None or g == group))

    def count_sum(name, group=None):
        return sum(v for (n, g), v in counts.items()
                   if n == name and (group is None or g == group))

    def ratio(a, b):
        return a / b if b else 0.0

    values = {}
    steps = count_sum("steps")
    for metric, span in STEP_CALLS.items():
        values[metric] = ratio(span_sum(span, field=0), steps)
    for metric, counter in STEP_COUNTS.items():
        values[metric] = ratio(count_sum(counter), steps)
    for metric, span in STEP_TIMES.items():
        values[metric] = ratio(span_sum(span) / 1e3, steps)
        for group in ALGORITHMS + KINDS:
            values[f"{metric}.{group}"] = ratio(
                span_sum(span, group) / 1e3, count_sum("steps", group))
    for metric, span in CALL_TIMES.items():
        values[metric] = ratio(span_sum(span) / 1e9, span_sum(span, field=0))
    cli_runs = span_sum("cli.main", field=0)
    for metric, (name, unit) in CLI_RUN.items():
        total = span_sum(name) / 1e9 if unit == "s" else count_sum(name)
        values[metric] = ratio(total, cli_runs)
    for metric in KIND_SPLIT:
        span = CALL_TIMES[metric] if metric in CALL_TIMES else CLI_RUN[metric][0]
        per = "cli.main" if metric in CLI_RUN else span
        for kind in KINDS:
            values[f"{metric}.{kind}"] = ratio(
                span_sum(span, kind) / 1e9, span_sum(per, kind, field=0))
    values["harness.diverged_runs"] = float(count_sum("harness.diverged_runs"))
    values["trace.overhead_ratio"] = ratio(op_seconds, untraced_seconds)
    values["trace.coverage_ratio"] = ratio(
        tracer.self_ns_below("bench.op", CATCH_ALL_SPANS),
        tracer.self_ns_below("bench.op") + span_sum("bench.op"))
    units = per_layer_units()
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def trace_run(args, bench, verifier, seed, workdir):
    import tracing
    import workloads

    tracer = tracing.Tracer()

    def wrap(op):
        tag = (lambda: op.kind) if op.kind else None
        return dataclasses.replace(
            op, call=tracer.span("bench.op", op.call, tag=tag))

    # a warm-up round pays the first-call costs (lazy imports, first
    # files); then untraced, traced, untraced, so that a drift of the
    # host's speed over the run cancels out of the overhead ratio
    run_round(bench, verifier)
    untraced = call_seconds(run_round(bench, verifier)[0]) / 2
    bias_before = tracing.span_bias_ns()
    restore = tracing.instrument(tracer)
    try:
        # set up again, so that the problems built are wrapped too
        traced_bench = workloads.setup(args.workload, seed, args.size, workdir)
        traced = call_seconds(run_round(traced_bench, verifier, wrap)[0])
    finally:
        restore()
    # calibrated on both sides of the traced round, as the host's speed drifts
    tracer.bias_ns = (bias_before + tracing.span_bias_ns()) / 2
    untraced += call_seconds(run_round(bench, verifier)[0]) / 2
    metrics = layer_metrics(tracer, traced, untraced)
    trace_path = OUT / f"trace-{args.workload}-seed{seed}.json"
    trace_path.write_text(json.dumps(
        {"workload": args.workload, "seed": seed, "traced_seconds": traced,
         "untraced_seconds": untraced, "span_bias_ns": tracer.bias_ns,
         "spans": tracer.tree(),
         "counters": [{"name": n, "group": g, "value": v}
                      for (n, g), v in sorted(tracer.counts.items(),
                                              key=str)]},
        indent=1) + "\n")
    return metrics, {"trace_file": str(trace_path.relative_to(ROOT))}


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "signopt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def blas_threads():
    """Thread count OpenBLAS reports, from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(args, seed, sizes):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": seed, "size": args.size,
            "sizes": sizes, "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "git_commit": git_commit(),
            "source_sha256": source_sha256()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "signopt" / "__init__.py").is_file():
        print(f"signopt sources not found under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        sys.path[:0] = [str(SRC), str(HERE)]
        import workloads
        seed = (workloads.DEFAULT_SEEDS[args.workload] if args.seed is None
                else args.seed)
        bench = workloads.setup(args.workload, seed, args.size, workdir)

        import signopt
        if Path(signopt.__file__).resolve().parent != SRC / "signopt":
            print(f"imported signopt from {signopt.__file__}",
                  file=sys.stderr)
            return 2
        committed = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        expected = (committed.get(args.workload, {}).get(str(seed), {})
                    if args.size == "full" else {})
        verifier = Verifier(expected)
        if args.trace:
            metrics, extra = trace_run(args, bench, verifier, seed, workdir)
        else:
            metrics, extra = measure(args, bench, verifier, seed)
        info = provenance(args, seed, bench.sizes)
        info.update(extra)
        info["digests"] = verifier.seen
        info["digests_committed"] = bool(expected)
        print(json.dumps({"provenance": info}))
        print(json.dumps({"correct": verifier.failed == 0,
                          "attempted": verifier.attempted,
                          "failed": verifier.failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
