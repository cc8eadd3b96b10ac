"""Record the benchmark's committed references.

    python3 perfbench/record.py digests --seeds 0-31
        Runs every operation of every workload once per seed, untimed, and
        writes the result digests to perfbench/digests.json (the default
        seed of each workload is always included).

    python3 perfbench/record.py baseline --seeds 1-10
        Runs `run.py` untraced once per workload and seed, and traced
        three times on the first seed, and writes the median and quartiles
        of every metric to perfbench/baseline.json. It prints each
        end-to-end metric's spread (quartile distance over median) against
        a third of its bound, and checks that the count metrics repeat
        exactly across the traced runs. It exits with 1 if a spread is
        wider or a count differs.

`--workloads a,b` restricts either command to some workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "bytes")
TRACED_RUNS = 3


def seed_list(text):
    seeds = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_digests(workloads, seeds):
    sys.path[:0] = [str(run.SRC)]
    import workloads as wl

    def load():
        return (json.loads(run.DIGESTS.read_text())
                if run.DIGESTS.is_file() else {})

    run.OUT.mkdir(exist_ok=True)
    for name in workloads:
        table = load().get(name, {})
        for seed in sorted(set(seeds) | {wl.DEFAULT_SEEDS[name]}):
            with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
                bench = wl.setup(name, seed, "full", Path(workdir))
                verifier = run.Verifier({})
                run.run_round(bench, verifier)
            if verifier.failed:
                raise SystemExit(f"{name} seed {seed}: an operation failed")
            table[str(seed)] = verifier.seen
            print(name, seed, flush=True)
        # re-read so that concurrent recorders of other workloads merge
        digests = load()
        digests[name] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        run.DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")


def one_run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect\n{proc.stderr}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        print(f"  {workload} seed {seed}: " + "  ".join(
            f"{k} {v:.6g}" for k, v in values.items()), flush=True)
    return values


def stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values),
            "spread": (q3 - q1) / median if median else 0.0}


def record_baseline(workloads, seeds):
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    baseline = {"run_seconds": SPEC["run_seconds"], "seeds": seeds,
                "traced_runs": TRACED_RUNS, "traced_seed": seeds[0],
                "workloads": {}}
    ok = True
    for name in workloads:
        runs = [one_run(name, s, 0) for s in seeds]
        traced = [one_run(name, seeds[0], 1) for _ in range(TRACED_RUNS)]
        entry = {}
        for metric in bounds:
            entry[metric] = stats([r[metric] for r in runs])
            spread = entry[metric]["spread"]
            limit = bounds[metric] / 3
            flag = "ok" if spread < limit else "WIDE"
            ok &= flag == "ok"
            print(f"{name:13} {metric:15} median {entry[metric]['median']:.6g}"
                  f"  spread {spread:.4f}  (limit {limit:.4f}) {flag}",
                  flush=True)
        for metric, unit in units.items():
            values = [r[metric] for r in traced]
            entry[metric] = stats(values)
            if unit in COUNT_UNITS and len(set(values)) > 1:
                print(f"{name}: count {metric} differs: {values}")
                ok = False
        baseline["workloads"][name] = entry
    baseline["provenance"] = run_provenance()
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return ok


def run_provenance():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "mc-verify",
         "--size", "tiny", "--seconds", "0.1"],
        capture_output=True, text=True, timeout=120, check=True)
    info = json.loads(proc.stdout.strip().splitlines()[-2])["provenance"]
    keep = ("nproc", "affinity", "python", "numpy", "blas", "blas_threads",
            "git_commit", "source_sha256")
    return {k: info[k] for k in keep}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("command", choices=("digests", "baseline"))
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    if args.command == "digests":
        record_digests(workloads, seed_list(args.seeds))
        return 0
    ok = record_baseline(workloads, seed_list(args.seeds))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
