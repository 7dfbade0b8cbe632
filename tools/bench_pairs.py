"""A/B the benchmark on a parent commit and on the working tree, in alternating pairs.

Usage:
    python3 tools/bench_pairs.py --parent REF --out BENCH.json
        [--workload NAME ...] [--pairs 10] [--first-seed 1] [--seconds 60]
        [--trace-seed S] [--cold-pairs 6] [--cold-seed 81] [--keep DIR]

The parent side is a `git archive` of REF; the change side is a copy of the
working tree's `src/`, `perfbench/` and `BENCHMARK.json`.  Each side runs
from its own directory, so the two never share a byte-compiled cache.

For every workload, pair i runs `perfbench/run.py --trace 0` at seed
first-seed + i on both sides, the parent first when i is even.  The output
keeps every run's result and, per end-to-end metric, the medians and
quartiles of the two sides over the pairs (`statistics.quantiles(n=4)`, as
`run.py` prints them), the number of pairs the change won, and the relative
change of the median.

--trace-seed adds one traced pair (`--trace 1`, parent first) per workload,
with the per-layer table and the self time of each layer.  --cold-pairs adds
an A/B of a fresh interpreter that runs `run_experiment` and then
`summarize` on the `binomial_d2_large` grid, reps and worker count, once at
d = 2 and once at d = 3, which shows where a sweep's time goes outside the
benchmark's wrapper.  No benchmark workload runs at d = 3, where the
constants block is a Monte Carlo estimate rather than exact, so the d = 3
A/B is the only timing of that path; each dimension gets its own summary.
The package import is timed as its own figure, `import_s`, and `total_s`
includes it, so an import that moves from start-up into `run_experiment`
(as Qhull's does at d = 3) shifts time between figures, not into a loss.

Run it on an otherwise idle machine: a full set of ten 60 s pairs on two
workloads takes about 45 minutes.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
CHANGE_PATHS = ("src", "perfbench", "BENCHMARK.json")

# Times the package import, run_experiment and summarize in a fresh interpreter;
# argv: workloads.json, seed, d.
COLD_SCRIPT = """
import json, resource, sys, time
t_import = time.perf_counter()
from wedgehull.experiments import ExperimentConfig, run_experiment, summarize
import_s = time.perf_counter() - t_import
inputs = json.load(open(sys.argv[1]))["workloads"]["binomial_d2_large"]["inputs"]
cfg = ExperimentConfig(model=inputs["model"], d=int(sys.argv[3]), grid=tuple(inputs["grid"]),
                       reps=inputs["reps"], master_seed=int(sys.argv[2]))
t0 = time.perf_counter()
records = run_experiment(cfg, workers=inputs["workers"])
t1 = time.perf_counter()
summarize(cfg, records)
t2 = time.perf_counter()
kids = resource.getrusage(resource.RUSAGE_CHILDREN)
own = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({"import_s": import_s, "run_experiment_s": t1 - t0,
                  "summarize_s": t2 - t1, "total_s": import_s + t2 - t0,
                  "child_cpu_s": kids.ru_utime + kids.ru_stime,
                  "child_minflt": kids.ru_minflt, "parent_peak_rss_mb": own.ru_maxrss / 1024}))
"""


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git(*args, **kwargs):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, **kwargs)


def make_trees(parent_ref, base):
    parent, change = base / "parent", base / "change"
    parent.mkdir()
    archive = git("archive", parent_ref, *CHANGE_PATHS, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
    change.mkdir()
    ignore = shutil.ignore_patterns("__pycache__", ".bench_out")
    for name in CHANGE_PATHS:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, change / name, ignore=ignore)
        else:
            shutil.copy2(source, change / name)
    return {"parent": parent, "change": change}


def bench_run(tree, workload, seed, seconds, trace):
    """The two JSON lines `run.py` prints last: the detail and the result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} printed no result:\n{done.stderr}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    result["operations"] = detail["operations"]
    return detail, result


def summarize_pairs(pairs, declared):
    summary = {}
    for metric in declared:
        name, better = metric["name"], metric["better"]
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
        summary[name] = {
            "better": better,
            "parent_median": pm, "parent_q1": p1, "parent_q3": p3,
            "change_median": cm, "change_q1": c1, "change_q3": c3,
            "change_wins": wins, "pairs": len(pairs),
            "relative_change": cm / pm - 1.0,
        }
    return summary


def paired_workload(trees, workload, args, declared):
    pairs = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed}
        for side in order:
            pair[side] = bench_run(trees[side], workload, seed, args.seconds, 0)[1]
        wall = {side: pair[side]["metrics"].get("wall_s", {}).get("value") for side in order}
        print(f"{workload} pair {i} seed {seed}: wall_s {wall}", file=sys.stderr)
        pairs.append({"seed": seed, "parent": pair["parent"], "change": pair["change"]})
    return {
        "workload": workload,
        "seeds": [args.first_seed, args.first_seed + args.pairs - 1],
        "summary": summarize_pairs(pairs, declared),
        "failed_operations": {side: sum(p[side]["failed"] for p in pairs)
                              for side in ("parent", "change")},
        "pairs": pairs,
    }


def traced_pair(trees, workload, seed, seconds):
    out = {"command": f"python3 perfbench/run.py --workload {workload} --seed {seed} "
                      f"--seconds {seconds} --trace 1"}
    for side in ("parent", "change"):
        detail, result = bench_run(trees[side], workload, seed, seconds, 1)
        breakdown = detail["breakdown"]
        out[side] = {
            "seed": seed,
            "correct": result["correct"],
            "per_layer": {name: m["value"] for name, m in result["metrics"].items()},
            "self_time_breakdown": {k: v for k, v in breakdown.items()
                                    if k.startswith(("self.", "trace."))},
        }
    return out


def cold_pairs(trees, count, first_seed, d):
    runs = []
    for i in range(count):
        order = ("change", "parent") if i % 2 == 0 else ("parent", "change")
        for side in order:
            tree = trees[side]
            done = subprocess.run(
                [sys.executable, "-c", COLD_SCRIPT, "perfbench/workloads.json",
                 str(first_seed + i), str(d)],
                cwd=tree, capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": str(tree / "src")},
            )
            runs.append({"side": side, "seed": first_seed + i,
                         **json.loads(done.stdout.strip().splitlines()[-1])})
    summary = {}
    for key in ("import_s", "run_experiment_s", "summarize_s", "total_s", "child_cpu_s",
                "child_minflt", "parent_peak_rss_mb"):
        summary[key] = {side: statistics.median(r[key] for r in runs if r["side"] == side)
                        for side in ("parent", "change")}
    return {
        "what": f"fresh interpreter, run_experiment then summarize at d = {d} on the "
                f"binomial_d2_large grid, reps and worker count, {count} alternating pairs "
                f"(even pair: change first), master seeds {first_seed}-"
                f"{first_seed + count - 1}; import_s is the import of wedgehull.experiments, "
                f"total_s the import, run_experiment and summarize together; child_* are the "
                f"pool workers' (RUSAGE_CHILDREN); summary values are medians",
        "summary": summary,
        "runs": runs,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent side")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--workload", action="append", help="default: every declared workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--cold-pairs", type=int, default=0)
    parser.add_argument("--cold-seed", type=int, default=81)
    parser.add_argument("--keep", default=None, help="directory for the two trees (kept)")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    base = Path(args.keep) if args.keep else Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    base.mkdir(parents=True, exist_ok=True)
    seconds = int(args.seconds) if float(args.seconds).is_integer() else args.seconds
    parent_sha = git("rev-parse", args.parent, capture_output=True, text=True).stdout.strip()
    try:
        trees = make_trees(parent_sha, base)
        report = {
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} "
                       f"--trace 0",
            "method": f"{args.pairs} pairs per workload, parent from a git archive of "
                      f"{parent_sha[:7]}, change from a copy of the working tree's src/, "
                      f"perfbench/ and BENCHMARK.json; order alternating (even pair index: "
                      f"parent first); seeds {args.first_seed}-"
                      f"{args.first_seed + args.pairs - 1}; written by tools/bench_pairs.py",
            "parent_sha": parent_sha,
            "workloads": {w: paired_workload(trees, w, args, benchmark["end_to_end"])
                          for w in workloads},
        }
        if args.trace_seed is not None:
            for k, w in enumerate(workloads):
                seed = args.trace_seed + k
                report[f"traced_{w}_seed{seed}"] = traced_pair(trees, w, seed, seconds)
        if args.cold_pairs:
            for d in (2, 3):
                report[f"cold_run_experiment_d{d}"] = cold_pairs(
                    trees, args.cold_pairs, args.cold_seed, d)
        report["software"] = {"python": platform.python_version(),
                              "numpy": numpy.__version__, "scipy": scipy.__version__}
        cpu = next((line.split(":", 1)[1].strip()
                    for line in Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), platform.processor())
        report["host"] = {"cpu": cpu, "nproc": len(os.sched_getaffinity(0))}
    finally:
        if not args.keep:
            shutil.rmtree(base, ignore_errors=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for w, block in report["workloads"].items():
        for name, s in block["summary"].items():
            print(f"{w} {name}: {s['parent_median']:.6g} -> {s['change_median']:.6g} "
                  f"({s['relative_change']:+.1%}, change better in {s['change_wins']}/"
                  f"{s['pairs']})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
