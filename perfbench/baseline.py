"""Run the benchmark over ten seeds and record medians and spreads.

Usage: python3 perfbench/baseline.py

For each workload declared in BENCHMARK.json, runs `run.py --trace 0` once
per seed (1..10) and reports every end-to-end metric's median, quartiles and
spread, the quartile distance as a share of the median, next to the bound
in BENCHMARK.json.  Then one `--trace 1` run gives the per-layer table.  The
result is written to perfbench/baseline.json; a line per metric goes to
stderr.
"""

import json
import statistics
import subprocess
import sys
import time

from run import HERE, ROOT, load_json, quartiles

SEEDS = range(1, 11)
TRACE_SEED = 1
OUT = HERE / "baseline.json"


def run_once(workload, seed, seconds, trace):
    started = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = out.stdout.strip().split("\n")
    if out.returncode != 0 or len(lines) < 2:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed ({out.returncode})")
    return json.loads(lines[-2]), json.loads(lines[-1]), time.monotonic() - started


def summarize(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med) if med else None,
            "values": values}


def main():
    declared = load_json(ROOT / "BENCHMARK.json")
    seconds = declared["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}

    table = {"run_seconds": seconds, "seeds": list(SEEDS), "trace_seed": TRACE_SEED,
             "workloads": {}}
    for workload in (w["name"] for w in declared["workloads"]):
        e2e, provenance, lengths = {}, None, []
        for seed in SEEDS:
            detail, result, length = run_once(workload, seed, seconds, 0)
            provenance = detail["provenance"]
            lengths.append(length)
            for name, metric in result["metrics"].items():
                e2e.setdefault(name, []).append(metric["value"])
        detail, result, length = run_once(workload, TRACE_SEED, seconds, 1)
        lengths.append(length)
        entry = {"provenance": provenance, "run_lengths_s": lengths, "end_to_end": {},
                 "per_layer": {name: m["value"] for name, m in result["metrics"].items()},
                 "breakdown": detail["breakdown"]}
        for name, values in e2e.items():
            s = entry["end_to_end"][name] = {**summarize(values), "bound": bounds[name]}
            print(f"{workload:18s} {name:14s} median {s['median']:.6g} spread "
                  f"{s['spread']:.4f} (bound {s['bound']})", file=sys.stderr)
        table["workloads"][workload] = entry
    OUT.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
