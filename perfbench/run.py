"""wedgehull benchmark: closed-loop `wedgehull` commands, timed from outside.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one command at a time in a fresh interpreter and waits for
it (a closed loop), for about S seconds.  The first operation of every run
uses the pinned default seed so its records can be compared by digest; the
others use master seeds derived from --seed.  Every output passes the
correctness gate (gate.py) before it counts.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
reports its per-layer metrics, from traced operations at --workers 1 set
against untraced ones.  Human-readable figures go to stderr; the last line
of stdout is the JSON result.  Exit code 1 means the gate failed, 2 that the
package source is missing.  Nothing here sets BLAS or OpenMP thread
variables: the program runs with the environment it is given.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gate
from spans import layer_self_times, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HARD_LIMIT_S = 165.0
MIN_SETUP_SAMPLES = 5
LAYERS = ("experiments", "sampling", "geometry", "hull", "formulas", "oracles", "suites")


def load_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def op_seed(spec, workload, seed, k):
    if k == 0:
        return spec["default_seed"]
    digest = hashlib.blake2b(f"{workload}:{seed}:{k}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def nominal_points(w):
    """Cloud points one operation asks for."""
    inputs = w["inputs"]
    if w["command"] == "verify":
        return w["nominal_points"]
    return inputs["reps"] * sum(inputs["grid"])


def build_argvs(w, master_seed, out_dir, workers):
    """The CLI commands of one operation: one sweep, or one verify per suite."""
    inputs = w["inputs"]
    if w["command"] == "verify":
        return [["verify", "--suite", suite] for suite in inputs["suites"]]
    return [[
        "simulate", "--model", inputs["model"], "--dim", str(inputs["d"]),
        "--grid", ",".join(repr(g) for g in inputs["grid"]),
        "--reps", str(inputs["reps"]), "--seed", str(master_seed),
        "--out", str(out_dir), "--workers", str(workers),
    ]]


class Runner:
    """Starts child interpreters one at a time and keeps their results."""

    def __init__(self, work_dir, deadline):
        self.work_dir = work_dir
        self.deadline = deadline
        self.count = 0

    def child(self, w, master_seed, workers, mode="op", trace=False, provenance=False):
        self.count += 1
        op_dir = self.work_dir / f"op{self.count}"
        op_dir.mkdir()
        child_spec = {
            "argvs": build_argvs(w, master_seed, op_dir / "out", workers),
            "suite_budgets": w["inputs"].get("suite_budgets", {}),
            "mode": mode,
            "trace": trace,
            "provenance": provenance,
            "result": str(op_dir / "result.json"),
        }
        (op_dir / "spec.json").write_text(json.dumps(child_spec), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(op_dir / "stdout", "wb") as out, open(op_dir / "stderr", "wb") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(op_dir / "spec.json")],
                cwd=ROOT, env=env, stdout=out, stderr=err, start_new_session=True,
            )
            killer = threading.Timer(timeout, _kill_group, (proc.pid,))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # pool workers left behind by a crashed command
        op = {"dir": op_dir, "seed": master_seed, "workers": workers,
              "exit": proc.returncode, "rss_mib": usage.ru_maxrss / 1024.0}
        result_path = op_dir / "result.json"
        if result_path.exists():
            result = load_json(result_path)
            if result.get("t_first") is not None:
                op["setup"] = result["t_first"] - t_spawn
            if result.get("t_first") is not None and result.get("t_end") is not None:
                op["wall"] = result["t_end"] - result["t_first"]
                op["run"] = result["t_work_end"] - result["t_first"]
            op["spans"] = result.get("spans")
            op["idle"] = result.get("idle_s")
            op["span_cost"] = result.get("span_cost_s")
            op["provenance"] = result.get("provenance")
        return op


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def gate_op(op, w, spec):
    """Attach the gate's verdict, the op's attempted count and parsed records."""
    inputs = w["inputs"]
    if w["command"] == "verify":
        op["attempted"] = w["expected_checks"]
        try:
            reports = gate.parse_reports((op["dir"] / "stdout").read_text(encoding="utf-8"))
            problems = gate.check_verify(reports, w["inputs"]["suites"], w["expected_checks"])
        except (OSError, ValueError) as exc:
            problems = [f"unreadable verify report: {exc}"]
    else:
        op["attempted"] = len(inputs["grid"]) * inputs["reps"]
        problems = []
        try:
            csvs = sorted((op["dir"] / "out").glob("*.csv"))
            jsons = sorted((op["dir"] / "out").glob("*.json"))
            if len(csvs) != 1 or len(jsons) != 1:
                raise ValueError(f"expected one CSV and one JSON, found {len(csvs)}/{len(jsons)}")
            text = csvs[0].read_text(encoding="utf-8")
            op["records"] = gate.parse_records(text)
            problems += gate.check_records(op["records"], inputs)
            if op["seed"] == spec["default_seed"]:
                digest = gate.records_digest(text)
                if digest != w["records_digest"]:
                    problems.append(f"records digest {digest} != pinned {w['records_digest']}")
            summary = load_json(jsons[0])
            problems += gate.check_summary(
                summary, op["records"], inputs, op["seed"], spec["reference"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable sweep output: {exc!r}")
    if op["exit"] != 0:
        problems.append(f"exit code {op['exit']}")
    if "wall" not in op:
        problems.append("no timing result")
    op["problems"] = problems
    op["failed"] = op["attempted"] if problems else 0


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, p):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(ops, probes, w):
    done = [op for op in ops if "wall" in op]
    points = nominal_points(w)
    return {
        "setup_s": [op["setup"] for op in ops + probes if "setup" in op],
        "wall_s": [op["wall"] for op in done],
        "points_per_s": [points / op["wall"] for op in done],
        "peak_rss_mb": [op["rss_mib"] for op in done],
    }


def layer_metrics(op):
    """Per-layer figures of one traced operation, from its spans.

    Besides the declared metrics it gives `self.<layer>_s`, each layer's self
    time, and `self.unattributed_s`, the time outside every span on the
    tracer's own clock; together they account for the operation's wall time.
    `trace.span_cost_s` is the span count times the measured cost of one
    span: an estimate of the tracing cost that, unlike `trace.overhead_s`,
    host noise does not swamp.
    """
    spans = op["spans"]
    selfs = self_times(spans)
    layer_self = layer_self_times(spans)
    dur, calls, own, info = {}, {}, {}, {}
    for (name, start, end, _, extra), self_s in zip(spans, selfs):
        dur[name] = dur.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + self_s
        info.setdefault(name, []).append(extra)

    def total(*names):
        return sum(dur.get(n, 0.0) for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    samplers = ("sampling.sample_uniform_wedge", "sampling.sample_poisson_wedge",
                "sampling.sample_uniform_sphere")
    drawn = sum(p or 0 for n in samplers for p in info.get(n, []))
    hull_in = info.get("hull.facets_projected", [])
    stacks = sum(info.get("formulas.parallelotope_volume", []))
    m = {
        "experiments.run_s": total("experiments.run_experiment"),
        "experiments.self_s": layer_self.get("experiments", 0.0),
        "experiments.summarize_s": total("experiments.summarize"),
        "experiments.fit_s": total("experiments.fit_slope"),
        "experiments.write_s": total("experiments.write_csv", "experiments.write_summary"),
        "sampling.draw_s": total(*samplers),
        "sampling.calls": sum(calls.get(n, 0) for n in samplers),
        "sampling.points": drawn,
        "sampling.points_per_s": ratio(drawn, total(*samplers)),
        "geometry.project_s": total("geometry.gnomonic_project"),
        "geometry.basis_s": total("geometry.orthonormal_complement",
                                  "geometry.WedgeModel.right_angle",
                                  "geometry.WedgeModel.half_sphere",
                                  "geometry.WedgeModel.from_normals"),
        "geometry.contains_s": total("geometry.wedge_contains"),
        "hull.projected_s": total("hull.facets_projected"),
        "hull.projected_self_s": own.get("hull.facets_projected", 0.0),
        "hull.calls": calls.get("hull.facets_projected", 0),
        "hull.points_per_s": ratio(sum(p for p, _ in hull_in), total("hull.facets_projected")),
        "hull.degenerate_ratio": ratio(sum(f for _, f in hull_in), len(hull_in)),
        "hull.ambient_s": total("hull.facets_ambient"),
        "hull.ambient_calls": calls.get("hull.facets_ambient", 0),
        "formulas.estimate_A_d_s": total("formulas.estimate_A_d"),
        "formulas.estimate_A_d_calls": calls.get("formulas.estimate_A_d", 0),
        "formulas.volume_s": total("formulas.parallelotope_volume"),
        "formulas.volume_stacks": stacks,
        "formulas.stacks_per_s": ratio(stacks, total("formulas.parallelotope_volume")),
        "oracles.cap_measure_s": total("oracles.mc_cap_measure"),
        "oracles.mc_I1_s": total("oracles.mc_I1"),
        "oracles.subsphere_s": total("oracles.subsphere_wedge_points"),
        "oracles.quadrature_s": total("oracles.quadrature_I1_dim2",
                                      "oracles.binomial_limit_integrand_value"),
    }
    for suite in ("geometry", "i2", "i1", "appendix", "limits", "hull"):
        m[f"suites.{suite}_s"] = total(f"suites.suite_{suite}")
    for layer in LAYERS:
        m[f"self.{layer}_s"] = layer_self.get(layer, 0.0)
    m["self.unattributed_s"] = op["idle"]
    m["trace.span_cost_s"] = len(spans) * op["span_cost"]
    return m


def record_metrics(op):
    """Figures the program reports itself: the records' wall_ms and flags."""
    records = op.get("records") or []
    walls = [r["wall_ms"] for r in records]
    flags = sum(r["flag"] for r in records)
    return {
        "experiments.replicates": len(records),
        "experiments.retry_ratio": flags / len(records) if records else 0.0,
        "experiments.replicate_ms_p50": percentile(walls, 50) if walls else 0.0,
        "experiments.replicate_ms_p99": percentile(walls, 99) if walls else 0.0,
        "experiments.parallel_efficiency":
            sum(walls) / 1000.0 / (op["workers"] * op["run"]) if walls and op.get("run") else 0.0,
    }


def per_layer(rounds):
    """Each layer figure once per round.  The tracing overhead is paired: the
    traced wall time minus the untraced one at one worker, on the same seed in
    the same round, so drift of the host between rounds cancels."""
    samples = {}
    for untraced, traced, baseline in rounds:
        figures = {**layer_metrics(traced), **record_metrics(untraced),
                   "trace.overhead_s": traced["wall"] - baseline["wall"]}
        for name, value in figures.items():
            samples.setdefault(name, []).append(value)
    return samples


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def measure(args, w, spec, runner, started):
    """Closed loop until --seconds; then set-up probes on untraced runs."""
    workers = w["inputs"]["workers"]
    ops, probes, rounds, lengths = [], [], [], []
    k = 0
    while True:
        elapsed = time.monotonic() - started
        typical = statistics.median(lengths) if lengths else 0.0
        if k > 0 and (elapsed + typical > args.seconds or elapsed + 2 * typical > HARD_LIMIT_S):
            break
        seed = op_seed(spec, args.workload, args.seed, k)
        # the traced op runs before its untraced pair in odd rounds and after
        # it in even ones, so an effect of the order cancels in the overhead
        if args.trace and k % 2:
            traced = runner.child(w, seed, 1, trace=True)
        first = runner.child(w, seed, workers, provenance=(k == 0))
        if args.trace:
            baseline = runner.child(w, seed, 1) if workers > 1 else first
            if k % 2 == 0:
                traced = runner.child(w, seed, 1, trace=True)
            rounds.append((first, traced, baseline))
            ops.extend({id(op): op for op in (first, traced, baseline)}.values())
        else:
            ops.append(first)
        lengths.append(time.monotonic() - started - elapsed)
        k += 1
    while not args.trace:
        elapsed = time.monotonic() - started
        setups = [op["setup"] for op in ops + probes if "setup" in op]
        typical = statistics.median(setups) if setups else 1.0
        enough = len(setups) >= MIN_SETUP_SAMPLES
        if (enough and elapsed + typical > args.seconds) or elapsed + typical > HARD_LIMIT_S:
            break
        probes.append(runner.child(w, spec["default_seed"], workers, mode="probe"))
        if "setup" not in probes[-1]:
            break
    return ops, probes, rounds


def judge(ops, w, spec):
    """Gate every op, then the slope law on the pooled records of the run."""
    for op in ops:
        gate_op(op, w, spec)
    if w["command"] != "simulate":
        return None
    # one op per master seed: trace rounds repeat a seed up to three times
    distinct = {op["seed"]: op for op in reversed(ops) if not op["problems"]}
    pooled = [r for op in distinct.values() for r in op.get("records", [])]
    target, slope, se, ok = gate.check_slope_law(
        pooled, w["inputs"]["d"], spec["reference"], spec["slope_band"], spec["slope_margin_se"])
    if not ok:
        for op in ops:
            op["problems"].append("pooled slope outside the acceptance band")
            op["failed"] = op["attempted"]
    return {"target": target, "slope": slope, "se": se, "passed": ok}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    load_at_start = os.getloadavg()

    if not (SRC / "wedgehull" / "cli.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    declared = load_json(ROOT / "BENCHMARK.json")
    spec = load_json(HERE / "workloads.json")
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w = spec["workloads"][args.workload]

    work_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        ops, probes, rounds = measure(args, w, spec, Runner(work_dir, started + HARD_LIMIT_S),
                                      started)
        law = judge(ops, w, spec)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)

    if args.trace:
        good = [r for r in rounds if all("wall" in op and not op["problems"] for op in r)]
        samples = per_layer(good) if good else {}
        wanted = declared["per_layer"]
    else:
        samples = end_to_end(ops, probes, w)
        wanted = declared["end_to_end"]
    distribution, metrics = {}, {}
    for metric in wanted:
        values = samples.get(metric["name"])
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        distribution[metric["name"]] = {"median": med, "q1": q1, "q3": q3, "n": len(values)}
        metrics[metric["name"]] = {"value": med, "unit": metric["unit"]}

    first_prov = next((op["provenance"] for op in ops if op.get("provenance")), None)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "operations": len(ops),
        "setup_probes": len(probes),
        "failed_ratio": failed / attempted if attempted else 1.0,
        "slope_law": law,
        "problems": sorted({p for op in ops for p in op["problems"]}),
        "distribution": distribution,
        # traced runs: the self-time table and the span cost, undeclared figures
        "breakdown": {name: statistics.median(values) for name, values in samples.items()
                      if name not in metrics},
        "provenance": {
            **(first_prov or {}),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_at_start": load_at_start,
            "git_sha": git_sha(),
        },
    }
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(ops)} operations, "
          f"failed_ratio {detail['failed_ratio']:.4g} ({failed}/{attempted})", file=sys.stderr)
    for problem in detail["problems"]:
        print(f"  GATE: {problem}", file=sys.stderr)
    for name, d in distribution.items():
        print(f"  {name:32s} {metrics[name]['value']:.6g} {metrics[name]['unit']}"
              f"  [q1 {d['q1']:.6g}, q3 {d['q3']:.6g}, n={d['n']}]", file=sys.stderr)
    correct = failed == 0 and attempted > 0 and len(metrics) == len(wanted)
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
