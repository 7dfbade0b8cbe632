"""Self-test of the benchmark itself.

Usage: python3 perfbench/selftest.py

- a very short run of every workload passes the correctness gate;
- one altered `facets` value in a pinned-seed records file fails the gate
  and is counted in the failed operations;
- in a traced operation, the per-layer self times that `layer_metrics`
  reports, each layer once, plus the time outside every span (kept on the
  tracer's own clock) add up to the wall time; no span has a negative self
  time; and every per-layer metric declared in BENCHMARK.json is produced;
- without the package source, run.py exits non-zero and prints no result.
"""

import json
import shutil
import subprocess
import sys
import time
import unittest

import run
from spans import self_times

DECLARED = run.load_json(run.ROOT / "BENCHMARK.json")
SPEC = run.load_json(run.HERE / "workloads.json")
SCRATCH = run.ROOT / ".bench_out" / "selftest"


def bench(*args, cwd=run.ROOT, script=run.HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180, check=False)


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        SCRATCH.mkdir(parents=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            SCRATCH.parent.rmdir()
        except OSError:
            pass  # a benchmark run is using it

    def runner(self, name):
        work = SCRATCH / name
        work.mkdir()
        return run.Runner(work, time.monotonic() + 150)

    def test_short_run_of_every_workload_passes(self):
        for w in DECLARED["workloads"]:
            with self.subTest(workload=w["name"]):
                out = bench("--workload", w["name"], "--seed", "1", "--seconds", "1",
                            "--trace", "0")
                self.assertEqual(out.returncode, 0, out.stderr)
                result = json.loads(out.stdout.strip().split("\n")[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]),
                                 {m["name"] for m in DECLARED["end_to_end"]})

    def test_altered_record_fails_the_gate(self):
        w = SPEC["workloads"]["binomial_d2_large"]
        op = self.runner("altered").child(w, SPEC["default_seed"], 1)
        run.gate_op(op, w, SPEC)
        self.assertEqual(op["problems"], [])
        csv = next((op["dir"] / "out").glob("*.csv"))
        lines = csv.read_text(encoding="utf-8").split("\n")
        cells = lines[1].split(",")
        cells[5] = str(int(cells[5]) + 1)  # facets of the first record
        lines[1] = ",".join(cells)
        csv.write_text("\n".join(lines), encoding="utf-8")
        run.gate_op(op, w, SPEC)
        self.assertTrue(any("digest" in p for p in op["problems"]), op["problems"])
        self.assertTrue(any("invariants" in p for p in op["problems"]), op["problems"])
        self.assertEqual(op["failed"], op["attempted"])
        self.assertGreater(op["failed"] / op["attempted"], 0.0)

    def test_traced_self_times_add_up_to_wall(self):
        w = SPEC["workloads"]["binomial_d2_large"]
        runner = self.runner("traced")
        plain = runner.child(w, 7, 1)
        traced = runner.child(w, 7, 1, trace=True)
        for op in (plain, traced):
            run.gate_op(op, w, SPEC)
            self.assertEqual(op["problems"], [])
        self.assertTrue(traced["spans"])
        self.assertGreaterEqual(min(self_times(traced["spans"])), -1e-9)
        reported = run.layer_metrics(traced)
        layer_selfs = [reported[f"self.{layer}_s"] for layer in run.LAYERS]
        self.assertTrue(all(v >= 0.0 for v in layer_selfs), layer_selfs)
        self.assertGreater(reported["self.unattributed_s"], 0.0)
        # every span belongs to exactly one of the layers summed here
        self.assertEqual({n.split(".")[0] for n, *_ in traced["spans"]} - set(run.LAYERS), set())
        total = sum(layer_selfs) + reported["self.unattributed_s"]
        self.assertAlmostEqual(total, traced["wall"], delta=2e-3)
        self.assertEqual(reported["experiments.self_s"], reported["self.experiments_s"])
        layers = run.per_layer([(plain, traced, plain)])
        self.assertEqual({m["name"] for m in DECLARED["per_layer"]} - set(layers), set())

    def test_without_source_exits_nonzero(self):
        bare = SCRATCH / "bare"
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        out = bench("--workload", "binomial_d2_large", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare, script=bare / "perfbench" / "run.py")
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
