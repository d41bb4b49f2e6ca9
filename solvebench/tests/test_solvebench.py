"""The benchmark's own tests.

    python3 -m unittest discover -s solvebench/tests -v

Run from the repository root; the first test builds the benchmark through
run.py. Tiny runs check that every metric named in BENCHMARK.json is
emitted with its unit and that the correctness gate trips on a tampered
best_cost; short runs at the shipped settings check the work shape.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace=0, seconds=1, extra=(), cwd=ROOT, script=RUN,
        env=None):
    """Run one workload; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)] + list(extra),
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        universal_newlines=True, timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines()


def result(lines):
    return json.loads(lines[-1])


def detail(lines):
    for line in lines:
        if line.startswith("detail "):
            return json.loads(line[len("detail "):])
    raise AssertionError("no detail line in the report")


class MetricsEmitted(unittest.TestCase):
    def check(self, trace, declared):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = run(workload, trace=trace, extra=["--tiny"])
                self.assertEqual(code, 0, "\n".join(lines))
                res = result(lines)
                self.assertEqual(set(res),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0)
                emitted = res["metrics"]
                self.assertEqual(set(emitted), {m["name"] for m in declared})
                for m in declared:
                    self.assertEqual(emitted[m["name"]]["unit"], m["unit"])
                    self.assertIsInstance(emitted[m["name"]]["value"],
                                          (int, float))
                # Every end-to-end metric is printed by name with its unit.
                text = "\n".join(lines[:-1])
                for name in ("setup_s", "latency_ms.p50", "latency_ms.p90",
                             "cpu_ms_per_solve", "quality.gap_pct"):
                    self.assertIn(name + ": ", text)

    def test_untraced_run_emits_every_end_to_end_metric(self):
        self.check(0, SPEC["end_to_end"])

    def test_traced_run_emits_every_per_layer_metric(self):
        self.check(1, SPEC["per_layer"])


class Gate(unittest.TestCase):
    def test_tampered_best_cost_trips_the_gate(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = run(workload, extra=["--tiny", "--tamper"])
                self.assertNotEqual(code, 0)
                self.assertFalse(result(lines)["correct"])
                self.assertTrue(any("best_cost != model.evaluate" in line
                                    for line in lines))

    def test_fails_without_the_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "solvebench"))
            # Build inside the copy, never into an existing build tree.
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            code, lines = run(WORKLOADS[0], cwd=tmp,
                              script=os.path.join(tmp, "solvebench",
                                                  "run.py"), env=env)
            self.assertNotEqual(code, 0)
            self.assertFalse(lines and lines[-1].startswith("{"))


class WorkShape(unittest.TestCase):
    """At the shipped settings every request executes the same leaves."""

    def test_constant_leaves_per_request(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = run(workload, seconds=2)
                self.assertEqual(code, 0, "\n".join(lines))
                shape = detail(lines)
                self.assertGreater(shape["completed"], 0)
                self.assertEqual(shape["min_leaves"], shape["max_leaves"])
                if workload != "serve-remote":
                    # serve-remote's pool mixes three sizes on purpose.
                    self.assertEqual(shape["widths"], 1)
                if workload == "solve-warm-deep":
                    self.assertGreater(shape["lookups"], 0)
                    self.assertEqual(shape["hit_share"], 1.0)


if __name__ == "__main__":
    unittest.main()
