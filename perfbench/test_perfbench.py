"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They build the binaries through run.py (a cold build takes a few minutes)
and run every workload at --scale small, so they check the harness and its
correctness gates, not performance.
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
BUILD = ROOT / ".bench_build" / "perfbench"
CATALOGUE = json.loads((HERE / "metrics.json").read_text())
WORKLOADS = [w["name"] for w in CATALOGUE["workloads"]]
TIMED_LAYERS = ["crypto.cipher.ns", "crypto.hash.ns", "crypto.rsa.ns",
                "crypto.keygen.ns", "crypto.merkle.ns",
                "services.envelope.ns", "vfs.ns"]


def run_py(*args):
    return subprocess.run([sys.executable, str(RUN), *args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=1200)


def smoke(workload, trace, seed=7):
    proc = run_py("--workload", workload, "--seed", str(seed),
                  "--seconds", "1", "--trace", str(trace), "--scale", "small")
    if proc.returncode != 0:
        raise AssertionError("run.py exited %d: %s" % (proc.returncode,
                                                       proc.stderr[-2000:]))
    return proc.stdout.strip().splitlines()


def binary_result(binary, workload, seed, *extra):
    proc = subprocess.run([str(BUILD / binary), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1",
                           "--scale", "small", *extra],
                          stdout=subprocess.PIPE, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d" % (binary, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class CatalogueTest(unittest.TestCase):
    def test_benchmark_json_matches_catalogue(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(bench), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end", "per_layer"})
        self.assertEqual(bench["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(bench["paths"], ["perfbench"])
        listed = [{"name": w["name"], "why": w["why"]}
                  for w in CATALOGUE["workloads"] if w["listed"]]
        self.assertEqual(bench["workloads"], listed)
        for key, fields in (("end_to_end", ("name", "unit", "better",
                                            "bound")),
                            ("per_layer", ("name", "unit", "better"))):
            want = [{f: m[f] for f in fields} for m in CATALOGUE[key]]
            self.assertEqual(bench[key], want, key)
        for m in CATALOGUE["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        self.assertEqual(max(CATALOGUE["end_to_end"],
                             key=lambda m: m["bound"])["bound"],
                         next(m["bound"] for m in CATALOGUE["end_to_end"]
                              if m["name"] == "setup_s"))


class CliTest(unittest.TestCase):
    def test_unknown_flag_is_rejected(self):
        proc = run_py("--workload", "bulk-rw", "--seed", "1", "--seconds",
                      "1", "--trace", "0", "--sede", "2")
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")

    def test_unknown_workload_is_rejected(self):
        proc = run_py("--workload", "bulk", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
        self.assertEqual(proc.returncode, 2)

    def test_binary_rejects_unknown_flag(self):
        smoke("bulk-rw", 0)  # make sure the binary is built
        proc = subprocess.run([str(BUILD / "perfbench"), "--workload",
                               "bulk-rw", "--seeed", "1"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=60)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")


class SmokeTest(unittest.TestCase):
    """Every workload at small size: output parses, every declared metric
    is there with its unit, and the run passes its checks."""

    def check(self, workload, trace):
        lines = smoke(workload, trace)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = CATALOGUE["end_to_end" if trace == 0 else "per_layer"]
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if trace == 0:
                self.assertGreater(got["value"], 0, m["name"])
        self.assertEqual(result["failed"], 0, "\n".join(lines[:-1]))
        self.assertTrue(result["correct"], "\n".join(lines[:-1]))
        return result["metrics"]

    def test_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 0)

    def test_traced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                m = self.check(w, 1)
                # Timed layers, the kernel estimate and the rest account for
                # the traced wall time (other.ns is the remainder and must
                # not go negative).
                parts = sum(m[n]["value"] for n in TIMED_LAYERS)
                parts += m["sim.kernel.ns_est"]["value"]
                self.assertGreaterEqual(m["other.ns"]["value"], 0)
                self.assertAlmostEqual(
                    (parts + m["other.ns"]["value"]) /
                    m["trace.wall_ns"]["value"], 1.0, places=6)

    def test_spans_file(self):
        smoke("bulk-rw", 1, seed=11)
        path = ROOT / ".bench_build" / "spans" / "bulk-rw-seed11.tsv"
        rows = [l.split("\t") for l in path.read_text().splitlines()
                if not l.startswith("#")]
        self.assertGreater(len(rows), 0)
        layers = {r[3] for r in rows}
        self.assertIn("op", layers)
        self.assertIn("crypto.cipher", layers)
        for i, r in enumerate(rows):
            self.assertEqual(int(r[0]), i)
            self.assertLess(int(r[1]), i)  # parents open before children
            self.assertLessEqual(int(r[4]), int(r[5]))
            if r[3] == "op":
                self.assertLessEqual(0, int(r[6]))
                self.assertLessEqual(int(r[6]), int(r[7]))


class FingerprintTest(unittest.TestCase):
    """virt_fingerprint repeats for one seed, in both binaries (tracing never
    perturbs virtual time), and is not vacuous: it changes with the seed.
    Two seeds may still draw the same inputs (crowd-verify's crowd size has
    five values), so the check is that three seeds give at least two
    fingerprints."""

    def test_same_seed_same_fingerprint_other_seed_differs(self):
        smoke("bulk-rw", 0)  # make sure the binaries are built
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = binary_result("perfbench", w, 3)["virt_fingerprint"]
                b = binary_result("perfbench", w, 3)["virt_fingerprint"]
                t = binary_result("perfbench_traced", w, 3)["virt_fingerprint"]
                self.assertEqual(a, b)
                self.assertEqual(a, t)
                others = {binary_result("perfbench", w, seed)["virt_fingerprint"]
                          for seed in (4, 5)}
                self.assertGreater(len(others | {a}), 1)


class HostSpeedTest(unittest.TestCase):
    """The wall metrics are the measured ones scaled to the reference host
    speed by the calibration loop: a slow host raises the rate and lowers
    the set-up time by the same factor."""

    def test_wall_metrics_scale_by_host_slowdown(self):
        smoke("bulk-rw", 0)  # make sure the binary is built
        m = binary_result("perfbench", "bulk-rw", 1)["metrics"]
        self.assertGreater(m["host_slowdown"], 0)
        self.assertAlmostEqual(
            m["wall_ops_per_s"] / m["raw_wall_ops_per_s"],
            m["host_slowdown"], places=9)
        self.assertAlmostEqual(m["raw_setup_s"] / m["setup_s"],
                               m["host_slowdown"], places=9)


if __name__ == "__main__":
    unittest.main()
