#!/usr/bin/env python3
"""Benchmark runner for the sgfs simulator.

Builds the perfbench binaries from the repository's sources (once per
checkout, into .bench_build/perfbench), runs one workload for --seconds,
checks its outputs and prints, as the last line of standard output, one
JSON object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload bulk-rw --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics from the untraced binary.
--trace 1 reports the per-layer metrics from the traced binary, after an
untraced pass whose rate gives trace.overhead_ratio; each pass takes half
of --seconds.  The traced binary's spans are written to .bench_build/spans/.
metrics.json names every metric with its unit, direction and clock;
LAYERS.md explains how to read them.
"""

import argparse
import fcntl
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 800
# A run measures for --seconds, then finishes the iteration in flight.
RUN_SLACK_S = 60


def catalogue():
    with open(HERE / "metrics.json") as f:
        return json.load(f)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_cmd(cmd, timeout, **kwargs):
    """subprocess.run in its own process group, so that a timeout stops
    the command's children (make, the compilers) as well."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        return proc.returncode, out


def build():
    """Configures and builds both binaries; serialised by a lock file so
    that concurrent runs in one checkout build once."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no src/CMakeLists.txt beside perfbench/: run from a checkout "
             "of the repository")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                      "--target", "perfbench", "perfbench_traced"])
        with open(log_path, "w") as log:
            for cmd in steps:
                try:
                    rc, _ = run_cmd(cmd, BUILD_TIMEOUT_S, stdout=log,
                                    stderr=subprocess.STDOUT)
                except (OSError, subprocess.TimeoutExpired) as e:
                    fail("build step %s failed: %s" % (cmd[:2], e))
                if rc != 0:
                    log.flush()
                    with open(log_path) as f:
                        sys.stderr.write(f.read()[-4000:])
                    fail("build failed (%s)" % " ".join(cmd[:2]))


def run_binary(binary, args, seconds, spans=None):
    cmd = [str(BUILD / binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--scale", args.scale]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        rc, out = run_cmd(cmd, seconds + RUN_SLACK_S, stdout=subprocess.PIPE,
                          text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (binary, seconds + RUN_SLACK_S))
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        fail("%s exited with %d" % (binary, rc))
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("%s printed no JSON result" % binary)


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(
        prog="run.py", description=__doc__.split("\n\n")[0],
        allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    p.add_argument("--scale", default="full", choices=["full", "small"],
                   help="small: reduced sizes for smoke tests")
    args = p.parse_args(argv)  # exits 2 on an unknown or malformed flag
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 600:
        p.error("--seconds must be between 1 and 600")
    return args


def main(argv):
    cat = catalogue()
    args = parse_args(argv, [w["name"] for w in cat["workloads"]])
    build()

    if args.trace == 0:
        res = run_binary("perfbench", args, args.seconds)
        wanted = cat["end_to_end"]
        metrics = dict(res["metrics"])
    else:
        half = max(1, args.seconds // 2)
        plain = run_binary("perfbench", args, half)
        spans_dir = ROOT / ".bench_build" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        res = run_binary("perfbench_traced", args, half,
                         spans_dir / ("%s-seed%d.tsv" % (args.workload,
                                                          args.seed)))
        wanted = cat["per_layer"]
        metrics = dict(res["metrics"])
        traced_rate = metrics["wall_ops_per_s"]
        metrics["trace.overhead_ratio"] = (
            plain["metrics"]["wall_ops_per_s"] / traced_rate - 1.0
            if traced_rate > 0 else 0.0)
        if plain["virt_fingerprint"] != res["virt_fingerprint"]:
            res["correct"] = False
            res["errors"].append("traced and untraced virtual fingerprints "
                                 "differ: tracing perturbed virtual time")
        res["attempted"] += plain["attempted"]
        res["failed"] += plain["failed"]
        if not plain["correct"]:
            res["correct"] = False
            res["errors"].extend("untraced: " + e for e in plain["errors"])

    correct = bool(res["correct"]) and res["failed"] == 0
    out = {}
    for m in wanted:
        v = metrics.get(m["name"])
        if v is None or not math.isfinite(v):
            correct = False
            res["errors"].append("metric %s missing" % m["name"])
            v = 0.0
        if args.trace == 0 and v <= 0:
            correct = False
            res["errors"].append("metric %s is not positive" % m["name"])
        out[m["name"]] = {"value": v, "unit": m["unit"]}

    # Human-readable summary first; the JSON result must be the last line.
    print("workload %s seed %d: %d iterations, virt_fingerprint %s"
          % (args.workload, args.seed, res["iterations"],
             res["virt_fingerprint"]))
    print("  op_fail_ratio %.6g (%d of %d)"
          % (res["failed"] / max(res["attempted"], 1), res["failed"],
             res["attempted"]))
    for name in ("virt_op_ms_p50", "virt_op_ms_p99", "virt_op_samples",
                 "host_slowdown", "raw_wall_ops_per_s", "raw_setup_s"):
        print("  %-36s %.6g" % (name, res["metrics"].get(name, 0.0)))
    print("  iteration ops/s: %s" % res["iteration_ops_per_s"])
    print("  iteration setup s: %s" % res["iteration_setup_s"])
    for name, m in out.items():
        print("  %-36s %.6g %s" % (name, m["value"], m["unit"]))
    for e in res["errors"]:
        print("  ERROR " + e)
    print(json.dumps({"correct": correct, "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
