#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload graph|service|stream \\
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

A run configures and builds perfbench/ (the library sources come from
../src) into $CARGO_TARGET_DIR, default .bench_build, then runs one
workload and re-prints its JSON result line as the last line of stdout,
after checking that it carries exactly the metrics BENCHMARK.json names
for the mode. Exit status is non-zero when the build fails, the result is
malformed, or any output failed the benchmark's correctness gate.

--self-test builds and runs the benchmark's own tests (lvbench_selftest),
then runs every workload in tiny-size smoke mode, traced and untraced, and
validates each emitted document.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("graph", "service", "stream")
RUN_TIMEOUT_S = 175


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configures (once) and builds the benchmark; returns the bin dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources not found at %s; the benchmark builds the "
            "library from the repository checkout" % os.path.join(ROOT, "src"))
        sys.exit(2)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j4", "--target", "lvbench",
                  "lvbench_selftest"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            log("build step failed (%d): %s" % (rc, " ".join(cmd)))
            sys.exit(2)
    return out


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for the mode, or None if absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def validate(line, trace):
    """Returns an error string, or None when the result line is well formed."""
    try:
        doc = json.loads(line)
    except ValueError as e:
        return "result line is not JSON: %s" % e
    if not isinstance(doc, dict) or set(doc) != {"correct", "attempted",
                                                 "failed", "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    if not isinstance(doc["attempted"], int) or doc["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(doc["failed"], int) or doc["failed"] < 0:
        return "failed must be a whole number"
    for name, m in doc["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"],
                                                         (int, float)):
            return "metric %s is not {value, unit}" % name
    want = expected_metrics(trace)
    if want is not None:
        got = {k: v["unit"] for k, v in doc["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
            return "metrics differ from BENCHMARK.json: missing %s, extra %s, " \
                   "wrong unit %s" % (missing, extra, wrong)
    return None


def run_workload(bindir, workload, seed, seconds, trace, smoke=False):
    """Runs lvbench; returns (exit code, result line or None)."""
    outdir = os.path.join(bindir, "results")
    os.makedirs(outdir, exist_ok=True)
    cmd = [os.path.join(bindir, "lvbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out-dir", outdir]
    if smoke:
        cmd.append("--smoke")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s did not finish within %ds" % (workload, RUN_TIMEOUT_S))
        return 124, None
    lines = p.stdout.strip().splitlines()
    return p.returncode, (lines[-1] if lines else None)


def self_test(bindir):
    rc = subprocess.run([os.path.join(bindir, "lvbench_selftest")],
                        stdout=sys.stderr, stderr=sys.stderr,
                        timeout=RUN_TIMEOUT_S).returncode
    if rc != 0:
        log("lvbench_selftest failed (%d)" % rc)
        return 1
    for workload in WORKLOADS:
        for trace in (False, True):
            code, line = run_workload(bindir, workload, 7, 1, trace, smoke=True)
            err = "exit %d" % code if code != 0 else (
                "no result line" if line is None else validate(line, trace))
            if err:
                log("smoke %s trace=%d: %s" % (workload, trace, err))
                return 1
            log("smoke %s trace=%d: ok" % (workload, trace))
    log("self-test passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=20140609)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    bindir = build(build_dir())
    if args.self_test:
        return self_test(bindir)
    code, line = run_workload(bindir, args.workload, args.seed, args.seconds,
                              args.trace == 1)
    if line is None:
        log("lvbench printed no result (exit %d)" % code)
        return code or 1
    err = validate(line, args.trace == 1)
    if err:
        log(err)
        return 3
    print(line, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
