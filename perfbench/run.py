#!/usr/bin/env python3
"""End-to-end routing benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root. The first call configures and builds the
driver (perfbench/CMakeLists.txt, RelWithDebInfo) into .bench_build/; later
calls rebuild incrementally. The driver routes fixed designs (--seed sets
the edit mix and the order designs are routed in), times calls into the
router's libraries, checks every output, and prints one JSON result. This script prints a provenance record, then, as the last line
of stdout, {"correct", "attempted", "failed", "metrics"} with every metric
that BENCHMARK.json lists for the mode (end_to_end for --trace 0, per_layer
for --trace 1), each with its value and unit. --tiny shrinks every design
so that perfbench/test_bench.py can exercise the whole command quickly.
"""

import argparse
import glob
import json
import os
import platform
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("sparse_ladder", "paper_dense", "eco_edits")
DRIVER_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; fails loudly."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("router sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", SRC, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD, "--target", "perfbench_driver",
               "-j", jobs])


def cache_value(cache, key):
    m = re.search(r"^" + re.escape(key) + r":[A-Z]+=(.*)$", cache, re.M)
    return m.group(1).strip() if m else ""


def provenance():
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        cache = f.read()
    compiler = cache_value(cache, "CMAKE_CXX_COMPILER")
    for path in glob.glob(os.path.join(BUILD, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            text = f.read()
        ident = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if ident and ver:
            compiler = "%s %s (%s)" % (ident.group(1), ver.group(1), compiler)
    build_type = cache_value(cache, "CMAKE_BUILD_TYPE")
    flags = " ".join(x for x in (
        cache_value(cache, "CMAKE_CXX_FLAGS"),
        cache_value(cache, "CMAKE_CXX_FLAGS_" + build_type.upper()),
        "-std=c++20 -Wall -Wextra") if x)
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            m = re.search(r"^model name\s*:\s*(.*)$", f.read(), re.M)
            cpu = m.group(1) if m else cpu
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "compiler": compiler,
            "cxx_flags": flags, "build_type": build_type,
            "git_commit": commit}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every design (the benchmark's own tests)")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed wants a nonnegative integer")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S, 4)
    if proc.returncode != 0:
        fail("driver exited with %d" % proc.returncode, 3)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed no result", 3)
    out = json.loads(lines[-1])

    metrics = out["metrics"]
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        fail("driver metrics %s do not match BENCHMARK.json %s"
             % (sorted(metrics), sorted(names)), 3)
    for m in wanted:
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail("unit of %s is %s, BENCHMARK.json says %s"
                 % (m["name"], metrics[m["name"]]["unit"], m["unit"]), 3)

    record = {"workload": args.workload, "seed": args.seed,
              "threads": out["threads"], "trace": args.trace,
              "tiny": args.tiny, "seconds": args.seconds,
              "provenance": provenance()}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"],
                      "metrics": {n: metrics[n] for n in names}}))


if __name__ == "__main__":
    main()
