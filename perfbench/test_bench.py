#!/usr/bin/env python3
"""Tests of the benchmark command itself, on tiny designs.

    python3 perfbench/test_bench.py

Checks, for every workload and both trace modes, that the last stdout line
holds exactly correct/attempted/failed/metrics, that the run is correct
with no failed operation, and that every metric BENCHMARK.json names for
the mode is present with its unit. Traced counts must repeat exactly. A
copy holding only BENCHMARK.json and perfbench/ must fail without a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sparse_ladder", "paper_dense", "eco_edits")


def run(cwd, workload, trace, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result(workload, trace, spec):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out
    assert out["correct"] is True, proc.stderr
    assert out["failed"] == 0 and out["attempted"] >= 1, out
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"]), (m, got)
        if not trace:
            assert got["value"] != 0, (workload, m["name"])
    return out


def test_every_metric_on_every_workload(spec):
    for w in WORKLOADS:
        result(w, 0, spec)
        counts = {}
        for attempt in range(2):
            out = result(w, 1, spec)
            counts[attempt] = {n: v["value"] for n, v in out["metrics"].items()
                               if v["unit"] in ("count", "ratio", "bytes")}
        assert counts[0] == counts[1], (w, counts)
        print("ok", w)


def test_fails_without_sources():
    bare = os.path.join(ROOT, ".bench_build", "bare_copy")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "sparse_ladder", 0)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
        print("ok bare copy fails")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    test_every_metric_on_every_workload(spec)
    test_fails_without_sources()
    print("all benchmark tests passed")


if __name__ == "__main__":
    main()
