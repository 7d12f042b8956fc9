#!/usr/bin/env sh
# Runs the kernel micro-benchmarks at default scale and refreshes
# BENCH_kernels.json at the repo root. Compare against the committed
# baseline before/after perf-sensitive changes:
#
#   ./tools/bench_smoke.sh [build-dir]
#
# Pass a configured build dir (default: ./build). Numbers are ns/op
# (adjusted real time, same as the console output).
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
bench="$build_dir/bench/bench_kernels"

if [ ! -x "$bench" ]; then
  echo "bench_smoke: $bench not built (cmake --build $build_dir)" >&2
  exit 1
fi

# Golden end-to-end gate first: refuse to refresh the perf baseline from a
# build whose pipeline output diverges from the committed fixtures.
(cd "$build_dir" && ctest -L golden --output-on-failure)

# Batch-mode gate: two designs routed concurrently (--jobs 2) must emit
# mask planes byte-identical to routing each alone; a mismatch means run
# state leaked between contexts and any benchmark numbers are suspect.
cli="$build_dir/tools/sadp_route_cli"
if [ ! -x "$cli" ]; then
  echo "bench_smoke: $cli not built (cmake --build $build_dir)" >&2
  exit 1
fi
scratch=$(mktemp -d "${TMPDIR:-/tmp}/bench_smoke.XXXXXX")
serve_pid=
trap 'if [ -n "$serve_pid" ]; then kill "$serve_pid" 2>/dev/null || true; fi
      rm -rf "$scratch"' EXIT
job_a="--seed-demo 36 --width 110 --height 110"
job_b="--seed-demo 28 --width 95 --height 95"
# shellcheck disable=SC2086  # word-splitting the option strings is intended
"$cli" $job_a --masks "$scratch/serialA_" >/dev/null || [ $? -eq 3 ]
# shellcheck disable=SC2086
"$cli" $job_b --masks "$scratch/serialB_" >/dev/null || [ $? -eq 3 ]
printf '%s\n%s\n' \
  "$job_a --masks $scratch/batchA_" \
  "$job_b --masks $scratch/batchB_" > "$scratch/jobs.list"
"$cli" --batch "$scratch/jobs.list" --jobs 2 >/dev/null || [ $? -eq 3 ]
for f in "$scratch"/serial*.masks; do
  twin=$(printf '%s' "$f" | sed 's/serial\([AB]_\)/batch\1/')
  cmp -s "$f" "$twin" || {
    echo "bench_smoke: batch output $twin differs from serial $f" >&2
    exit 1
  }
done
echo "bench_smoke: batch --jobs 2 mask planes byte-identical to serial"

# Backend matrix gate (DESIGN.md §5.13): selecting the SADP backend
# explicitly must be a no-op byte-for-byte -- `--backend sadp2` mask
# planes must equal the default run's. The triple-patterning backend gets
# a determinism smoke: two `--backend tpl3` runs of the same design must
# agree byte-for-byte and route with zero hard overlays (exit 0).
bk_job="--seed-demo 30 --width 60 --height 60"
# shellcheck disable=SC2086
"$cli" $bk_job --masks "$scratch/bkdef_" >/dev/null || [ $? -eq 3 ]
# shellcheck disable=SC2086
"$cli" $bk_job --backend sadp2 --masks "$scratch/bk2_" >/dev/null || [ $? -eq 3 ]
for f in "$scratch"/bkdef*.masks; do
  twin=$(printf '%s' "$f" | sed 's/bkdef_/bk2_/')
  cmp -s "$f" "$twin" || {
    echo "bench_smoke: --backend sadp2 output $twin differs from default $f" >&2
    exit 1
  }
done
# shellcheck disable=SC2086
"$cli" $bk_job --backend tpl3 --masks "$scratch/bk3a_" >/dev/null
# shellcheck disable=SC2086
"$cli" $bk_job --backend tpl3 --masks "$scratch/bk3b_" >/dev/null
for f in "$scratch"/bk3a*.masks; do
  twin=$(printf '%s' "$f" | sed 's/bk3a_/bk3b_/')
  cmp -s "$f" "$twin" || {
    echo "bench_smoke: --backend tpl3 rerun $twin differs from $f" >&2
    exit 1
  }
done
echo "bench_smoke: --backend sadp2 byte-identical to default; tpl3 deterministic"

# Service gate: the routing daemon's warm ECO path must earn its keep.
# A scripted client loads a design, measures cold full-route latency,
# then drives random move_pin edits; the memoized replay must push warm
# edit throughput to at least 3x the cold baseline or the gate fails.
# Refreshes BENCH_service.json (edits/sec, p50/p99, cache counters).
serve="$build_dir/tools/sadp_route_serve"
if [ ! -x "$serve" ]; then
  echo "bench_smoke: $serve not built (cmake --build $build_dir)" >&2
  exit 1
fi
serve_sock="$scratch/bench_serve.sock"
"$serve" --socket "$serve_sock" --workers 1 >/dev/null &
serve_pid=$!
i=0
while [ ! -S "$serve_sock" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "bench_smoke: service socket never appeared" >&2
                        exit 1; }
  sleep 0.1
done
python3 "$repo_root/tools/service_client.py" --socket "$serve_sock" bench \
  --nets 240 --width 160 --height 160 --seed 4 --cold-iters 5 --edits 40 \
  --min-speedup 3 --out "$repo_root/BENCH_service.json" >/dev/null
wait "$serve_pid" || {
  echo "bench_smoke: service daemon exited uncleanly" >&2
  exit 1
}
serve_pid=
echo "bench_smoke: warm ECO edits >= 3x cold route throughput;" \
     "updated $repo_root/BENCH_service.json"

# Mask-cache entry gate (DESIGN.md §5.11): an entry is a plane-free
# summary of a few hundred bytes. More than 4 KiB per entry means mask
# planes, or something as large, are resident in the cache again.
python3 - "$repo_root/BENCH_service.json" <<'EOF'
import json, sys
c = json.load(open(sys.argv[1]))["cache"]
per = c["bytes"] / max(1, c["entries"])
if per > 4096:
    sys.exit("bench_smoke: %.0f B per mask-cache entry (%d B over %d "
             "entries) exceeds 4 KiB" % (per, c["bytes"], c["entries"]))
print("bench_smoke: %.0f B per mask-cache entry (limit 4 KiB)" % per)
EOF

# Sanitizer gate: rebuild the fuzz-labelled equivalence suites (bucket vs
# heap A*, scalar vs AVX2 bitmap kernels) under AddressSanitizer and
# UBSan in a throwaway build dir. An overrun of the engine's open-list or
# seed vectors shows up as an ASan report here long before it corrupts a
# benchmark run; any report aborts the test (sanitizer builds are
# non-recoverable). Set BENCH_SMOKE_SKIP_ASAN=1 to opt out (e.g. on
# machines without the asan runtime).
if [ "${BENCH_SMOKE_SKIP_ASAN:-0}" != "1" ]; then
  asan_dir="$scratch/asan-build"
  cmake -S "$repo_root" -B "$asan_dir" -DSADP_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE= >/dev/null
  cmake --build "$asan_dir" -j "$(nproc 2>/dev/null || echo 4)" \
    --target test_astar_equiv test_bitmap_simd \
    test_service_fuzz test_timing_oracle test_timing_fuzz \
    test_backend_fuzz >/dev/null
  (cd "$asan_dir" && ctest -L fuzz --output-on-failure)
  echo "bench_smoke: fuzz label clean under -DSADP_SANITIZE=address,undefined"
else
  echo "bench_smoke: ASan fuzz gate skipped (BENCH_SMOKE_SKIP_ASAN=1)"
fi

# Perf gate: measure into a scratch JSON first and diff the gated
# benchmarks (gate_re: the search core plus raster extraction, whole-layer
# decomposition and the sign-off report) against the committed baseline.
# A >25% slowdown in any gated entry aborts before the baseline file is
# touched, so a regression can't silently grandfather itself into
# BENCH_kernels.json.
#
# Noise control: on a shared 1-CPU container single shots of these
# µs-scale kernels swing well past 25% run to run. Container noise only
# ever ADDS time, so the gated benchmarks are re-run twice more (cheap,
# --filter'ed) and each gated entry -- for both the comparison and the
# values that get committed -- is the per-name minimum across the three
# runs, which is a stable estimator of the true kernel cost.
gate_re='^BM_(AStarRoute|ParityDsuUnite|NegotiatedRoute|RasterToNmRects|DecomposeLayer|PhysicalReport)'
fresh="$scratch/bench_fresh.json"
"$bench" --json "$fresh"
"$bench" --filter "$gate_re" --json "$scratch/gate2.json"
"$bench" --filter "$gate_re" --json "$scratch/gate3.json"
python3 - "$fresh" "$scratch/gate2.json" "$scratch/gate3.json" <<'EOF'
import json, sys
runs = [json.load(open(p)) for p in sys.argv[1:]]
best = {}
for run in runs[1:]:
    for r in run["results"]:
        b = best.setdefault(r["name"], dict(r))
        for k in ("real_ns", "cpu_ns"):
            b[k] = min(b[k], r[k])
for r in runs[0]["results"]:
    if r["name"] in best:
        for k in ("real_ns", "cpu_ns"):
            r[k] = min(r[k], best[r["name"]][k])
json.dump(runs[0], open(sys.argv[1], "w"), indent=1)
EOF
extract_ns() {
  # name cpu_ns pairs, one per line, from our bench JSON schema
  python3 - "$1" <<'EOF'
import json, sys
for r in json.load(open(sys.argv[1]))["results"]:
    print(r["name"], r["cpu_ns"])
EOF
}
print_host() {
  # "<label> host: nproc=N cpu=MODEL" from a bench JSON's host object
  python3 - "$1" "$2" <<'EOF' >&2
import json, sys
h = json.load(open(sys.argv[2])).get("host") or {}
print("bench_smoke: %s host: nproc=%s cpu=%s"
      % (sys.argv[1], h.get("nproc", "unknown"), h.get("cpu_model", "unknown")))
EOF
}
extract_ns "$repo_root/BENCH_kernels.json" > "$scratch/base.txt"
extract_ns "$fresh" > "$scratch/fresh.txt"
awk -v gate="$gate_re" 'NR == FNR { base[$1] = $2; next }
     $1 ~ gate &&
     ($1 in base) && base[$1] > 0 && $2 > 1.25 * base[$1] {
       printf "bench_smoke: %s regressed: %.0f ns vs baseline %.0f ns (>25%%)\n",
              $1, $2, base[$1] > "/dev/stderr"
       bad = 1
     }
     END { exit bad }' "$scratch/base.txt" "$scratch/fresh.txt" || {
  # A baseline from another machine explains a "regression" on its own.
  print_host baseline "$repo_root/BENCH_kernels.json"
  print_host fresh "$fresh"
  echo "bench_smoke: perf gate failed; baseline left untouched" >&2
  exit 1
}
echo "bench_smoke: gated benchmarks within 25% of committed baseline"

cp "$fresh" "$repo_root/BENCH_kernels.json"
echo "bench_smoke: updated $repo_root/BENCH_kernels.json"
