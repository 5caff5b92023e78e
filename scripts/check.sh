#!/usr/bin/env bash
# Tier-1 gate: configure (if needed), build, and run every tier1-labeled
# test.  This is the check CI and pre-commit hooks run; it must stay green.
#
# Usage: scripts/check.sh [build-dir]   (default: build)
#
# Set FPGADBG_SANITIZE=thread (or address) to run the whole gate under a
# sanitized build instead.  The sanitized tree lives in its own directory
# (build-<sanitizer> unless one is given) so it never clobbers the regular
# build, and the standalone *_tsan_smoke tests drop out automatically (the
# full suite is already sanitized).
set -euo pipefail

cd "$(dirname "$0")/.."
SANITIZE="${FPGADBG_SANITIZE:-}"
if [ -n "$SANITIZE" ]; then
  BUILD_DIR="${1:-build-$SANITIZE}"
else
  BUILD_DIR="${1:-build}"
fi

if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  cmake -B "$BUILD_DIR" -S . -DFPGADBG_SANITIZE="$SANITIZE"
fi
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure -j "$(nproc)"

# Under a TSan gate the standalone smokes drop out of ctest (the whole suite
# is already sanitized), but the batch-engine smoke pins the worst-case
# sharding configuration (one block per task, every step through the pool),
# which the gtest suites only approximate — run it explicitly.
if [ "$SANITIZE" = "thread" ]; then
  tests/sim/run_batch_tsan_smoke.sh . "$BUILD_DIR/tsan_smoke"
  # Same for the introspection server: HTTP scrapers against live telemetry
  # writers is exactly the cross-thread pattern TSan exists to check.
  tests/support/run_introspect_tsan_smoke.sh . "$BUILD_DIR/tsan_smoke"
  # And the sampling profiler: an async-signal handler writing the sample
  # ring on every thread while a reader resolves stacks from it.
  tests/support/run_profiler_tsan_smoke.sh . "$BUILD_DIR/tsan_smoke"
fi

# Benchmark tests: perfbench builds its own Release binary from src/ and runs
# every workload's short mode with its correctness checks, so a change that
# breaks a name perfbench uses, or one of those checks, fails this gate and
# not only a benchmark run.  Takes a few minutes (the first run builds).
python3 perfbench/test_perfbench.py

# Schema smoke: run a real debug session with the flight recorder and the
# metrics snapshot enabled, then make `fpgadbg report` ingest both files.
# report parses the journal (JSONL) and the metrics snapshot (JSON) with the
# same loaders the tools use, so a schema drift in either output fails here.
FPGADBG="$BUILD_DIR/src/tools/fpgadbg"
SMOKE_DIR="$BUILD_DIR/schema-smoke"
rm -rf "$SMOKE_DIR" && mkdir -p "$SMOKE_DIR"
"$FPGADBG" gen stereov "$SMOKE_DIR/design.blif" > /dev/null
PROFILE=$("$FPGADBG" --journal "$SMOKE_DIR/session.jsonl" \
                   --metrics "$SMOKE_DIR/metrics.json" \
                   --prom "$SMOKE_DIR/metrics.prom" \
                   profile "$SMOKE_DIR/design.blif" --turns 4 --cycles 64)
grep -q "DUT program: " <<< "$PROFILE" || {
  echo "schema smoke: profile output is missing the \"DUT program\" line" >&2
  exit 1
}
REPORT=$("$FPGADBG" report "$SMOKE_DIR/session.jsonl" "$SMOKE_DIR/metrics.json")
for needle in "per-turn breakdown" "paper bound" "signal coverage" \
              "frame churn" "metrics snapshot"; do
  if ! grep -q "$needle" <<< "$REPORT"; then
    echo "schema smoke: report output is missing \"$needle\"" >&2
    exit 1
  fi
done
grep -q '^fpgadbg_debug_turns_total ' "$SMOKE_DIR/metrics.prom" || {
  echo "schema smoke: prometheus exposition is missing fpgadbg_debug_turns_total" >&2
  exit 1
}
echo "schema smoke: OK ($SMOKE_DIR)"

# Shared-cache smoke: two separate flow processes against ONE content-
# addressed --cache-dir root.  The first populates it; the second must execute
# zero stages, replay all six from the shared root, and report mmap hits — this
# pins the whole zero-copy chain (CAS publish, index lookup, mmap load, blob
# validation) end to end through the CLI.
CAS_ROOT="$SMOKE_DIR/cas-root"
rm -rf "$CAS_ROOT"
COLD=$("$FPGADBG" flow "$SMOKE_DIR/design.blif" --cache-dir "$CAS_ROOT")
grep -q "6 stages executed, 0 from cache" <<< "$COLD" || {
  echo "shared-cache smoke: cold run did not execute all stages" >&2
  exit 1
}
WARM=$("$FPGADBG" flow "$SMOKE_DIR/design.blif" --cache-dir "$CAS_ROOT")
grep -q "0 stages executed, 6 from cache" <<< "$WARM" || {
  echo "shared-cache smoke: warm run re-executed stages" >&2
  exit 1
}
MMAP_HITS=$(sed -n 's/.*from cache (.*), \([0-9]*\) mmap hits.*/\1/p' <<< "$WARM")
MMAP_HITS="${MMAP_HITS:-0}"
if [ "$MMAP_HITS" -le 0 ]; then
  echo "shared-cache smoke: warm run reported no mmap hits: $WARM" >&2
  exit 1
fi
"$FPGADBG" cache gc --max-bytes 0 --cache-dir "$CAS_ROOT" | \
  grep -q "kept 0 entries" || {
  echo "shared-cache smoke: cache gc did not drain the root" >&2
  exit 1
}
echo "shared-cache smoke: OK ($MMAP_HITS mmap hits from $CAS_ROOT)"

# ASan leg: the zero-copy blob reader against a hostile-image corpus,
# compiled standalone with -fsanitize=address (also registered as the
# blob_asan_smoke ctest; run explicitly here so a sanitized gate — where
# the standalone smokes drop out of ctest — still covers it).
tests/flow/run_blob_asan_smoke.sh . "$BUILD_DIR/asan_smoke"

# Timing smoke: the timing-driven flow must run end to end and surface its
# STA summary on stdout and the Fmax gauge in the Prometheus exposition.
TIMING_OUT=$("$FPGADBG" --prom "$SMOKE_DIR/timing.prom" \
             profile "$SMOKE_DIR/design.blif" --turns 1 --cycles 16 \
             --scenarios 0 --timing-driven)
for needle in "Fmax" "worst slack" "critical path" "timing-driven"; do
  if ! grep -q "$needle" <<< "$TIMING_OUT"; then
    echo "timing smoke: profile output is missing \"$needle\"" >&2
    exit 1
  fi
done
grep -q '^fpgadbg_timing_fmax_mhz ' "$SMOKE_DIR/timing.prom" || {
  echo "timing smoke: prometheus exposition is missing fpgadbg_timing_fmax_mhz" >&2
  exit 1
}
echo "timing smoke: OK"

# Introspection smoke: run a profile with the live HTTP server on an
# ephemeral port, scrape every endpoint while the process lingers, and shut
# it down through /quitz.  Exercises the whole chain end to end: flag
# peeling, port announcement on stderr, HTTP framing, Prometheus exposition,
# and the progress registry.
INTRO_ERR="$SMOKE_DIR/introspect.err"
"$FPGADBG" profile "$SMOKE_DIR/design.blif" --turns 1 --cycles 16 \
           --scenarios 64 --introspect 0 --introspect-linger 60 \
           > /dev/null 2> "$INTRO_ERR" &
INTRO_PID=$!
PORT=""
for _ in $(seq 1 200); do
  PORT=$(sed -n 's/^fpgadbg: introspect: serving on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
         "$INTRO_ERR" | head -n 1)
  [ -n "$PORT" ] && break
  sleep 0.05
done
if [ -z "$PORT" ]; then
  echo "introspect smoke: no port announcement on stderr" >&2
  kill "$INTRO_PID" 2> /dev/null || true
  exit 1
fi
for endpoint in healthz metrics statusz progressz tracez; do
  if ! curl -sf --max-time 5 "http://127.0.0.1:$PORT/$endpoint" \
       > "$SMOKE_DIR/introspect.$endpoint"; then
    echo "introspect smoke: GET /$endpoint failed" >&2
    kill "$INTRO_PID" 2> /dev/null || true
    exit 1
  fi
done
grep -q '^fpgadbg_' "$SMOKE_DIR/introspect.metrics" || {
  echo "introspect smoke: /metrics has no fpgadbg_ samples" >&2
  kill "$INTRO_PID" 2> /dev/null || true
  exit 1
}
grep -q '"tasks"' "$SMOKE_DIR/introspect.progressz" || {
  echo "introspect smoke: /progressz has no tasks document" >&2
  kill "$INTRO_PID" 2> /dev/null || true
  exit 1
}
curl -sf --max-time 5 "http://127.0.0.1:$PORT/quitz" > /dev/null || {
  echo "introspect smoke: GET /quitz failed" >&2
  kill "$INTRO_PID" 2> /dev/null || true
  exit 1
}
wait "$INTRO_PID" || {
  echo "introspect smoke: fpgadbg exited non-zero" >&2
  exit 1
}
echo "introspect smoke: OK (port $PORT)"

# Profiler smoke: run a profile with the SIGPROF sampler and the live
# server, assert the collapsed-stack export is non-empty (symbolized frames,
# positive counts), and scrape /flamez + /profilez while the process
# lingers.  Pins the whole sampling chain — timer thread, signal fan-out,
# ring capture, symbolization, both report surfaces — end to end.
PROF_ERR="$SMOKE_DIR/profiler.err"
FLAME="$SMOKE_DIR/flame.txt"
"$FPGADBG" profile "$SMOKE_DIR/design.blif" --turns 2 --cycles 256 \
           --scenarios 128 --flame "$FLAME" --sample-hz 997 \
           --introspect 0 --introspect-linger 60 \
           > "$SMOKE_DIR/profiler.out" 2> "$PROF_ERR" &
PROF_PID=$!
PORT=""
for _ in $(seq 1 200); do
  PORT=$(sed -n 's/^fpgadbg: introspect: serving on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
         "$PROF_ERR" | head -n 1)
  [ -n "$PORT" ] && break
  sleep 0.05
done
if [ -z "$PORT" ]; then
  echo "profiler smoke: no port announcement on stderr" >&2
  kill "$PROF_PID" 2> /dev/null || true
  exit 1
fi
# Wait for the workload to finish (flame file written) before scraping, so
# /flamez serves real samples rather than an in-flight ring.
for _ in $(seq 1 400); do
  grep -q "^  flame " "$SMOKE_DIR/profiler.out" 2> /dev/null && break
  sleep 0.05
done
for endpoint in flamez profilez; do
  if ! curl -sf --max-time 5 "http://127.0.0.1:$PORT/$endpoint" \
       > "$SMOKE_DIR/profiler.$endpoint"; then
    echo "profiler smoke: GET /$endpoint failed" >&2
    kill "$PROF_PID" 2> /dev/null || true
    exit 1
  fi
done
curl -sf --max-time 5 "http://127.0.0.1:$PORT/quitz" > /dev/null || {
  echo "profiler smoke: GET /quitz failed" >&2
  kill "$PROF_PID" 2> /dev/null || true
  exit 1
}
wait "$PROF_PID" || {
  echo "profiler smoke: fpgadbg exited non-zero" >&2
  exit 1
}
if ! [ -s "$FLAME" ]; then
  echo "profiler smoke: flame output is empty" >&2
  exit 1
fi
# Collapsed format: "frame;frame;... count" with a positive trailing count.
grep -Eq ';.* [0-9]+$' "$FLAME" || {
  echo "profiler smoke: no multi-frame collapsed stack in $FLAME" >&2
  exit 1
}
grep -q ';' "$SMOKE_DIR/profiler.flamez" || {
  echo "profiler smoke: /flamez served no collapsed stacks" >&2
  exit 1
}
grep -q '^samples: ' "$SMOKE_DIR/profiler.profilez" || {
  echo "profiler smoke: /profilez has no samples field" >&2
  exit 1
}
grep -q "dropped samples" "$SMOKE_DIR/profiler.out" || {
  echo "profiler smoke: CLI output is missing the dropped-samples row" >&2
  exit 1
}
echo "profiler smoke: OK ($(wc -l < "$FLAME") collapsed stacks, port $PORT)"
