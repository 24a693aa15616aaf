#!/usr/bin/env bash
# Full pre-merge check: builds the default configuration and the
# ASan+UBSan configuration, runs the complete test suite under both, and
# runs the differentials under both: serializing-transport and chaos
# replay.
#
# Usage: scripts/check.sh [extra ctest args...]
#
# SEAWEED_SCALE_SMOKE=1 additionally runs the 10^5-endsystem scale smoke
# with a wall-clock budget; CI's scale job sets it.
# SEAWEED_LOAD_SMOKE=1 additionally runs the multi-tenant query-load smoke
# (bench/query_load, capped rates) on both trees, and the answer-checked
# perfbench query_mix on the default tree; CI's load job sets it.
# SEAWEED_LIVE_CHAOS=1 additionally runs the process-level chaos harness
# (scripts/live_chaos_test.sh: SIGKILL + --rejoin + client failover under a
# faulty-udp plan) on the default tree; CI's live-chaos job sets it.
set -euo pipefail

cd "$(dirname "$0")/.."

# A differential that silently skips because its binary was never built is a
# green light lying about coverage; missing binaries fail the whole check.
require_binary() {
  if [[ ! -x "$1" ]]; then
    echo "FAIL: required binary '$1' is missing or not executable" >&2
    echo "      (differential cannot run; check the build step above)" >&2
    exit 1
  fi
}

# Runs one simulation twice within the SAME build tree — once over the
# in-memory transport, once with every message encoded to bytes and decoded
# back in flight — and asserts bit-identical stdout. Comparing across build
# trees would be invalid (floating-point results differ by optimization
# level), so each build checks against itself.
differential() {
  local build="$1"
  local simbin="$build/examples/simctl"
  require_binary "$simbin"
  local flags=(--endsystems 60 --hours 2 --seed 7
               --query "SELECT COUNT(*), SUM(Bytes) FROM Flow")
  echo "--- serializing-transport differential ($build) ---"
  "$simbin" "${flags[@]}" > "$build/sim_mem.out"
  "$simbin" "${flags[@]}" --transport serializing > "$build/sim_ser.out"
  if ! diff -u "$build/sim_mem.out" "$build/sim_ser.out"; then
    echo "FAIL: serializing transport changed simulation output" >&2
    exit 1
  fi
  echo "outputs bit-identical"
}

# Runs the same chaos simulation twice through the full decorator stack
# (wire codec + fault injection from a JSON plan) and asserts bit-identical
# stdout: the deterministic-replay guarantee, end to end through simctl.
chaos_replay() {
  local build="$1"
  local simbin="$build/examples/simctl"
  require_binary "$simbin"
  local plan="$build/chaos_plan.json"
  cat > "$plan" <<'EOF'
{
  "seed": 99,
  "bursts": [{"start_s": 1200, "end_s": 2400, "loss": 0.2}],
  "delays": [{"start_s": 1500, "end_s": 2100, "extra_s": 0.2, "jitter_s": 0.3}],
  "partitions": [{"start_s": 1600, "end_s": 2300, "fraction": 0.3}],
  "crashes": [{"endsystem": 5, "down_s": 3000, "up_s": 3600}]
}
EOF
  local flags=(--endsystems 60 --hours 2 --seed 7
               --transport "serializing,faulty:$plan"
               --query "SELECT COUNT(*), SUM(Bytes) FROM Flow")
  echo "--- chaos replay determinism ($build) ---"
  "$simbin" "${flags[@]}" > "$build/sim_chaos_a.out"
  "$simbin" "${flags[@]}" > "$build/sim_chaos_b.out"
  if ! diff -u "$build/sim_chaos_a.out" "$build/sim_chaos_b.out"; then
    echo "FAIL: chaos run is not seed-deterministic" >&2
    exit 1
  fi
  echo "replays bit-identical"
  # Same contract with dissemination batching in the stack: outbox flushes
  # are scheduler events, so a batched chaos run must replay bit-identically
  # too (batching changes timing and wire framing, never determinism).
  local bflags=(--endsystems 60 --hours 2 --seed 7
                --transport "serializing,batching:50,faulty:$plan"
                --cache-eps 30
                --query "SELECT COUNT(*), SUM(Bytes) FROM Flow")
  echo "--- batched chaos replay determinism ($build) ---"
  "$simbin" "${bflags[@]}" > "$build/sim_chaos_batched_a.out"
  "$simbin" "${bflags[@]}" > "$build/sim_chaos_batched_b.out"
  if ! diff -u "$build/sim_chaos_batched_a.out" "$build/sim_chaos_batched_b.out"; then
    echo "FAIL: batched chaos run is not seed-deterministic" >&2
    exit 1
  fi
  echo "batched replays bit-identical"
}

# Sketch smoke: the documented accuracy floors (HLL relative error <= 2%
# at 10^5 distinct values, quantile rank error <= 1%) re-asserted straight
# from the test binary, plus a serializing-transport differential over a
# query mixing all three sketch functions — sketch states are deterministic
# given the tree shape, and the simulation's tree IS deterministic, so the
# codec must not change one byte.
sketch_smoke() {
  local build="$1"
  local testbin="$build/tests/sketch_test"
  local simbin="$build/examples/simctl"
  require_binary "$testbin"
  require_binary "$simbin"
  echo "--- sketch smoke ($build) ---"
  "$testbin" --gtest_brief=1 --gtest_filter='HllSketchTest.RelativeErrorUnderTwoPercentAt1e5Distinct:QuantileSketchTest.RankErrorUnderOnePercent:MergePropertyTest.*'
  local flags=(--endsystems 60 --hours 2 --seed 7
               --query "SELECT DISTINCT_APPROX(SrcPort), QUANTILE(Bytes, 0.9), TOPK(App, 3) FROM Flow")
  "$simbin" "${flags[@]}" > "$build/sim_sketch_mem.out"
  "$simbin" "${flags[@]}" --transport serializing > "$build/sim_sketch_ser.out"
  if ! diff -u "$build/sim_sketch_mem.out" "$build/sim_sketch_ser.out"; then
    echo "FAIL: serializing transport changed sketch query output" >&2
    exit 1
  fi
  echo "sketch outputs bit-identical through the wire codec"
}

# Multi-process loopback differential: 3 seaweedd shards over real UDP
# sockets must answer a GROUP BY query with the exact bytes the in-memory
# simulation produces for the same seed and dataset, with a monotone
# completeness-predictor stream (scripts/loopback_test.sh). Each build tree
# gets its own port range so the stages cannot collide.
loopback_smoke() {
  local build="$1" base_port="$2"
  require_binary "$build/tools/seaweedd"
  require_binary "$build/tools/seaweed-cli"
  echo "--- multi-process loopback differential ($build) ---"
  SEAWEED_LOOPBACK_BASE_PORT="$base_port" scripts/loopback_test.sh "$build"
}

# Process-level chaos harness: 4 seaweedd shards over faulty UDP (5% loss +
# delay jitter), one SIGKILLed mid-query and restarted with --rejoin, every
# control client force-dropped, the client's own shard killed under it.
# Asserts never-overcount, a monotone predictor, FINAL byte-identical to the
# reference simulation, and a working exit-code-4 "server lost my query"
# path. Wall-clock bounded; gated behind SEAWEED_LIVE_CHAOS because it costs
# minutes on a loaded machine.
live_chaos() {
  local build="$1" base_port="$2"
  require_binary "$build/tools/seaweedd"
  require_binary "$build/tools/seaweed-cli"
  local budget="${SEAWEED_LIVE_CHAOS_BUDGET_S:-600}"
  echo "--- live chaos harness ($build, budget ${budget}s) ---"
  SEAWEED_CHAOS_BASE_PORT="$base_port" timeout "$budget" \
      scripts/live_chaos_test.sh "$build" || {
    echo "FAIL: live chaos harness exceeded ${budget}s or failed" >&2
    exit 1
  }
}

# 10^5-endsystem smoke: completes within the wall-clock budget. Gated
# behind SEAWEED_SCALE_SMOKE because it costs minutes, not seconds.
scale_smoke() {
  local build="$1"
  local simbin="$build/examples/simctl"
  require_binary "$simbin"
  local budget="${SEAWEED_SCALE_SMOKE_BUDGET_S:-1800}"
  echo "--- scale smoke: 10^5 endsystems (budget ${budget}s) ---"
  local start
  start=$(date +%s)
  timeout "$budget" "$simbin" --endsystems 100000 --hours 0.1 --seed 7 \
      > "$build/sim_scale_smoke.out" || {
    echo "FAIL: scale smoke exceeded ${budget}s or crashed" >&2
    exit 1
  }
  echo "completed in $(( $(date +%s) - start ))s"
  tail -2 "$build/sim_scale_smoke.out"
}

# Multi-tenant load smoke: bench/query_load in SEAWEED_LOAD_SMOKE form
# (48 endsystems, 20 s arrival window, capped rates) with a wall-clock
# budget. $2 narrows the rate list for slow (sanitizer) trees. Gated behind
# SEAWEED_LOAD_SMOKE; CI's load job sets it.
load_smoke() {
  local build="$1" rates="${2:-}" budget="${3:-120}"
  local loadbin="$build/bench/query_load"
  require_binary "$loadbin"
  echo "--- query-load smoke ($build, budget ${budget}s) ---"
  local start
  start=$(date +%s)
  local rate_env=()
  [[ -n "$rates" ]] && rate_env=("SEAWEED_LOAD_RATES=$rates")
  env SEAWEED_LOAD_SMOKE=1 "${rate_env[@]}" \
      SEAWEED_BENCH_OUT="$build/query_load_smoke.json" \
      timeout "$budget" "$loadbin" > "$build/query_load_smoke.out" || {
    echo "FAIL: query-load smoke exceeded ${budget}s or crashed" >&2
    tail -5 "$build/query_load_smoke.out" >&2 || true
    exit 1
  }
  echo "completed in $(( $(date +%s) - start ))s"
  tail -5 "$build/query_load_smoke.out"
  # The converter doubles as a schema check on the machine-readable output.
  scripts/query_load_to_json.py "$build/query_load_smoke.json" smoke \
      > /dev/null
  echo "raw JSON converts cleanly"
}

# Answer-checked query mix: perfbench/run.py builds its own default
# (RelWithDebInfo) tree under .bench_build/, checks every answer against
# the per-endsystem oracle and exits non-zero on any wrong or missing one.
# The run is deterministic (216 queries per repetition), so its peak RSS
# is held to a budget of about twice the 354 MiB median measured once
# aggregation-tree results became shared (BENCH_vertex_memory.json): a
# layout that copies results again fails here instead of passing quietly.
perfbench_smoke() {
  local out="$1/perfbench_query_mix.out"
  local rss_budget_mb=700
  echo "--- perfbench query_mix smoke (answers checked) ---"
  python3 perfbench/run.py --workload query_mix --seconds 5 > "$out" || {
    echo "FAIL: perfbench query_mix reported a wrong answer or failed" >&2
    tail -5 "$out" >&2 || true
    exit 1
  }
  tail -1 "$out"
  python3 - "$out" "$rss_budget_mb" <<'EOF'
import json, sys
result = json.loads(open(sys.argv[1]).read().splitlines()[-1])
rss, budget = result["metrics"]["peak_rss_mb"]["value"], float(sys.argv[2])
if rss > budget:
    sys.exit("FAIL: query_mix peak_rss_mb %.1f is over its %.0f MiB budget"
             % (rss, budget))
print("peak_rss_mb %.1f within the %.0f MiB budget" % (rss, budget))
EOF
}

echo "=== default build (RelWithDebInfo) ==="
cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)" "$@"
differential build
chaos_replay build
sketch_smoke build
loopback_smoke build 19600
if [[ "${SEAWEED_SCALE_SMOKE:-0}" == "1" ]]; then
  scale_smoke build
fi
if [[ "${SEAWEED_LOAD_SMOKE:-0}" == "1" ]]; then
  load_smoke build "" 120
  perfbench_smoke build
fi
if [[ "${SEAWEED_LIVE_CHAOS:-0}" == "1" ]]; then
  live_chaos build 19900
fi

echo
echo "=== sanitizer build (ASan + UBSan) ==="
cmake -B build-asan -S . -DSEAWEED_SANITIZE=ON >/dev/null
cmake --build build-asan -j "$(nproc)"
ctest --test-dir build-asan --output-on-failure -j "$(nproc)" "$@"
differential build-asan
chaos_replay build-asan
sketch_smoke build-asan
loopback_smoke build-asan 19620
if [[ "${SEAWEED_LOAD_SMOKE:-0}" == "1" ]]; then
  # Sanitizer instrumentation makes the sweep ~4x slower; one rate, both
  # pipeline variants, is plenty to catch ASan/UBSan findings in the
  # batching/caching/slicing paths.
  load_smoke build-asan 4 360
fi

echo
echo "All checks passed."
