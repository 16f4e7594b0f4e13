#!/usr/bin/env bash
# One-command verification gate: fresh configure, build, full test suite,
# a short instrumented benchmark pass that must emit the metrics
# artifacts (BENCH_gemm.json, BENCH_layers.json), and a sharded-vs-
# unsharded identity gate (REPRO_SCALE=smoke, --shards 2) proving the
# process fan-out reproduces the single-process attack artifacts and
# success counters bit for bit, then the benchmark/serving gates and a
# sanitizer stage (TSan, ASan+UBSan) in sibling build trees.
#
# Usage: tools/ci.sh [build-dir]   (default: build-ci)
# Env:   ADV_OBS=0 pins the instrumentation off (overhead A/B runs);
#        JOBS=N overrides the parallelism (default: nproc).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-build-ci}"
jobs="${JOBS:-$(nproc)}"

cd "$repo_root"

echo "== configure ($build_dir) =="
cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release

echo "== build (-j$jobs) =="
cmake --build "$build_dir" -j"$jobs"

echo "== ctest =="
ctest --test-dir "$build_dir" --output-on-failure -j"$jobs"

echo "== fault injection (ADV_FAULT, label: fault) =="
# Re-run the recovery-path tests with ADV_FAULT set in the environment.
# The site is benign (nothing in the tests hits `ci.smoke`) — the point is
# proving the env plumbing arms the registry (FailpointEnv no longer
# skips) while every armed-by-test recovery scenario still passes with the
# global failpoint state active.
ADV_FAULT='ci.smoke:fail_once' \
  ctest --test-dir "$build_dir" -L fault --output-on-failure -j"$jobs"

echo "== micro benchmarks (metrics emission) =="
# A filtered run keeps CI fast; the driver still writes BENCH_gemm.json
# and, with instrumentation on, BENCH_layers.json on exit.
(cd "$build_dir" &&
 ./bench/micro_benchmarks --benchmark_filter='BM_Gemm/256' \
                          --benchmark_min_time=0.05)

fail=0
for artifact in BENCH_gemm.json BENCH_layers.json BENCH_attack_engine.json \
                BENCH_conv.json BENCH_int8.json; do
  if [ -s "$build_dir/$artifact" ]; then
    echo "ok: $build_dir/$artifact"
  elif [ "$artifact" = BENCH_layers.json ] && [ "${ADV_OBS:-1}" = 0 ]; then
    echo "skipped: $artifact (ADV_OBS=0)"
  else
    echo "MISSING: $build_dir/$artifact" >&2
    fail=1
  fi
done

# The active-set engine must actually pay off: the A/B run in
# BENCH_attack_engine.json (compaction + workspace on vs off, early abort
# in both arms) has to show at least a 2x end-to-end speedup.
if [ -s "$build_dir/BENCH_attack_engine.json" ]; then
  speedup=$(sed -n 's/.*"speedup": *\([0-9.]*\).*/\1/p' \
            "$build_dir/BENCH_attack_engine.json")
  if awk -v s="${speedup:-0}" 'BEGIN { exit !(s >= 2.0) }'; then
    echo "ok: attack engine speedup ${speedup}x (>= 2x)"
  else
    echo "FAIL: attack engine speedup ${speedup:-?}x < 2x" >&2
    fail=1
  fi
fi

# Direct-convolution gates (BENCH_conv.json): the direct microkernels
# must reproduce the im2col path bit for bit on every benched shape
# (forward, input grad, weight/bias grads — "identity": 1), and the
# MagNet 3x3 "same" forwards must come out at least 2x faster than the
# im2col fallback they replace.
if [ -s "$build_dir/BENCH_conv.json" ]; then
  conv_identity=$(sed -n 's/.*"identity": *\([0-9]*\),.*/\1/p' \
                  "$build_dir/BENCH_conv.json" | head -n1)
  if [ "${conv_identity:-0}" = 1 ]; then
    echo "ok: direct conv bitwise-identical to im2col on all benched shapes"
  else
    echo "FAIL: direct conv diverges from im2col (identity != 1)" >&2
    fail=1
  fi
  conv_speedup=$(sed -n 's/.*"min_same3x3_fwd_speedup": *\([0-9.]*\).*/\1/p' \
                 "$build_dir/BENCH_conv.json")
  if awk -v s="${conv_speedup:-0}" 'BEGIN { exit !(s >= 2.0) }'; then
    echo "ok: MagNet 3x3 same-conv forward speedup ${conv_speedup}x (>= 2x)"
  else
    echo "FAIL: MagNet 3x3 same-conv forward speedup ${conv_speedup:-?}x < 2x" >&2
    fail=1
  fi
fi

# Int8 GEMM gates (BENCH_int8.json): the quantized classifier GEMMs must
# beat the float kernels by at least 2x on the compute-bound shapes (the
# "gated": true cases — the memory-bound conv1 k=9 panel is reported but
# not gated, see micro_benchmarks.cpp). The ratio only means something
# when an int8 SIMD kernel is compiled in; a scalar fallback build cannot
# outrun the vectorized float path, so there the gate downgrades to info.
if [ -s "$build_dir/BENCH_int8.json" ]; then
  int8_kernel=$(sed -n 's/.*"kernel": *"\([^"]*\)".*/\1/p' \
                "$build_dir/BENCH_int8.json")
  int8_speedup=$(sed -n 's/.*"min_clf_gemm_speedup": *\([0-9.]*\).*/\1/p' \
                 "$build_dir/BENCH_int8.json")
  if [ "${int8_kernel:-scalar}" = scalar ]; then
    echo "info: int8 gemm speedup ${int8_speedup:-?}x (scalar kernel; gate skipped)"
  elif awk -v s="${int8_speedup:-0}" 'BEGIN { exit !(s >= 2.0) }'; then
    echo "ok: int8 classifier gemm speedup ${int8_speedup}x (>= 2x, kernel $int8_kernel)"
  else
    echo "FAIL: int8 classifier gemm speedup ${int8_speedup:-?}x < 2x (kernel $int8_kernel)" >&2
    fail=1
  fi
fi

echo "== sharded attack identity (REPRO_SCALE=smoke, --shards 2) =="
# Baseline: one unsharded smoke-scale table1 run trains the tiny models
# into a private cache and writes the canonical attack artifacts.
shard_cache="$repo_root/$build_dir/shard_ci/cache"
base_dir="$repo_root/$build_dir/shard_ci/unsharded"
shard_dir="$repo_root/$build_dir/shard_ci/sharded"
table1="$repo_root/$build_dir/bench/table1_attack_comparison"
rm -rf "$repo_root/$build_dir/shard_ci"
mkdir -p "$shard_cache" "$base_dir" "$shard_dir"

(cd "$base_dir" &&
 REPRO_SCALE=smoke REPRO_CACHE_DIR="$shard_cache" ADV_THREADS=1 \
   "$table1" > table1.out)

# Stash the canonical attack artifacts and drop them from the cache, so
# the sharded run recomputes its slices instead of warm-starting from
# the baseline's answers (models stay cached — only attacks re-run).
mkdir -p "$shard_cache/baseline"
mv "$shard_cache"/atk_*.bin "$shard_cache/baseline/"

(cd "$shard_dir" &&
 REPRO_SCALE=smoke REPRO_CACHE_DIR="$shard_cache" ADV_THREADS=1 \
   "$table1" --shards 2 > table1.out)

# Gate 1: every merged artifact is bitwise identical to the baseline's.
for f in "$shard_cache/baseline"/atk_*.bin; do
  name="$(basename "$f")"
  if cmp -s "$f" "$shard_cache/$name"; then
    echo "ok: $name identical (2 shards vs unsharded)"
  else
    echo "FAIL: $name differs between sharded and unsharded runs" >&2
    fail=1
  fi
done

# Gate 2: the merged per-attack success/image counters in
# BENCH_attacks.json match the unsharded dump exactly. (Run-shaped
# counters like runs/iterations legitimately double with two workers.)
extract_counts() {
  grep -E '"key": "attack/[^"]*/(successes|images)"' "$1" | sort
}
if diff <(extract_counts "$base_dir/BENCH_attacks.json") \
        <(extract_counts "$shard_dir/BENCH_attacks.json"); then
  echo "ok: merged attack success/image counters match unsharded"
else
  echo "FAIL: merged BENCH_attacks.json counters diverge" >&2
  fail=1
fi

# Gate 3: on hosts with cores to spare, two workers must actually run in
# parallel — BENCH_shard.json's speedup (worker CPU over driver wall for
# the fan-out phase) has to reach 1.6x.
if [ -s "$shard_dir/BENCH_shard.json" ]; then
  shard_speedup=$(sed -n 's/.*"speedup": *\([0-9.]*\).*/\1/p' \
                  "$shard_dir/BENCH_shard.json")
  if [ "$(nproc)" -ge 4 ]; then
    if awk -v s="${shard_speedup:-0}" 'BEGIN { exit !(s >= 1.6) }'; then
      echo "ok: shard speedup ${shard_speedup}x (>= 1.6x at 2 shards)"
    else
      echo "FAIL: shard speedup ${shard_speedup:-?}x < 1.6x" >&2
      fail=1
    fi
  else
    echo "info: shard speedup ${shard_speedup:-?}x (< 4 cores; gate skipped)"
  fi
else
  echo "MISSING: $shard_dir/BENCH_shard.json" >&2
  fail=1
fi

echo "== threat-model bench (REPRO_SCALE=smoke) =="
# table1_threat_models crafts every registry attack under all three
# threat models (sharing the shard_ci cache so models are already
# trained) and writes BENCH_threatmodel.json. Gates: the dump covers all
# three threat models, and threat/oblivious_identity is 1 — every cached
# artifact equals a fresh, uncached run over an ObliviousTarget, bit for
# bit.
threat_dir="$repo_root/$build_dir/threat_ci"
threat_bench="$repo_root/$build_dir/bench/table1_threat_models"
rm -rf "$threat_dir"
mkdir -p "$threat_dir"
(cd "$threat_dir" &&
 REPRO_SCALE=smoke REPRO_CACHE_DIR="$shard_cache" ADV_THREADS=1 \
   "$threat_bench" > threat.out)

if [ -s "$threat_dir/BENCH_threatmodel.json" ]; then
  for tm in oblivious gray-box detector-aware; do
    if grep -q "/$tm/" "$threat_dir/BENCH_threatmodel.json"; then
      echo "ok: BENCH_threatmodel.json covers threat model '$tm'"
    else
      echo "FAIL: BENCH_threatmodel.json missing threat model '$tm'" >&2
      fail=1
    fi
  done
  if grep -A1 '"key": "threat/oblivious_identity"' \
       "$threat_dir/BENCH_threatmodel.json" | grep -q '"value": 1'; then
    echo "ok: cached oblivious artifacts bitwise-identical to fresh runs"
  else
    echo "FAIL: threat/oblivious_identity != 1" >&2
    fail=1
  fi
else
  echo "MISSING: $threat_dir/BENCH_threatmodel.json" >&2
  fail=1
fi

echo "== quant transfer bench (REPRO_SCALE=smoke) =="
# table_quant_transfer crafts float attacks (EAD / C&W-L2 / I-FGSM,
# sharing the shard_ci cache so the models and the EAD artifacts are
# already there), replays them through the float and the int8-quantized
# pipelines under all four defense schemes, and writes
# BENCH_quant_transfer.json. Gates: the EAD rows cover every scheme on
# the int8 path (the paper's headline attack must be measured against
# the quantized deployment), and the clean top-1 drift between the
# float and quantized classifiers stays within 0.5%.
quant_dir="$repo_root/$build_dir/quant_ci"
quant_bench="$repo_root/$build_dir/bench/table_quant_transfer"
rm -rf "$quant_dir"
mkdir -p "$quant_dir"
(cd "$quant_dir" &&
 REPRO_SCALE=smoke REPRO_CACHE_DIR="$shard_cache" ADV_THREADS=1 \
   "$quant_bench" > quant.out)

if [ -s "$quant_dir/BENCH_quant_transfer.json" ]; then
  for scheme in none detector reformer full; do
    if grep -q "qtransfer/mnist/ead/$scheme/asr_int8_pct" \
         "$quant_dir/BENCH_quant_transfer.json"; then
      echo "ok: BENCH_quant_transfer.json covers EAD vs int8 scheme '$scheme'"
    else
      echo "FAIL: BENCH_quant_transfer.json missing EAD int8 ASR for '$scheme'" >&2
      fail=1
    fi
  done
  drift=$(grep '"qtransfer/mnist/clean_top1_drift_pct"' \
            "$quant_dir/BENCH_quant_transfer.json" |
          sed -n 's/.*"value": *\([0-9.eE+-]*\).*/\1/p')
  if awk -v d="${drift:-100}" 'BEGIN { exit !(d <= 0.5) }'; then
    echo "ok: quantized clean top-1 drift ${drift}% (<= 0.5%)"
  else
    echo "FAIL: quantized clean top-1 drift ${drift:-?}% > 0.5%" >&2
    fail=1
  fi
else
  echo "MISSING: $quant_dir/BENCH_quant_transfer.json" >&2
  fail=1
fi

echo "== serve tests (label: serve) =="
# The serving battery (micro-batching identity, fault containment,
# protocol robustness, soak) already ran in the full ctest pass; re-run
# it by label so a serving regression is called out on its own.
ctest --test-dir "$build_dir" -L serve --output-on-failure -j"$jobs"

echo "== serve chaos (ADV_FAULT latency faults, label: serve) =="
# Same pattern as the fault-label re-run above, with the latency grammar:
# arm delay + stall(_after, never reached in practice) sites from the
# environment and re-run the serving battery. Proves the env plumbing
# parses the delay/stall actions and that the whole battery — including
# the chaos soak, which arms its own faults on top — passes with global
# latency-fault state active.
ADV_FAULT='serve.batch_forward:delay=1,serve.model_load:delay=1,ci.smoke:stall_after=1000000' \
  ctest --test-dir "$build_dir" -L serve --output-on-failure -j"$jobs"

echo "== serving bench (REPRO_SCALE=smoke) =="
# serve_bench builds the default MNIST MagNet (sharing the shard_ci
# cache, so models are already trained), starts the daemon, replays a
# fixed request set through concurrent clients and compares every
# response bitwise against the serial one-request-at-a-time pipeline
# (gauge serve/bench/identity), then load-tests in-flight depths
# 1/2/4/8. Gates: the identity gauge is 1 and BENCH_serve.json carries
# p50/p99/throughput for every depth.
serve_dir="$repo_root/$build_dir/serve_ci"
serve_bench="$repo_root/$build_dir/bench/serve_bench"
rm -rf "$serve_dir"
mkdir -p "$serve_dir"
if (cd "$serve_dir" &&
    REPRO_SCALE=smoke REPRO_CACHE_DIR="$shard_cache" ADV_THREADS=1 \
      "$serve_bench" > serve.out); then
  echo "ok: serve_bench completed (identity gate passed in-process)"
else
  echo "FAIL: serve_bench exited nonzero (batched-vs-serial divergence?)" >&2
  fail=1
fi

if [ -s "$serve_dir/BENCH_serve.json" ]; then
  if grep -q '"key": "serve/bench/identity", "kind": "gauge", "value": 1}' \
       "$serve_dir/BENCH_serve.json"; then
    echo "ok: batched responses bitwise-identical to serial pipeline"
  else
    echo "FAIL: serve/bench/identity != 1" >&2
    fail=1
  fi
  serve_shape_ok=1
  for d in 1 2 4 8; do
    for m in p50_ms p99_ms throughput_rps mean_batch_rows; do
      if ! grep -q "\"key\": \"serve/bench/depth$d/$m\"" \
             "$serve_dir/BENCH_serve.json"; then
        echo "FAIL: BENCH_serve.json missing serve/bench/depth$d/$m" >&2
        serve_shape_ok=0
        fail=1
      fi
    done
  done
  if [ "$serve_shape_ok" = 1 ]; then
    echo "ok: BENCH_serve.json covers depths 1/2/4/8 (p50/p99/throughput/occupancy)"
  fi

  # Overload phase gates: the saturating run must have actually shed
  # work AND expired deadlines (a zero means the overload never bit),
  # and the accounting invariant requests == ok + errors + shed +
  # deadline_expired must hold exactly (gauge `accounted` is computed
  # in-process from the counter deltas).
  if grep -q '"key": "serve/bench/overload/accounted", "kind": "gauge", "value": 1}' \
       "$serve_dir/BENCH_serve.json"; then
    echo "ok: overload accounting invariant holds (requests == ok+errors+shed+expired)"
  else
    echo "FAIL: serve/bench/overload/accounted != 1" >&2
    fail=1
  fi
  for m in shed deadline_expired; do
    v=$(sed -n "s/.*\"key\": \"serve\/bench\/overload\/$m\", \"kind\": \"gauge\", \"value\": \([0-9.]*\).*/\1/p" \
        "$serve_dir/BENCH_serve.json")
    if awk -v x="${v:-0}" 'BEGIN { exit !(x >= 1) }'; then
      echo "ok: overload phase $m = $v (> 0)"
    else
      echo "FAIL: overload phase $m = ${v:-missing} (expected > 0)" >&2
      fail=1
    fi
  done
else
  echo "MISSING: $serve_dir/BENCH_serve.json" >&2
  fail=1
fi
echo "== sanitizers (TSan: serve + thread_pool/obs/fault; ASan+UBSan: all) =="
# Concurrency and memory checks, each in its own build tree next to
# $build_dir. TSan covers the serving battery (label: serve) and the
# thread_pool, obs and fault suites — the code that shares state across
# threads; ASan+UBSan run the full suite. Every report fails its test:
# TSan and ASan exit nonzero on a report, and UBSan is built
# non-recoverable.
sanitizer_build() {  # <dir> <flags> [targets...]
  local dir="$1" flags="$2"
  shift 2
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="$flags -fno-omit-frame-pointer" \
        -DCMAKE_EXE_LINKER_FLAGS="$flags"
  if [ "$#" -gt 0 ]; then
    cmake --build "$dir" -j"$jobs" --target "$@"
  else
    cmake --build "$dir" -j"$jobs"
  fi
}

tsan_dir="$build_dir-tsan"
sanitizer_build "$tsan_dir" "-fsanitize=thread" \
  serve_test thread_pool_test obs_test fault_test
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
if ctest --test-dir "$tsan_dir" -L serve --output-on-failure -j"$jobs" &&
   "$tsan_dir/tests/thread_pool_test" && "$tsan_dir/tests/obs_test" &&
   "$tsan_dir/tests/fault_test"; then
  echo "ok: TSan clean (serve, thread_pool, obs, fault)"
else
  echo "FAIL: TSan reported a race (or a test failed) under $tsan_dir" >&2
  fail=1
fi
unset TSAN_OPTIONS

asan_dir="$build_dir-asan"
sanitizer_build "$asan_dir" \
  "-fsanitize=address,undefined -fno-sanitize-recover=undefined"
if ASAN_OPTIONS="detect_leaks=1" UBSAN_OPTIONS="print_stacktrace=1" \
     ctest --test-dir "$asan_dir" --output-on-failure -j"$jobs"; then
  echo "ok: ASan+UBSan clean (full suite)"
else
  echo "FAIL: ASan/UBSan reported an error (or a test failed) under $asan_dir" >&2
  fail=1
fi
exit "$fail"
