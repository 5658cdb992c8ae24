#!/usr/bin/env bash
# CI entry point: build the plain and sanitized (ASan+UBSan, any UBSan report
# fatal) configurations, run the test suite in both — unit-labelled tests
# first so cheap component breakage fails fast, then the integration/property
# tiers — and finally smoke the experiment runtime's determinism contract
# (bit-identical JSONL, counters included, at --jobs 1 vs --jobs 4, and with
# setup sharing and bed recycling on vs off).
#
# Diagnostics for upload-on-failure land in $ROOT/ci-artifacts (golden-trace
# diff, counters JSONL); build trees also leave obs_artifacts/ dirs behind.
set -euo pipefail

# Usage: build_and_test.sh [all|hardened|perf|nosimd|shard|tsan|load]
#   all       (default) plain + sanitized builds, full suite, determinism smoke
#   hardened  warnings-hardened configuration only (-Wall -Wextra -Wshadow
#             -Werror); runs as its own CI job so shadowing regressions fail
#             without holding up the main matrix
#   perf      Release build; runs the crypto/scheduler micro-kernels and
#             `meecc_bench perf --check` (fails if the campaign
#             macro-benchmark's recycled and fresh sweeps diverge, or if
#             recycling allocates more than 10% of the fresh path's
#             allocations per trial), leaving BENCH_hotpath.json in
#             $ROOT/ci-artifacts for upload; then the repository benchmark's
#             smoke test (perfbench/test_smoke.py), so a src/ API change
#             that breaks the benchmark build fails here
#   nosimd    -DMEECC_NO_SIMD=ON build (portable scalar tag probe); runs the
#             unit and golden-trace tiers so the scalar cache-probe path
#             proves the same golden traces as the SIMD one
#   shard     sharded-campaign fabric end to end: run a small sweep as three
#             shards (one killed mid-run via --stop-after and resumed),
#             merge, and diff against the unsharded JSONL; then rerun the
#             sweep purely from the on-disk setup store the shards left
#             behind. Shard manifests land in $ROOT/ci-artifacts on failure.
#             Streaming is the shard-mode default; the stage also reruns the
#             sweep --no-streaming and as a streaming plain run, cmp'ing both
#             against the same reference bytes. Last, fig7 runs through the
#             same store twice: the rerun must build nothing and both runs
#             must match a --no-reuse-setup reference. Then two fig7 seeds
#             whose first monitor discovery fails must set up anyway.
#   tsan      -DMEECC_SANITIZE=thread build; runs the parallel suites that
#             drive the runner's result ring (worker fill, in-order
#             retirement, the window wait) and the bed-pool stats, so every
#             data race on the per-trial result path fails CI instead of
#             corrupting a campaign
#   load      the bounded-window gate: runs the 100k-trial streaming RSS
#             test and the trial-window test 50 times each while two fig7
#             test processes compete for the cores, so a bound that holds
#             only on an idle host fails here
STAGE="${1:-all}"

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"
ARTIFACTS="$ROOT/ci-artifacts"
mkdir -p "$ARTIFACTS"

collect_artifacts() {
  # Golden-trace mismatch dumps live under <build>/obs_artifacts.
  local dir
  for dir in "$ROOT"/build-ci-*/obs_artifacts; do
    [ -d "$dir" ] && cp -r "$dir" "$ARTIFACTS/$(basename "$(dirname "$dir")")-obs" || true
  done
  # Shard manifests describe exactly what each campaign shard committed;
  # the shard stage deletes its campaign dir on success, so these only
  # survive (and upload) when the stage failed.
  if [ -d "$ROOT/build-ci-shard/campaign" ]; then
    mkdir -p "$ARTIFACTS/shard-campaign"
    cp "$ROOT"/build-ci-shard/campaign/*.manifest.json \
      "$ARTIFACTS/shard-campaign/" 2> /dev/null || true
  fi
}
trap collect_artifacts EXIT

build_and_test() {
  local dir="$1"
  shift
  cmake -B "$dir" -S "$ROOT" "$@"
  cmake --build "$dir" -j "$JOBS"
  # Unit tier first: fails fast on single-component breakage.
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" -L unit
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" -LE unit
}

if [ "$STAGE" = "hardened" ]; then
  echo "=== hardened build (-Wall -Wextra -Wshadow -Werror) ==="
  build_and_test "$ROOT/build-ci-hardened" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMEECC_WERROR=ON -DMEECC_HARDENED=ON
  echo "CI OK (hardened)"
  exit 0
elif [ "$STAGE" = "perf" ]; then
  echo "=== perf smoke (Release hot-path timings) ==="
  DIR="$ROOT/build-ci-perf"
  cmake -B "$DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release -DMEECC_WERROR=ON
  cmake --build "$DIR" -j "$JOBS" --target meecc_bench micro_kernel
  # Micro-kernels (crypto + scheduler): a quick pass so obviously broken
  # kernels fail before the tracked suite runs.
  "$DIR/bench/micro_kernel" \
    --benchmark_filter='BM_(AesEncryptBlock|LineEncrypt|MultilinearTag|SchedulerDispatch|SchedulerChurn)' \
    --benchmark_min_time=0.05
  # The tracked suite: BENCH_hotpath.json is the uploadable baseline;
  # --check enforces that snapshot-reuse and bed-recycling sweep results are
  # byte-identical to fresh ones, and that the campaign macro-benchmark's
  # recycled path allocates <= 10% of the fresh path's allocations per
  # trial; --compare fails the stage when any
  # tracked kernel regresses >15% against the committed baseline (timing
  # kernels on CPU-time clocks, the campaign on allocation counts — the
  # only campaign metric stable enough on shared CI runners to gate on;
  # throughput stays in the JSON's "campaign" section for humans).
  "$DIR/bench/meecc_bench" perf --out "$ARTIFACTS/BENCH_hotpath.json" --check \
    --compare "$ROOT/BENCH_hotpath.json"
  # The repository benchmark builds src/ on its own (perfbench/CMakeLists.txt);
  # its tiny-size smoke run catches API drift between the two.
  (cd "$ROOT" && python3 perfbench/test_smoke.py)
  echo "CI OK (perf)"
  exit 0
elif [ "$STAGE" = "nosimd" ]; then
  echo "=== scalar-probe build (-DMEECC_NO_SIMD=ON) ==="
  DIR="$ROOT/build-ci-nosimd"
  cmake -B "$DIR" -S "$ROOT" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMEECC_WERROR=ON -DMEECC_NO_SIMD=ON
  cmake --build "$DIR" -j "$JOBS"
  # Unit tier plus the golden traces: byte-identical traces from the scalar
  # find_slot path is the gate that SIMD never changed behavior. The
  # serialize round-trip rides along so snapshot wire bytes are proven
  # backend-invariant on the scalar path too.
  ctest --test-dir "$DIR" --output-on-failure -j "$JOBS" -L unit
  "$DIR/tests/golden_trace_test"
  "$DIR/tests/serialize_test"
  echo "CI OK (nosimd)"
  exit 0
elif [ "$STAGE" = "shard" ]; then
  echo "=== sharded campaign fabric (kill, resume, merge, setup store) ==="
  DIR="$ROOT/build-ci-shard"
  cmake -B "$DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMEECC_WERROR=ON
  cmake --build "$DIR" -j "$JOBS" --target meecc_bench
  BENCH="$DIR/bench/meecc_bench"
  CAMPAIGN="$DIR/campaign"
  STORE="$DIR/setup-store"
  rm -rf "$CAMPAIGN" "$STORE"
  # mitigations is the sweep with a setup_key, so the shards genuinely
  # exercise the snapshot serialization path through the on-disk store.
  # No --quiet: the "setup reuse" stderr line is asserted on below.
  SWEEP=(run mitigations --seeds 3)

  echo "--- unsharded reference (6 trials) ---"
  "$BENCH" "${SWEEP[@]}" --jobs 4 --json "$DIR/reference.jsonl" > /dev/null

  echo "--- shards 1/3 and 3/3 to completion, 2/3 killed after one trial ---"
  "$BENCH" "${SWEEP[@]}" --jobs 1 --setup-store "$STORE" \
    --shard 1/3 --dir "$CAMPAIGN"
  "$BENCH" "${SWEEP[@]}" --jobs 4 --setup-store "$STORE" \
    --shard 3/3 --dir "$CAMPAIGN"
  "$BENCH" "${SWEEP[@]}" --jobs 1 --setup-store "$STORE" \
    --shard 2/3 --dir "$CAMPAIGN" --stop-after 1

  echo "--- merge must refuse the partial campaign ---"
  if "$BENCH" merge --dir "$CAMPAIGN" --json "$DIR/merged.jsonl" 2> /dev/null; then
    echo "merge accepted a campaign with an incomplete shard" >&2
    exit 1
  fi

  echo "--- resume the killed shard from its manifest watermark ---"
  "$BENCH" "${SWEEP[@]}" --jobs 4 --setup-store "$STORE" \
    --shard 2/3 --dir "$CAMPAIGN" --resume

  echo "--- merge and diff against the unsharded JSONL ---"
  "$BENCH" merge --dir "$CAMPAIGN" --json "$DIR/merged.jsonl"
  cmp "$DIR/reference.jsonl" "$DIR/merged.jsonl"
  echo "merged 3 shards byte-identical to the unsharded run"

  echo "--- streaming plain run matches the in-memory reference ---"
  # Same sweep through the bounded-memory path: records dropped after
  # commit, bytes out of the JsonlResultStream. Must be the same bytes.
  "$BENCH" "${SWEEP[@]}" --jobs 4 --setup-store "$STORE" --streaming \
    --json "$DIR/streaming.jsonl" > /dev/null
  cmp "$DIR/reference.jsonl" "$DIR/streaming.jsonl"

  echo "--- --no-streaming shards merge to the same bytes ---"
  # Shard mode defaults to streaming, so the campaign above already ran
  # that way; this covers the other side of the streaming axis.
  CAMPAIGN2="$DIR/campaign-nostream"
  rm -rf "$CAMPAIGN2"
  "$BENCH" "${SWEEP[@]}" --jobs 4 --setup-store "$STORE" --no-streaming \
    --shard 1/2 --dir "$CAMPAIGN2"
  "$BENCH" "${SWEEP[@]}" --jobs 1 --setup-store "$STORE" --no-streaming \
    --shard 2/2 --dir "$CAMPAIGN2"
  "$BENCH" merge --dir "$CAMPAIGN2" --json "$DIR/merged-nostream.jsonl"
  cmp "$DIR/reference.jsonl" "$DIR/merged-nostream.jsonl"
  rm -rf "$CAMPAIGN2"
  echo "streaming on/off both reproduce the reference byte for byte"

  echo "--- unsharded rerun served entirely from the shards' setup store ---"
  SETUP_LINE=$("$BENCH" "${SWEEP[@]}" --jobs 4 --setup-store "$STORE" \
    --json "$DIR/from-store.jsonl" 2>&1 | grep 'setup reuse' || true)
  echo "$SETUP_LINE"
  case "$SETUP_LINE" in
    *"0 built"*) ;;
    *)
      echo "expected every warm setup to come off disk, got: '$SETUP_LINE'" >&2
      exit 1
      ;;
  esac
  cmp "$DIR/reference.jsonl" "$DIR/from-store.jsonl"
  echo "disk-loaded snapshots reproduce the reference byte for byte"

  echo "--- fig7 shares its setup through the store too ---"
  # fig7's setup key leaves out the window, so three seeds build three warm
  # states; the rerun must load all of them and reproduce the bytes.
  FIG7=(run fig7_window_sweep --set bits=96 --seeds 3)
  "$BENCH" "${FIG7[@]}" --jobs 4 --no-reuse-setup \
    --json "$DIR/fig7-reference.jsonl" > /dev/null 2>&1
  "$BENCH" "${FIG7[@]}" --jobs 4 --setup-store "$STORE" \
    --json "$DIR/fig7-built.jsonl" > /dev/null 2>&1
  cmp "$DIR/fig7-reference.jsonl" "$DIR/fig7-built.jsonl"
  SETUP_LINE=$("$BENCH" "${FIG7[@]}" --jobs 4 --setup-store "$STORE" \
    --json "$DIR/fig7-from-store.jsonl" 2>&1 | grep 'setup reuse' || true)
  echo "$SETUP_LINE"
  case "$SETUP_LINE" in
    *"0 built"*) ;;
    *)
      echo "expected every fig7 warm setup to come off disk, got: '$SETUP_LINE'" >&2
      exit 1
      ;;
  esac
  cmp "$DIR/fig7-reference.jsonl" "$DIR/fig7-from-store.jsonl"
  echo "fig7 from the setup store reproduces the fresh path byte for byte"

  echo "--- fig7 seeds whose first monitor discovery fails still set up ---"
  # Algorithm 1 validates a set the spy never sees on these seeds; the
  # setup's one retry must recover them, or the sweep exits 1.
  for SEED in 228 355062; do
    "$BENCH" run fig7_window_sweep --set bits=64 --seed "$SEED" --seeds 1 \
      --quiet --json "$DIR/fig7-seed-$SEED.jsonl" > /dev/null
  done
  echo "fig7 seeds 228 and 355062 set up and transfer"

  rm -rf "$CAMPAIGN"  # keep manifests out of the artifact upload on success
  echo "CI OK (shard)"
  exit 0
elif [ "$STAGE" = "tsan" ]; then
  echo "=== thread-sanitized build (result ring) ==="
  DIR="$ROOT/build-ci-tsan"
  cmake -B "$DIR" -S "$ROOT" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMEECC_SANITIZE=thread
  cmake --build "$DIR" -j "$JOBS" \
    --target runtime_test campaign_test snapshot_test
  # The parallel suites that drive the result ring and the bed-pool stats
  # hard enough for TSan to see every worker/retirer pairing on the
  # per-trial result path; the window test wraps the ring many times.
  "$DIR/tests/runtime_test"
  "$DIR/tests/runtime_test" \
    --gtest_filter='Runner.TrialWindowBoundsRunAheadBehindAStalledTrial' \
    --gtest_repeat=5
  "$DIR/tests/campaign_test"
  "$DIR/tests/snapshot_test" --gtest_filter='Runner.*:BedPool.*'
  echo "CI OK (tsan)"
  exit 0
elif [ "$STAGE" = "load" ]; then
  echo "=== bounded-window gate under background load ==="
  DIR="$ROOT/build-ci-load"
  cmake -B "$DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMEECC_WERROR=ON
  cmake --build "$DIR" -j "$JOBS" --target runtime_test campaign_test
  # Two fig7 test processes repeating until killed keep the cores busy, so
  # the worker holding the oldest trial gets descheduled as it does under
  # a parallel ctest run.
  LOAD=()
  for _ in 1 2; do
    "$DIR/tests/runtime_test" --gtest_filter='Runner.Fig7*' \
      --gtest_repeat=-1 > /dev/null 2>&1 &
    LOAD+=("$!")
  done
  trap 'kill "${LOAD[@]}" 2> /dev/null || true; collect_artifacts' EXIT
  "$DIR/tests/campaign_test" \
    --gtest_filter='CampaignStreaming.HundredThousandTrialRssStaysFlat' \
    --gtest_repeat=50 --gtest_brief=1
  "$DIR/tests/runtime_test" \
    --gtest_filter='Runner.TrialWindowBoundsRunAheadBehindAStalledTrial' \
    --gtest_repeat=50 --gtest_brief=1
  echo "CI OK (load)"
  exit 0
elif [ "$STAGE" != "all" ]; then
  echo "unknown stage '$STAGE' (expected: all, hardened, perf, nosimd, shard, tsan, load)" >&2
  exit 2
fi

echo "=== plain build (warnings are errors) ==="
build_and_test "$ROOT/build-ci-plain" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMEECC_WERROR=ON

echo "=== sanitized build (ASan+UBSan) ==="
# UBSan reports are fatal: without halt_on_error a report is printed and the
# test still passes.
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
build_and_test "$ROOT/build-ci-asan" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMEECC_SANITIZE=ON

echo "=== sanitized observability pass ==="
# The obs hot paths (counter handles, trace emission) get an explicit
# sanitized run: UB here would silently skew every experiment's metrics.
"$ROOT/build-ci-asan/tests/obs_test"
unset UBSAN_OPTIONS

echo "=== runtime determinism smoke (counters ride in the JSONL) ==="
BENCH="$ROOT/build-ci-plain/bench/meecc_bench"
"$BENCH" run fig7_window_sweep --set bits=96 --seeds 4 --jobs 4 \
  --json "$ARTIFACTS/counters-j4.jsonl" --quiet > /dev/null
"$BENCH" run fig7_window_sweep --set bits=96 --seeds 4 --jobs 1 \
  --json "$ARTIFACTS/counters-j1.jsonl" --quiet > /dev/null
cmp "$ARTIFACTS/counters-j1.jsonl" "$ARTIFACTS/counters-j4.jsonl"
grep -q '"counters":{' "$ARTIFACTS/counters-j1.jsonl"
echo "jobs=1 and jobs=4 JSONL bit-identical ($(wc -l < "$ARTIFACTS/counters-j1.jsonl") trials, counters included)"
# fig7 shares one Algorithm 1 per seed across its windows; a run that sets
# every trial up on its own bed, and one that forks without recycling, must
# produce the same bytes.
"$BENCH" run fig7_window_sweep --set bits=96 --seeds 4 --jobs 4 \
  --no-reuse-setup --json "$ARTIFACTS/counters-fresh.jsonl" --quiet > /dev/null
cmp "$ARTIFACTS/counters-j1.jsonl" "$ARTIFACTS/counters-fresh.jsonl"
"$BENCH" run fig7_window_sweep --set bits=96 --seeds 4 --jobs 4 \
  --no-recycle-systems --json "$ARTIFACTS/counters-norecycle.jsonl" \
  --quiet > /dev/null
cmp "$ARTIFACTS/counters-j1.jsonl" "$ARTIFACTS/counters-norecycle.jsonl"
echo "fig7 JSONL identical with setup sharing and bed recycling on and off"

"$BENCH" list
rm -f "$ARTIFACTS"/counters-*.jsonl
echo "CI OK"
