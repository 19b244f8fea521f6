#!/bin/bash
# Offline-safe CI gate: build, test, format, lint. The workspace has no
# external dependencies, so every step works with the network disabled.
set -eu
cd "$(dirname "$0")"

# CI must leave the tree as it found it: the listing is compared with
# a fresh one after the last step.
TREE_BEFORE=$(git status --porcelain)

echo "== cargo build --release =="
cargo build --release --offline --workspace

echo "== cargo test -q =="
cargo test -q --offline --workspace

echo "== perfbench tests (a package outside the workspace) =="
# The benchmark builds the crates through path dependencies of its own
# manifest, so the workspace steps above never compile it; an API change
# that breaks it must fail here, not first in a benchmark run.
CARGO_TARGET_DIR=.bench_build cargo test --offline --manifest-path crates/bench/src/bin/perfbench/Cargo.toml

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy -D warnings =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== unsafe-adjacent structure checks (miri or debug-assertions) =="
# The arena-backed treaps (ostree) use unchecked indexing in release,
# the fxmap hasher feeds every hot map, and the recency index (ranking
# crate: stamp bitmaps, Fenwick trees, in-place compaction) renumbers
# stamps in place; run their unit tests under Miri when the component
# exists, otherwise under an optimized build with debug assertions re-enabled
# so the debug_assert! bounds and invariant checks fire in
# release-equivalent codegen.
if cargo miri --version >/dev/null 2>&1; then
    cargo miri test -q -p cachesim -p ranking -- ostree:: fxmap:: recency::
else
    RUSTFLAGS="${RUSTFLAGS:-} -C debug-assertions=on" \
        cargo test -q --release --offline -p cachesim -p ranking -- ostree:: fxmap:: recency::
fi

# The smoke bins write results/ relative to the working directory, and
# the committed results/*.csv are Full-scale outputs; every step that
# writes results/ therefore runs in a scratch directory, so CI leaves
# the tree as it found it.
CI_TMP=$(mktemp -d)
trap 'rm -rf "$CI_TMP"' EXIT
BIN="$PWD/target/release"

echo "== bench_sharded --smoke (oracle + jobs-invariance gates) =="
# Sharded scale-out smoke: the sweep itself exits non-zero if any
# fs-feedback cell's measured miss rate drifts from the Che/Fagin
# oracle beyond the documented tolerance. The two deterministic
# outputs (validation + merged time-series CSVs) must then be
# byte-identical under a different worker count.
(
    cd "$CI_TMP"
    "$BIN/bench_sharded" --smoke --jobs 1
    cp results/sharded_validation.csv sharded_validation.jobs1.csv
    cp results/sharded_timeseries.csv sharded_timeseries.jobs1.csv
    "$BIN/bench_sharded" --smoke --jobs 3
    cmp results/sharded_validation.csv sharded_validation.jobs1.csv
    cmp results/sharded_timeseries.csv sharded_timeseries.jobs1.csv
)

echo "== tenancy_storm --smoke (QoS storm + golden hash + jobs-invariance gates) =="
# Multi-tenant QoS smoke: the bin itself exits non-zero unless
# fs-feedback holds the utility-re-solved targets tighter (pooled
# storm-phase occupancy MAD) than both Vantage and PriSM, and unless
# all three schemes saw the identical re-solve trajectory. The two
# CSVs must then be byte-identical under a different worker count, and
# both are pinned by golden content hashes — the closed loop (traffic,
# re-solves, enforcement) is fully deterministic, so any diff is a
# behavior change to re-pin deliberately.
(
    cd "$CI_TMP"
    "$BIN/tenancy_storm" --smoke --jobs 1
    cp results/tenancy_storm.csv tenancy_storm.jobs1.csv
    cp results/tenancy_storm_resolves.csv tenancy_storm_resolves.jobs1.csv
    "$BIN/tenancy_storm" --smoke --jobs 3
    cmp results/tenancy_storm.csv tenancy_storm.jobs1.csv
    cmp results/tenancy_storm_resolves.csv tenancy_storm_resolves.jobs1.csv
    sha256sum -c - <<'GOLDEN'
0a73f2d9009270fa8a3516ebe89648e754715bfa68d63910fb703ec1f6b087ab  results/tenancy_storm.csv
ddb36dcde06cf81e09ab7e056540fbad4b6802a87dbc5c416f88dc734a953456  results/tenancy_storm_resolves.csv
GOLDEN
)

echo "== trace_dynamics --smoke =="
# Flight-recorder smoke: the time-series observability path end to end
# (recorder, scheme telemetry, CSV emission, ASCII rendering).
(cd "$CI_TMP" && "$BIN/trace_dynamics" --smoke)

echo "== checkpoint/resume replay gate (fig5 --smoke) =="
# Byte-identical replay proof at the binary level. Three runs of the
# same experiment in the scratch directory:
#   1. golden        — uninterrupted;
#   2. checkpointed  — --checkpoint-every: chunked with snapshots after
#                      every chunk, must be a pure observer;
#   3. interrupted   — stopped mid-run (--stop-after), then resumed from
#                      its checkpoint files, must land on the same CSVs.
# Both the figure CSV and the flight-recorder time series are compared
# byte for byte against the golden run.
(
    cd "$CI_TMP"
    "$BIN/fig5" --smoke >/dev/null
    cp results/fig5_size_deviation.csv golden.csv
    cp results/fig5_size_deviation_timeseries.csv golden_ts.csv

    "$BIN/fig5" --smoke --checkpoint-every 500 >/dev/null
    cmp results/fig5_size_deviation.csv golden.csv
    cmp results/fig5_size_deviation_timeseries.csv golden_ts.csv

    rm -rf results/checkpoints
    "$BIN/fig5" --smoke --checkpoint-every 500 --stop-after 1000 >/dev/null
    mv results/checkpoints interrupted
    "$BIN/fig5" --smoke --resume interrupted >/dev/null
    cmp results/fig5_size_deviation.csv golden.csv
    cmp results/fig5_size_deviation_timeseries.csv golden_ts.csv
)

# The benchmark, built and run by BENCHMARK.json's own command (into the
# target directory of the perfbench test step above).
perfbench() {
    CARGO_TARGET_DIR=.bench_build cargo run --release --offline --quiet \
        --manifest-path crates/bench/src/bin/perfbench/Cargo.toml -- "$@"
}

echo "== perfbench work gate (--smoke, exact) =="
# The work each layer does per access, from perfbench's traced smoke
# run: every `.calls` count, candidates per miss, the byte-lane share
# (0 since the engine's byte lane was retired; perfbench still reports
# it), retags per miss, shard imbalance, and the simulated miss ratio and
# size MAD, for each workload. They are counts over fixed work, so they
# repeat exactly and are gated on equality, with no noise band. A
# change that moves work re-pins results/perfbench_work.txt on purpose
# and says why in CHANGES.md.
# Pin the file from this release build: a debug build counts one more
# `array.probe` per retag, because `apply_retag`'s debug_assert_eq!
# reads `occupant` through the traced wrapper.
perfbench --smoke > "$CI_TMP/smoke.txt"
grep -E '^[a-z]+ ([a-z_.]+\.calls|[a-z_.]+\.(cands_per_miss|byte_lane_frac|retags_per_miss)|sharded\.imbalance|miss_ratio|size_mad_lines) ' \
    "$CI_TMP/smoke.txt" > "$CI_TMP/work.txt"
if ! cmp -s results/perfbench_work.txt "$CI_TMP/work.txt"; then
    echo "WORK GATE FAILED: work per access moved (workload layer: pinned -> now)"
    awk 'NR == FNR { pinned[$1 " " $2] = $3; next }
         { key = $1 " " $2; seen[key] = 1
           if (!(key in pinned)) print "  " key ": new -> " $3
           else if (pinned[key] "" != $3 "") print "  " key ": " pinned[key] " -> " $3 }
         END { for (key in pinned) if (!(key in seen)) print "  " key ": " pinned[key] " -> missing" }' \
        results/perfbench_work.txt "$CI_TMP/work.txt"
    exit 1
fi
echo "$(wc -l < "$CI_TMP/work.txt") work lines match results/perfbench_work.txt"

echo "== perfbench timing gate (end-to-end metric medians vs the committed A/A medians) =="
# Three untraced suite runs at BENCHMARK.json's run_seconds (`--aa 3`:
# seeds 1..3, each metric's median, q1 and q3). Each end-to-end metric
# fails when its median is worse than the median of
# results/perfbench_baseline.txt (a `perfbench --aa 5 --seconds 15`
# table) by more than its BENCHMARK.json bound, in the metric's
# `better` direction: the bounds were sized for medians, and a single
# run's tail latency and set-up time follow the host's swings. Host
# times are normalised to nominal host speed by perfbench itself. Any
# failed perfbench check fails the gate too. Each workload's host_speed
# is printed next to the baseline's, and a failure prints the whole
# table, so a slow host can be told apart from a regression afterwards.
RUN_S=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
perfbench --aa 3 --seconds "$RUN_S" > "$CI_TMP/timing.txt"
timing_failed() {
    if [ $# -gt 0 ]; then echo "$1"; fi
    echo "perfbench --aa 3 table of this run:"
    cat "$CI_TMP/timing.txt"
    exit 1
}
echo "host_speed median (q1-q3) of this run vs the baseline's:"
awk 'FILENAME == ARGV[1] { if ($2 == "host_speed") base[$1] = sprintf("%.3f (%.3f-%.3f)", $3, $4, $5); next }
     $2 == "host_speed" { printf "  %-9s %.3f (%.3f-%.3f) vs %s\n", $1, $3, $4, $5, base[$1] }' \
    results/perfbench_baseline.txt "$CI_TMP/timing.txt"
if awk '$2 == "check_failures" && $5 != 0 { bad = 1 } END { exit !bad }' "$CI_TMP/timing.txt"; then
    timing_failed "TIMING GATE FAILED: a perfbench check failed in one of the runs"
fi
awk 'function field(s, key,   i, v) {
         i = index(s, "\"" key "\":")
         if (!i) return ""
         v = substr(s, i + length(key) + 3)
         sub(/^ *"?/, "", v)
         sub(/["},].*$/, "", v)
         return v
     }
     FILENAME == ARGV[1] {
         if (index($0, "\"bound\"")) {
             m = field($0, "name"); better[m] = field($0, "better"); bound[m] = field($0, "bound")
         }
         next
     }
     FILENAME == ARGV[2] { if ($2 in bound) { med[$1 " " $2] = $3; n++ } next }
     ($2 in bound) && (($1 " " $2) in med) {
         key = $1 " " $2; m = $2; base = med[key]; seen++
         worse = (better[m] == "higher") ? ($3 < base * (1 - bound[m])) : ($3 > base * (1 + bound[m]))
         change = base != 0 ? ($3 / base - 1) * 100 : 0
         printf "  %-9s %-16s %14.6g vs median %14.6g  %+7.1f%%  (bound %s, %s is better)%s\n",
             $1, m, $3, base, change, bound[m], better[m], worse ? "  WORSE" : ""
         bad += worse
     }
     END {
         if (n == 0 || seen != n) { print "TIMING GATE FAILED: " seen " of " n " baseline metrics reported"; exit 1 }
         if (bad) { print "TIMING GATE FAILED: " bad " metric(s) worse than the baseline by more than their bound"; exit 1 }
     }' BENCHMARK.json results/perfbench_baseline.txt "$CI_TMP/timing.txt" || timing_failed

echo "== tree unchanged (git status --porcelain) =="
TREE_AFTER=$(git status --porcelain)
if [ "$TREE_AFTER" != "$TREE_BEFORE" ]; then
    echo "TREE CHECK FAILED: the steps above changed the working tree"
    echo "git status --porcelain before the first step:"
    printf '%s\n' "$TREE_BEFORE"
    echo "git status --porcelain after the last step:"
    printf '%s\n' "$TREE_AFTER"
    exit 1
fi

echo "CI OK"
