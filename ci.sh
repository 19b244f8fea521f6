#!/bin/bash
# Offline-safe CI gate: build, test, format, lint. The workspace has no
# external dependencies, so every step works with the network disabled.
set -eu
cd "$(dirname "$0")"

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
# the fxmap hasher feeds every hot map, the swar bit-twiddled argmax
# drives byte-lane victim selection, and the bucketrank slab arena
# (intrusive doubly-linked bucket lists behind the coarse fast lane)
# splices raw u32 indices; run their unit tests under Miri when the
# component exists, otherwise under an optimized build with debug
# assertions re-enabled so the debug_assert! bounds and invariant
# checks fire in release-equivalent codegen.
if cargo miri --version >/dev/null 2>&1; then
    cargo miri test -q -p cachesim -- ostree:: fxmap:: swar:: bucketrank::
else
    RUSTFLAGS="${RUSTFLAGS:-} -C debug-assertions=on" \
        cargo test -q --release --offline -p cachesim -- ostree:: fxmap:: swar:: bucketrank::
fi

echo "== bench_engine --smoke =="
# Throughput trajectory: sweep the full array × ranking × scheme grid,
# check the emitted file has every cell and a sane geomean (the validate
# step prints it into the CI log), and gate on the committed baseline —
# a >10% geomean drop vs BENCH_engine.json fails CI. The fresh run then
# replaces the trajectory file.
cargo run --release --offline -q -p fs-bench --bin bench_engine -- --smoke --out BENCH_engine.new.json
cargo run --release --offline -q -p fs-bench --bin bench_engine -- --validate BENCH_engine.new.json --against BENCH_engine.json
mv BENCH_engine.new.json BENCH_engine.json

echo "== bench_sharded --smoke (oracle + jobs-invariance + throughput gates) =="
# Sharded scale-out smoke: the sweep itself exits non-zero if any
# fs-feedback cell's measured miss rate drifts from the Che/Fagin
# oracle beyond the documented tolerance. The two deterministic
# outputs (validation + merged time-series CSVs) must then be
# byte-identical under a different worker count, and the throughput
# trajectory is gated against the committed baseline like bench_engine.
cargo run --release --offline -q -p fs-bench --bin bench_sharded -- --smoke --jobs 1 --out BENCH_sharded.new.json
cp results/sharded_validation.csv results/sharded_validation.jobs1.csv
cp results/sharded_timeseries.csv results/sharded_timeseries.jobs1.csv
cargo run --release --offline -q -p fs-bench --bin bench_sharded -- --smoke --jobs 3 --out BENCH_sharded.jobs3.json
cmp results/sharded_validation.csv results/sharded_validation.jobs1.csv
cmp results/sharded_timeseries.csv results/sharded_timeseries.jobs1.csv
rm results/sharded_validation.jobs1.csv results/sharded_timeseries.jobs1.csv BENCH_sharded.jobs3.json
cargo run --release --offline -q -p fs-bench --bin bench_sharded -- --validate BENCH_sharded.new.json --against BENCH_sharded.json
mv BENCH_sharded.new.json BENCH_sharded.json

echo "== tenancy_storm --smoke (QoS storm + golden hash + jobs-invariance gates) =="
# Multi-tenant QoS smoke: the bin itself exits non-zero unless
# fs-feedback holds the utility-re-solved targets tighter (pooled
# storm-phase occupancy MAD) than both Vantage and PriSM, and unless
# all three schemes saw the identical re-solve trajectory. The two
# CSVs must then be byte-identical under a different worker count, and
# both are pinned by golden content hashes — the closed loop (traffic,
# re-solves, enforcement) is fully deterministic, so any diff is a
# behavior change to re-pin deliberately.
cargo run --release --offline -q -p fs-bench --bin tenancy_storm -- --smoke --jobs 1
cp results/tenancy_storm.csv results/tenancy_storm.jobs1.csv
cp results/tenancy_storm_resolves.csv results/tenancy_storm_resolves.jobs1.csv
cargo run --release --offline -q -p fs-bench --bin tenancy_storm -- --smoke --jobs 3
cmp results/tenancy_storm.csv results/tenancy_storm.jobs1.csv
cmp results/tenancy_storm_resolves.csv results/tenancy_storm_resolves.jobs1.csv
rm results/tenancy_storm.jobs1.csv results/tenancy_storm_resolves.jobs1.csv
sha256sum -c - <<'GOLDEN'
0a73f2d9009270fa8a3516ebe89648e754715bfa68d63910fb703ec1f6b087ab  results/tenancy_storm.csv
ddb36dcde06cf81e09ab7e056540fbad4b6802a87dbc5c416f88dc734a953456  results/tenancy_storm_resolves.csv
GOLDEN

echo "== trace_dynamics --smoke =="
# Flight-recorder smoke: the time-series observability path end to end
# (recorder, scheme telemetry, CSV emission, ASCII rendering).
cargo run --release --offline -q -p fs-bench --bin trace_dynamics -- --smoke

echo "== checkpoint/resume replay gate (fig5 --smoke) =="
# Byte-identical replay proof at the binary level. Three runs of the
# same experiment in a scratch directory:
#   1. golden        — uninterrupted;
#   2. checkpointed  — --checkpoint-every: chunked with snapshots after
#                      every chunk, must be a pure observer;
#   3. interrupted   — stopped mid-run (--stop-after), then resumed from
#                      its checkpoint files, must land on the same CSVs.
# Both the figure CSV and the flight-recorder time series are compared
# byte for byte against the golden run.
CKPT_TMP=$(mktemp -d)
trap 'rm -rf "$CKPT_TMP"' EXIT
FIG5="$PWD/target/release/fig5"
(
    cd "$CKPT_TMP"
    "$FIG5" --smoke >/dev/null
    cp results/fig5_size_deviation.csv golden.csv
    cp results/fig5_size_deviation_timeseries.csv golden_ts.csv

    "$FIG5" --smoke --checkpoint-every 500 >/dev/null
    cmp results/fig5_size_deviation.csv golden.csv
    cmp results/fig5_size_deviation_timeseries.csv golden_ts.csv

    rm -rf results/checkpoints
    "$FIG5" --smoke --checkpoint-every 500 --stop-after 1000 >/dev/null
    mv results/checkpoints interrupted
    "$FIG5" --smoke --resume interrupted >/dev/null
    cmp results/fig5_size_deviation.csv golden.csv
    cmp results/fig5_size_deviation_timeseries.csv golden_ts.csv
)

echo "CI OK"
