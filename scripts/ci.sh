#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, clippy-clean with all
# warnings denied. Run from the repository root; works fully offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

# The phase engine must produce identical results at every thread
# count; exercise the whole suite serialized and parallelized.
for threads in 1 4; do
    echo "==> cargo test (BGP_SIM_THREADS=$threads)"
    BGP_SIM_THREADS=$threads cargo test -q --workspace
done

echo "==> golden oracle under the fat-LTO release profile"
cargo test -q --release --test golden_export

echo "==> perfbench self-tests (every workload's digest is committed; timing wrapper is exact)"
cargo test -q --release --manifest-path perfbench/Cargo.toml

echo "==> determinism full matrix"
cargo test -q --release --test determinism -- --ignored

echo "==> trace smoke (bgpc-run --trace over a 4-node job + bgpc-dump --json)"
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
target/release/bgpc-run --out "$trace_dir" --kernel mg --class s --ranks 16 \
    --mode vnm --trace --slots 0,1,2
test -s "$trace_dir/trace.json" || { echo "trace smoke: empty trace.json"; exit 1; }
test -s "$trace_dir/phases.csv" || { echo "trace smoke: empty phases.csv"; exit 1; }
target/release/bgpc-dump "$trace_dir" --json > "$trace_dir/stats.json"
test -s "$trace_dir/stats.json" || { echo "trace smoke: empty stats.json"; exit 1; }

echo "==> trace overhead gate (disabled tracing < 1%)"
# BGP_BENCH_DIR keeps the quick-scale gate from clobbering the
# committed Default-scale BENCH_trace.json at the repo root.
BGP_RESULTS_DIR="$trace_dir" BGP_BENCH_DIR="$trace_dir" \
    target/release/repro_all fig_ext_trace_overhead --quick --gate

echo "==> batched memory engine gate (mem_ops >= 1.5x mem_op)"
BGP_RESULTS_DIR="$trace_dir" target/release/repro_all fig_ext_memthroughput --quick --gate

echo "==> event validation gate (exact events bit-for-bit, mux dumps thread-invariant)"
# Quick scale gates exactness + determinism; the reconstruction-quality
# bounds (median error, coverage) are asserted at Default scale, where
# the committed BENCH_validation.json is produced.
BGP_RESULTS_DIR="$trace_dir" BGP_BENCH_DIR="$trace_dir" \
    target/release/repro_all fig_ext_validation --quick --gate

echo "==> checkpoint/restart smoke (crash MG S mid-run, resume, byte-diff)"
ck_dir="$trace_dir/ck"
target/release/bgpc-run --out "$ck_dir/reference" --kernel mg --class s --ranks 8 \
    --mode vnm --threads 1 --trace
# Crash drill: die deterministically at phase 40 with retries disabled;
# the process must exit non-zero and leave snapshots behind.
if target/release/bgpc-run --out "$ck_dir/crashed" --kernel mg --class s --ranks 8 \
    --mode vnm --threads 1 --trace --checkpoint-every 8 --crash-at-phase 40 \
    --max-retries 0; then
    echo "checkpoint smoke: crash drill unexpectedly succeeded"; exit 1
fi
test -n "$(ls "$ck_dir/crashed/checkpoints" 2>/dev/null)" \
    || { echo "checkpoint smoke: crash left no snapshots"; exit 1; }
# Resume from the snapshots in a fresh process and byte-diff every
# output surface against the uninterrupted reference.
target/release/bgpc-run --out "$ck_dir/crashed" --kernel mg --class s --ranks 8 \
    --mode vnm --threads 1 --trace --resume "$ck_dir/crashed/checkpoints"
diff -r --exclude=checkpoints "$ck_dir/reference" "$ck_dir/crashed" \
    || { echo "checkpoint smoke: resumed outputs diverge from reference"; exit 1; }

echo "==> counter service smoke (bgpc-serve + bgpc-load: hit byte-identity, drain, shutdown)"
svc_dir="$trace_dir/svc"
mkdir -p "$svc_dir"
target/release/bgpc-serve --addr 127.0.0.1:0 --addr-file "$svc_dir/addr" \
    --workers 2 --quiet &
svc_pid=$!
for _ in $(seq 50); do test -s "$svc_dir/addr" && break; sleep 0.1; done
test -s "$svc_dir/addr" || { echo "service smoke: daemon never published its address"; exit 1; }
svc_addr="$(cat "$svc_dir/addr")"
# Same job twice: the first run is a miss, the replay must be a cache
# hit carrying byte-identical result bytes.
target/release/bgpc-load --addr "$svc_addr" --once --seed 11 --out "$svc_dir/first" \
    | grep -q '^miss' || { echo "service smoke: first submit was not a miss"; exit 1; }
target/release/bgpc-load --addr "$svc_addr" --once --seed 11 --out "$svc_dir/second" \
    | grep -q '^hit' || { echo "service smoke: replay was not a cache hit"; exit 1; }
cmp "$svc_dir/first" "$svc_dir/second" \
    || { echo "service smoke: cache hit is not byte-identical"; exit 1; }
# Drain: cached keys still served, new work refused, then clean shutdown.
target/release/bgpc-load --addr "$svc_addr" --admin drain | grep -q '"draining":true' \
    || { echo "service smoke: drain not acknowledged"; exit 1; }
target/release/bgpc-load --addr "$svc_addr" --once --seed 11 --out "$svc_dir/drained" \
    | grep -q '^hit' || { echo "service smoke: drained daemon dropped a cache hit"; exit 1; }
cmp "$svc_dir/first" "$svc_dir/drained" \
    || { echo "service smoke: post-drain hit is not byte-identical"; exit 1; }
if target/release/bgpc-load --addr "$svc_addr" --once --seed 12 2>/dev/null; then
    echo "service smoke: draining daemon accepted new work"; exit 1
fi
target/release/bgpc-load --addr "$svc_addr" --admin shutdown | grep -q '"shutdown":true' \
    || { echo "service smoke: shutdown not acknowledged"; exit 1; }
wait "$svc_pid" || { echo "service smoke: daemon exited non-zero"; exit 1; }

echo "==> counter service load gate (quick scale: 2k requests, byte-identical replays)"
BGP_RESULTS_DIR="$trace_dir" BGP_BENCH_DIR="$trace_dir" \
    target/release/repro_all fig_ext_service --quick --gate

echo "==> full-machine scaling gate (73,728 nodes / 294,912 ranks, <= 10 KB/rank)"
# Runs at Default scale so the 73k-node smoke actually executes; the
# figure asserts verification and the gate the per-rank RSS budget (~10 s).
# BGP_BENCH_DIR sends its record to the temp dir: the committed
# BENCH_fullmachine.json is regenerated deliberately, not by CI.
BGP_RESULTS_DIR="$trace_dir" BGP_BENCH_DIR="$trace_dir" \
    target/release/repro_all fig_ext_fullmachine --gate

echo "==> snapshot overhead gate (checkpoint every 64 phases < 5%, Default scale)"
# Runs at Default scale (MG class A), where the gate is meant to hold;
# ~1 min. The record goes to the temp dir, as for the full-machine step.
BGP_RESULTS_DIR="$trace_dir" BGP_BENCH_DIR="$trace_dir" \
    target/release/repro_all fig_ext_snapshot --gate

echo "==> cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "ci: all green"
