#!/usr/bin/env bash
# Runs the micro-benchmarks and rewrites BENCH_pipeline.json from scratch.
#
# Each bench binary appends JSON-lines records (one object per benchmark:
# name, median/p95 ns per iteration, samples, throughput) to the file —
# append is required so several bench binaries in one `cargo bench` run
# can share the file, but it also means the file grows without bound
# across invocations. Truncating (not deleting) it at the start of every
# run keeps exactly one fresh snapshot per invocation while preserving
# the file's inode for anything tailing it.
# Knobs: WEBRE_BENCH_SAMPLES, WEBRE_BENCH_SAMPLE_MS (see webre-substrate's
# bench module docs).

set -euo pipefail
cd "$(dirname "$0")/.."

# Resolve to an absolute path: bench binaries run with the bench crate's
# directory as CWD, so a relative path would land inside crates/bench/.
out="${WEBRE_BENCH_OUT:-$PWD/BENCH_pipeline.json}"
case "$out" in
    /*) ;;
    *) out="$PWD/$out" ;;
esac
: > "$out"
WEBRE_BENCH_OUT="$out" cargo bench -p webre-bench "$@"
echo "==> $(wc -l <"$out") benchmark record(s) in $out"

# Serving throughput: a live webre-serve instance hammered over TCP by
# concurrent keep-alive clients; replaces its one JSON record per
# scenario by name and keeps every other record in the file.
serve_out="${WEBRE_BENCH_SERVE_OUT:-$PWD/BENCH_serve.json}"
case "$serve_out" in
    /*) ;;
    *) serve_out="$PWD/$serve_out" ;;
esac
WEBRE_BENCH_SERVE_OUT="$serve_out" cargo run --release -p webre-bench --bin serve_throughput
echo "==> serve benchmark record(s) in $serve_out"

# C10k load soak: `webre load` drives 10k mixed-fault connections (hot,
# cold, slow-loris, oversized, abrupt disconnects) against a spawned
# serve instance and replaces the serve_load record of the serve
# snapshot by name, so the file holds exactly one soak. The command exits
# non-zero if any liveness postcondition fails (hung worker, unreaped
# loris, accounting drift), so a broken serve core fails the bench run
# outright rather than committing a bad-looking number.
# WEBRE_BENCH_LOAD_CONNS trims the soak for quick local runs.
ulimit -n 20000 2>/dev/null || true
load_conns="${WEBRE_BENCH_LOAD_CONNS:-10000}"
cargo build --release -q -p webre
./target/release/webre load --connections "$load_conns" \
    --loris "$((load_conns / 5))" --duration 5 --bench-out "$serve_out"
echo "==> load soak record written to $serve_out"

# Mapping throughput: the tiered planner over a mixed synthetic corpus
# at growing sizes, filter on vs off; one JSON record per scale with the
# measured speedup (the regression guard holds the 100x floor).
map_out="${WEBRE_BENCH_MAP_OUT:-$PWD/BENCH_map.json}"
case "$map_out" in
    /*) ;;
    *) map_out="$PWD/$map_out" ;;
esac
WEBRE_BENCH_MAP_OUT="$map_out" cargo run --release -p webre-bench --bin map_throughput
echo "==> map benchmark record(s) in $map_out"

# Lint throughput: the flow-sensitive lint engine over the workspace's
# own sources, all nine rules; one JSON record with the median wall
# time, files/s and the finding count (which must be zero — the same
# invariant verify.sh gates on).
lint_out="${WEBRE_BENCH_LINT_OUT:-$PWD/BENCH_lint.json}"
case "$lint_out" in
    /*) ;;
    *) lint_out="$PWD/$lint_out" ;;
esac
WEBRE_BENCH_LINT_OUT="$lint_out" cargo run --release -p webre-bench --bin lint_throughput
echo "==> lint benchmark record(s) in $lint_out"

# Observability overhead: full pipeline runs with tracing disabled vs the
# stats recorder vs the full trace recorder; the summary record holds the
# overhead percentages against the <3% target.
obs_out="${WEBRE_BENCH_OBS_OUT:-$PWD/BENCH_obs.json}"
case "$obs_out" in
    /*) ;;
    *) obs_out="$PWD/$obs_out" ;;
esac
WEBRE_BENCH_OBS_OUT="$obs_out" cargo run --release -p webre-bench --bin obs_overhead
echo "==> observability benchmark record(s) in $obs_out"

# Distributed ingest at scale: `webre scale` spawns several serve
# instances, streams synthetic XML documents through a consistent-hash
# router with checkpointed merged ≡ batch verification, and reports
# docs/s, time-to-fresh-schema and WAL replay time as one JSON record.
# WEBRE_BENCH_SCALE_DOCS trims the stream for quick local runs.
scale_out="${WEBRE_BENCH_SCALE_OUT:-$PWD/BENCH_scale.json}"
case "$scale_out" in
    /*) ;;
    *) scale_out="$PWD/$scale_out" ;;
esac
scale_docs="${WEBRE_BENCH_SCALE_DOCS:-1000000}"
scale_dir=$(mktemp -d)
cargo build --release -q -p webre
./target/release/webre scale --instances 2 --docs "$scale_docs" \
    --data-dir "$scale_dir/corpus" > "$scale_out"
rm -rf "$scale_dir"
echo "==> scale benchmark record(s) in $scale_out"

# Append the headline conversion numbers — convert/* throughput and cold
# /convert rps — to an append-only dated history, so trend lines across
# runs survive the snapshot files being rewritten from scratch. Unlike
# the snapshots this file is never truncated.
history="${WEBRE_BENCH_HISTORY:-$PWD/BENCH_history.jsonl}"
case "$history" in
    /*) ;;
    *) history="$PWD/$history" ;;
esac
stamp="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
{
    grep '"bench":"convert/' "$out" || true
    grep '"name":"serve_convert_cold"' "$serve_out" || true
    grep '"name":"map_throughput/100x"' "$map_out" || true
    grep '"name":"lint_throughput"' "$lint_out" || true
    grep '"bench":"corpus_scale"' "$scale_out" || true
} | sed "s/^{/{\"date\":\"$stamp\",/" >> "$history"
echo "==> $(wc -l <"$history") dated record(s) in $history"
