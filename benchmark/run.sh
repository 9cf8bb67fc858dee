#!/usr/bin/env bash
# Build the benchmark from source and run it; see README.md in this directory.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh [--seed N] [--smoke]        every workload, one process each
#   benchmark/run.sh --aa [--seed N]             does the benchmark agree with itself?
#
# Reads and writes only inside the checkout: the build goes to
# $CARGO_TARGET_DIR (default benchmark/target), results, traces and the
# durable workloads' data directories to benchmark/out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Cargo's own output goes to stderr; stdout is the benchmark's alone.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" 1>&2
export RECDB_BENCH_OUT="${RECDB_BENCH_OUT:-$here/out}"
run=("$target/release/recdb-benchmark" "$@")

# The durable workloads fsync once per commit, and on a shared disk one
# fsync is 100 µs at one hour and 2.5 ms at another: 10 to 200 times the
# program's own 11 µs per insert. So their data goes on a tmpfs, mounted
# over benchmark/out/data in a mount namespace of this process's own: the
# path stays inside the checkout, nothing outside this process sees the
# mount, and it is gone when the process ends. Where that is not permitted
# (or RECDB_BENCH_DIR names another place) the data stays on whatever
# filesystem holds it; each run prints which.
if [ -z "${RECDB_BENCH_DIR:-}" ] && unshare -m true 2>/dev/null; then
    mkdir -p "$RECDB_BENCH_OUT/data"
    exec unshare -m sh -c 'mount -t tmpfs recdb-bench "$0" 2>/dev/null; exec "$@"' \
        "$RECDB_BENCH_OUT/data" "${run[@]}"
fi
exec "${run[@]}"
