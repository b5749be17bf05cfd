#!/usr/bin/env bash
# The benchmark's single entry point. Builds the package, then:
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload (the driver's contract): the last line
#       of stdout is {"correct":…,"attempted":…,"failed":…,"metrics":{…}}
#   run.sh [--seed N] [--out FILE] [--seconds S]
#       the whole suite: every workload round-robin for 3 rounds with tracing off,
#       then one traced pass each; prints `name workload value unit`,
#       exits 1 if any operation failed
#   run.sh compare A.json B.json     two --out files, metric by metric
#   run.sh manifest                  print BENCHMARK.json
#   run.sh --lint                    cargo fmt --check + clippy -D warnings
#   run.sh --test                    the package's unit tests
#
# Everything it writes lands in CARGO_TARGET_DIR (default: the
# repository's target/) and in benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
# A steady allocator, so that peak_rss_mb repeats. With glibc's default
# of eight arenas per core the daemon's worker threads land in other
# arenas from run to run: identical serve_hit work read 5.4 to 6.1 MB,
# with one arena 4.9 to 5.1 MB (every run is pinned to one CPU, so
# nothing contends for it). And glibc raises its mmap threshold as large
# blocks are freed, after which the peak depends on the order the
# instances ran in: map_exact read 10.9 or 12.7 MB by seed, with the
# threshold held at its initial 128 KiB 10.8 to 11.0 MB.
export MALLOC_ARENA_MAX=1 MALLOC_MMAP_THRESHOLD_=131072
manifest="$here/Cargo.toml"

case "${1:-}" in
    --lint)
        cargo fmt --manifest-path "$manifest" -- --check
        cargo clippy --offline --release --manifest-path "$manifest" --all-targets -- -D warnings
        exit 0
        ;;
    --test)
        exec cargo test --offline --release --manifest-path "$manifest"
        ;;
esac

started=$(date +%s%N)
cargo build --offline --release --manifest-path "$manifest" 1>&2
ms=$(( ($(date +%s%N) - started) / 1000000 ))
printf 'cargo build: %d.%03d s\n' $((ms / 1000)) $((ms % 1000)) >&2

bin="$target/release/cgra-benchmark"
case "${1:-}" in
    compare | manifest)
        exec "$bin" "$@"
        ;;
esac
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" run "$@" --scratch "$here/out"
    fi
done
exec "$bin" suite "$@" --scratch "$here/out"
