#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh --seed N [--workload W] [--seconds S] [--trace 0|1] [--quick]
#
# One workload runs per process, so peak memory is per workload.  Without
# --workload the four workloads run one after the other.  The last line each
# process prints on standard output is its result as one JSON object.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# No --locked: the lock file must follow the repository's crates, which later
# changes may give new dependencies while this directory stays as it is.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/seda-benchmark"

if [[ " $* " == *" --workload "* ]]; then
    exec "$bin" "$@"
fi
for workload in factbook-olap mondial-links googlebase-flat recipeml-ingest; do
    "$bin" --workload "$workload" "$@"
done
