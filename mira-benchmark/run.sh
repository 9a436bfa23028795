#!/usr/bin/env bash
# Runs mira-benchmark with the given arguments, building it first when
# its binary is missing or older than any source it is built from.
#
#   bash mira-benchmark/run.sh run --workload step_6x6 --seed 7
#
# `cargo run` is not used for every call: the provenance build script of
# mira-obs watches `.git/HEAD`, so outside a git checkout Cargo would
# rebuild most of the workspace on each call. The binary goes to
# $CARGO_TARGET_DIR, or mira-benchmark/target when that is unset.
set -euo pipefail
cd "$(dirname "$0")/.."
bin="${CARGO_TARGET_DIR:-mira-benchmark/target}/release/mira-benchmark"
sources=(Cargo.toml Cargo.lock BENCHMARK.json src crates vendor mira-benchmark)
if [ ! -x "$bin" ] || [ -n "$(find "${sources[@]}" -newer "$bin" -type f \
        -not -path '*/target/*' -print -quit 2>/dev/null)" ]; then
    cargo build --quiet --release --offline --manifest-path mira-benchmark/Cargo.toml
fi
exec "$bin" "$@"
