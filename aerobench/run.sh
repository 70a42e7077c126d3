#!/usr/bin/env bash
# Build the programs under test (the workspace binaries) and the aerobench
# binary into one target directory, then run aerobench with the given
# arguments. Run from the repository root:
#
#   bash aerobench/run.sh --workload serve-point --seed 1 --seconds 15 --trace 0
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --workspace --bins --target-dir "$target"
cargo build --release --quiet --manifest-path aerobench/Cargo.toml --target-dir "$target"
exec "$target/release/aerobench" "$@"
