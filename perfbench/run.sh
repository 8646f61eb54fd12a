#!/usr/bin/env bash
# Build fixctl, fixd and the benchmark from source, then run one workload.
#
#   bash perfbench/run.sh --workload batch_dup|batch_novel|serve_mixed \
#       --seed N --seconds S --trace 0|1
#
# Run from anywhere; builds land in $CARGO_TARGET_DIR (default
# .bench_build at the repository root), scratch files and saved results
# in .perfbench/ at the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p fixctl -p fixd >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --bin-dir "$target/release" "$@"
