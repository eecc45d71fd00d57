#!/usr/bin/env bash
# Build the benchmark (and the parsl-worker beside it) from source, then
# run it with the given arguments. Cargo's own output goes to stderr, so
# the last line of stdout is the runner's result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/parsl_bench" "$@"
