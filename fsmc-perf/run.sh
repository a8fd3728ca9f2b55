#!/usr/bin/env bash
# Builds fsmc-perf and the `fsmc` binary it drives from source, then runs
# fsmc-perf with the given arguments. Run from the repository root.
# Build output goes to stderr, so the last line of stdout stays the
# result object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/fsmc-perf" "$@"
