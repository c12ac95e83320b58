#!/usr/bin/env bash
# Build the spine benchmark offline and run it.
#
#   spine/run.sh                      all six workloads, seed 11
#   spine/run.sh --seed 7 --trace     ... plus the traced set and layer tables
#   spine/run.sh --check-agreement    two sets on one build must agree
#   spine/run.sh --smoke              a few ops of everything, oracle + trace
#   spine/run.sh --workload warm.scan --seed 3 --seconds 10 --trace 0
#                                     one workload, ending in the one-line
#                                     JSON result of BENCHMARK.json's contract
#
# Build output goes to $CARGO_TARGET_DIR when set, else to target/spine/ at
# the repository root; everything a run writes stays under that directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$(dirname "$here")/target/spine}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
export SPINE_WORK="$target/spine-work"

# The layer probes are a target of their own: built only for a traced run,
# so a probe broken by a layer's API change cannot stop an untraced one.
bins=(--bin spine)
prev=""
for arg in "$@"; do
    case "$arg" in
    --trace | --smoke) bins=(--bin spine --bin spine-trace) ;;
    0) if [[ "$prev" == "--trace" ]]; then bins=(--bin spine); fi ;;
    esac
    prev="$arg"
done

cargo build --release --offline --manifest-path "$here/Cargo.toml" "${bins[@]}" >&2
exec "$target/release/spine" "$@"
