#!/usr/bin/env bash
# The benchmark's entry point, as BENCHMARK.json names it:
#
#   bash crates/spine/bench.sh --workload W --seed N --seconds S --trace 0|1
#
# Builds the `spine` binary from the checkout this script sits in (offline,
# against the vendored dependency stand-ins, so the build never needs a
# registry and the seeded generators give the same streams everywhere),
# then runs one workload, one pass. Everything it writes lands under the
# cargo target directory.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/../.."
if [[ ! -f Cargo.toml || ! -f devstubs/offline.toml ]]; then
    echo "bench.sh: $(pwd) is not a checkout of the repository (no workspace to build)" >&2
    exit 2
fi

cargo --config devstubs/offline.toml build --release --offline --quiet -p spine --bin spine >&2
exec "${CARGO_TARGET_DIR:-target}/release/spine" bench "$@"
