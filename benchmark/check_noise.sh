#!/usr/bin/env bash
# Two sets of runs of one build, the second with the workload order
# reversed, compared under the benchmark's own bounds: every end-to-end
# metric must agree within its bound in either direction, and the pure
# counts (transfers, write_amp, space_amp) must be bit-identical on the
# five workloads whose counts do not depend on thread timing.
#
#   benchmark/check_noise.sh            # writes results/noise_{a,b}.json
#
# Also checks that nothing under src/ names a library item the ROADMAP
# intends to delete (README, "Pinned API surface").
set -euo pipefail
cd "$(dirname "$0")"

gone='MergeKernel|RunFormation|Placement::(Striped|Srm|RandomizedCycling)|[Ff]usion|merge_sort_with_metrics|SortMetrics|forecast_(issued|hits)|partition_(passes|spilled_blocks)'
if grep -rnE "$gone" src; then
    echo "check_noise: src/ names an item the benchmark must not depend on" >&2
    exit 1
fi

cargo build --release --offline
embench="${CARGO_TARGET_DIR:-target}/release/embench"
"$embench" run --out results/noise_a.json
"$embench" run --reverse --out results/noise_b.json
"$embench" compare results/noise_a.json results/noise_b.json --same-code
