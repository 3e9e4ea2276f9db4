#!/bin/sh
# Regenerate the golden-stats JSON files under tests/goldens/.
#
# Run this after an *intentional* simulator behaviour change, review the
# resulting diff (every changed counter should be explainable by your
# change), and commit the JSON files together with the code.
#
# Usage: tools/update_goldens.sh [build-dir]   (default: build)
set -eu

cd "$(dirname "$0")/.."
build="${1:-build}"

for t in test_golden test_sampling test_simspeed; do
    if [ ! -x "$build/tests/$t" ]; then
        echo "error: $build/tests/$t not built." >&2
        echo "  cmake -B $build -S . && cmake --build $build -j" >&2
        exit 1
    fi
done

BERTI_UPDATE_GOLDENS=1 "$build/tests/test_golden" \
    --gtest_filter='Matrix/GoldenTest.*'

# The workload-identity table (workload_hashes.txt): hashes of every
# registered workload's first instructions and of the registry graphs.
BERTI_UPDATE_GOLDENS=1 "$build/tests/test_golden" \
    --gtest_filter='WorkloadIdentity.*'

# The sampled-interval sidecars (*.sampled.json) live in the same
# directory and regenerate the same way.
BERTI_UPDATE_GOLDENS=1 "$build/tests/test_sampling" \
    --gtest_filter='Matrix/SampledGoldenTest.*'

# The MSHR-starved machine-wide stats (*.mshr-starved.json) too.
BERTI_UPDATE_GOLDENS=1 "$build/tests/test_simspeed" \
    --gtest_filter='MshrStarvation.CellsMatchGoldens*'

echo "goldens updated:"
git status --short tests/goldens/ || ls tests/goldens/
