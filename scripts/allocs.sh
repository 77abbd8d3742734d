#!/usr/bin/env bash
# allocs.sh — who allocates what in one of the allocation-budget tests:
#
#   ./scripts/allocs.sh TestAllocsPerTaskBudget/plain ./internal/core/
#   ./scripts/allocs.sh TestTreeHopAllocBudget ./internal/forward/
#
# Runs the test with every allocation sampled (-memprofilerate=1) and prints
# the objects allocated per function, most first, then the bytes: the
# per-function ledgers EXPERIMENTS.md quotes, without a patched copy of
# benchmark/. Counts cover the whole test (boot, warm-up, every measured
# batch), so divide by the tasks it ran, not by one batch. The test binary and
# the profile go to a temporary directory that is removed afterwards.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <test-regexp> <package>" >&2
    exit 2
fi
cd "$(dirname "$0")/.."

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
go test -run "$1" -count=1 -o "$out/test.bin" -memprofile "$out/mem.prof" -memprofilerate=1 "$2"
for index in alloc_objects alloc_space; do
    go tool pprof -sample_index=$index -top -nodecount=40 "$out/test.bin" "$out/mem.prof"
done
