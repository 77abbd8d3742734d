#!/usr/bin/env bash
# benchdiff.sh — does a change leave the reproduction's numbers alone? Runs
# every falkon-bench experiment that both a revision and the working tree
# register, at scale 1 with plots, and diffs the two outputs.
#
#   ./scripts/benchdiff.sh HEAD       # the working tree against HEAD
#   ./scripts/benchdiff.sh HEAD~3
#
# Side A is <rev> as committed, exported with `git archive` into a temporary
# directory (as pairs.sh does); side B is the working tree. Each side builds
# its own falkon-bench. The experiments run on virtual-time models, so their
# output is the same on every machine: any line of the diff is a change to a
# model or a driver. It prints the IDs only one side registers, then the
# diff, and exits 1 if the outputs differ.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <rev>" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
commit=$(git -C "$root" rev-parse --short "$1")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/a"
git -C "$root" archive "$commit" | tar -x -C "$tmp/a"

(cd "$tmp/a" && go build -o "$tmp/bench-a" ./cmd/falkon-bench)
(cd "$root" && go build -o "$tmp/bench-b" ./cmd/falkon-bench)

# -list prints one experiment a line, its ID first.
"$tmp/bench-a" -list | awk '{ print $1 }' | sort >"$tmp/ids-a"
"$tmp/bench-b" -list | awk '{ print $1 }' | sort >"$tmp/ids-b"
comm -23 "$tmp/ids-a" "$tmp/ids-b" | sed "s/^/only in $commit: /"
comm -13 "$tmp/ids-a" "$tmp/ids-b" | sed 's/^/only in the working tree: /'
ids=$(comm -12 "$tmp/ids-a" "$tmp/ids-b" | paste -sd, -)

"$tmp/bench-a" -scale 1 -plot -experiment "$ids" >"$tmp/out-a"
"$tmp/bench-b" -scale 1 -plot -experiment "$ids" >"$tmp/out-b"
n=$(comm -12 "$tmp/ids-a" "$tmp/ids-b" | wc -l)
if diff -u --label "$commit" --label "working tree" "$tmp/out-a" "$tmp/out-b"; then
    echo "benchdiff: $n experiments, no difference from $commit"
else
    echo "benchdiff: $n experiments, output differs from $commit" >&2
    exit 1
fi
