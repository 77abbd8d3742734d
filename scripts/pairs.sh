#!/usr/bin/env bash
# pairs.sh — a performance claim decided by one command: alternating pairs of
# the repo benchmark, a revision against the working tree.
#
#   ./scripts/pairs.sh HEAD                          # all four workloads, 10 pairs each
#   ./scripts/pairs.sh -n 12 HEAD~1 tree-bulk        # 12 pairs of one workload
#   ./scripts/pairs.sh -aa -n 10 HEAD tree-bulk      # HEAD against itself: the A/A spread
#
# Side A is <rev> as committed, exported with `git archive` into a temporary
# directory (no worktree is registered in the repository); side B is the
# working tree. Each side is built by its own `sh benchmark/run.sh` into its
# own .bench_build/ and smoke-checked (exactly-once on all four workloads)
# before any pair runs. With -aa, side B is side A again: the same build, run
# as often, so every difference is run-to-run spread.
#
# Pair i runs `sh benchmark/run.sh --workload W --seed S+i-1 --seconds SEC` on
# both sides (-seed S, default 1; -seconds, default 20, as BENCHMARK.json
# runs it), A first in odd pairs and B first in even ones, so that a drift of
# the host over the run lands on both sides alike. A run that exits non-zero
# (a lost or duplicated task) stops the script.
#
# It prints, per workload and metric of the result line, both medians, both
# ranges, the median move from A to B, how many pairs B read lower and higher
# than A (a sign test: 8 of 10 one way is p ≈ 0.055 two-sided), and whether
# either side's range holds the other's median ("overlap": a move that stays
# inside the other side's range is not told from spread by the ranges alone).
# The header names nproc, the Go version and both revisions. -raw FILE also
# appends every run's metrics to FILE, one line a metric: workload, pair,
# side, seed, metric, value.
set -euo pipefail

n=10 seconds=20 seed=1 aa=0 raw=
while [ $# -gt 0 ]; do
    case $1 in
    -n) n=$2; shift 2 ;;
    -seconds) seconds=$2; shift 2 ;;
    -seed) seed=$2; shift 2 ;;
    -aa) aa=1; shift ;;
    -raw) raw=$2; shift 2 ;;
    -*) echo "pairs.sh: unknown option $1" >&2; exit 2 ;;
    *) break ;;
    esac
done
if [ $# -lt 1 ]; then
    echo "usage: $0 [-n pairs] [-seconds s] [-seed s] [-aa] [-raw file] <rev> [workload ...]" >&2
    exit 2
fi
rev=$1
shift
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(direct-bulk journal-bulk tree-bulk direct-serial)

root=$(cd "$(dirname "$0")/.." && pwd)
commit=$(git -C "$root" rev-parse --short "$rev")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/a"
git -C "$root" archive "$commit" | tar -x -C "$tmp/a"
sideA=$tmp/a sideB=$root labelB="working tree"
if [ "$aa" = 1 ]; then
    sideB=$tmp/a labelB="$commit again (A/A)"
fi

for side in "$sideA" "$sideB"; do
    echo "building and smoke-checking $side" >&2
    sh "$side/benchmark/run.sh" -smoke >"$tmp/smoke.txt" 2>&1 || {
        cat "$tmp/smoke.txt" >&2
        exit 1
    }
    [ "$aa" = 1 ] && break
done

# run <side dir> <workload> <seed> <label>: one benchmark run, its result
# line's metrics appended to $tmp/results as "label metric value".
run() {
    local out=$tmp/run.txt
    if ! (cd "$1" && sh benchmark/run.sh --workload "$2" --seed "$3" --seconds "$seconds") >"$out" 2>&1; then
        cat "$out" >&2
        echo "pairs.sh: $1 $2 seed $3 failed" >&2
        exit 1
    fi
    tail -n 1 "$out" | awk -v label="$4" '{
        s = $0
        while (match(s, /"[a-z0-9_.]+":\{"value":[-+0-9.eE]+/)) {
            m = substr(s, RSTART, RLENGTH)
            s = substr(s, RSTART + RLENGTH)
            split(m, kv, /":\{"value":/)
            print label, substr(kv[1], 2), kv[2]
        }
    }' >>"$tmp/results"
}

echo "pairs: A = $commit, B = $labelB; nproc $(nproc), $(go version | awk '{ print $3 }'); $n pairs a workload, seeds $seed..$((seed + n - 1)), --seconds $seconds"
for w in "${workloads[@]}"; do
    : >"$tmp/results"
    for ((i = 1; i <= n; i++)); do
        s=$((seed + i - 1))
        if ((i % 2)); then
            run "$sideA" "$w" "$s" "A$i"
            run "$sideB" "$w" "$s" "B$i"
        else
            run "$sideB" "$w" "$s" "B$i"
            run "$sideA" "$w" "$s" "A$i"
        fi
        echo "  $w pair $i of $n done" >&2
    done
    if [ -n "$raw" ]; then
        awk -v w="$w" -v seed="$seed" '{ side = substr($1, 1, 1); pair = substr($1, 2); print w, pair, side, seed + pair - 1, $2, $3 }' "$tmp/results" >>"$raw"
    fi
    echo
    echo "workload $w"
    printf '  %-22s %12s %-23s %12s %-23s %8s %5s %5s  %s\n' metric "A median" "A range" "B median" "B range" move "B<A" "B>A" overlap
    for metric in $(awk '{ print $2 }' "$tmp/results" | sort -u); do
        awk -v m="$metric" -v n="$n" '
            function median(x, k,    i, j, t) {
                for (i = 2; i <= k; i++)
                    for (j = i; j > 1 && x[j - 1] > x[j]; j--) { t = x[j]; x[j] = x[j - 1]; x[j - 1] = t }
                return k % 2 ? x[(k + 1) / 2] : (x[k / 2] + x[k / 2 + 1]) / 2
            }
            $2 == m { side = substr($1, 1, 1); pair = substr($1, 2); v[side, pair] = $3 }
            END {
                lo = 0; hi = 0
                for (i = 1; i <= n; i++) {
                    a[i] = v["A", i]; b[i] = v["B", i]
                    if (b[i] < a[i]) lo++
                    if (b[i] > a[i]) hi++
                }
                ma = median(a, n); mb = median(b, n)
                move = ma != 0 ? sprintf("%+.1f%%", 100 * (mb - ma) / ma) : "-"
                overlap = (mb >= a[1] && mb <= a[n]) || (ma >= b[1] && ma <= b[n]) ? "yes" : "no"
                printf "  %-22s %12.5g %-23s %12.5g %-23s %8s %5d %5d  %s\n", m, ma, sprintf("%.5g..%.5g", a[1], a[n]), mb, sprintf("%.5g..%.5g", b[1], b[n]), move, lo, hi, overlap
            }' "$tmp/results"
    done
done
