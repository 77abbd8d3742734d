#!/usr/bin/env bash
# flakes.sh — a flake census: how often named tests fail, and how close the
# budget tests come to their ceilings, over many runs.
#
#   ./scripts/flakes.sh                      # the tier-1 budget tests, the known flakes and the journal's timing, 10 runs
#   ./scripts/flakes.sh -n 50 ./internal/forward:TestTreeHopAllocBudget
#   ./scripts/flakes.sh -load ./internal/core:TestAllocsPerTaskBudget
#   ./scripts/flakes.sh -plain ./internal/core:TestAllocsPerTaskBudget
#
# Each argument is <package>:<test regexp>. Each named test's package is built
# once, plain and with -race (-plain: plain only), and its tests are run N
# times (-n, default 10) at -cpu 1,2,4 in each build, from the package's
# directory. With no argument it runs the tier-1 budget tests, the tests
# that have flaked before, and the journal tests whose timing depends on when
# the committer writes an advisory record (DESIGN.md §10, "Group commit").
# -load runs forward's BenchmarkBulkRound/plain beside them, at one
# P, for as long as they run: the load under which PR 45's rider found
# sched.TestCycleAllocations failing.
#
# It prints, per test and build, the runs and the failures (a subtest is a
# test of its own; the -cpu suffix is dropped, so a test run at three -cpu
# values ten times counts 30 runs). Then, per budget, the readings the budget
# tests logged as
#
#   budget: <test> <what> <reading> <= <ceiling>
#
# (every tier-1 budget test writes them): how many, the highest, its
# ceiling, how many were over it, and how many came within 5 % of it. A
# budget with any reading within 5 % is flagged: that is a finding, as a
# failure is, since the next collector or host may push it over. The exit
# status is 1 when any test failed or any budget is flagged.
#
# The logs go to a temporary directory that is removed afterwards, unless
# -keep names a directory to copy them to.
set -euo pipefail

n=10
load=0
race=1
keep=
while [ $# -gt 0 ]; do
    case "$1" in
    -n) n=$2; shift 2 ;;
    -load) load=1; shift ;;
    -plain) race=0; shift ;;
    -keep) keep=$2; shift 2 ;;
    -*) echo "usage: $0 [-n N] [-load] [-plain] [-keep DIR] [<package>:<test regexp> ...]" >&2; exit 2 ;;
    *) break ;;
    esac
done
cd "$(dirname "$0")/.."

if [ $# -eq 0 ]; then
    set -- \
        './internal/client:^TestBytesPerOwedTask$' \
        './internal/core:^(TestAllocsPerTaskBudget|TestSerialRoundSyscalls)$' \
        './internal/dispatch:^(TestBytesPerTaskAtRest|TestBytesPerIdleExecutor|TestBytesPerConnectedExecutor|TestExecutorThatDoesNotAcceptGrantsPulls|TestSnapshotCutAllocsPerTask|TestAllocsPerDeliveredResult)$' \
        './internal/dispatch:^(TestCrashRecoveryExactlyOnce|TestAttemptsSurviveCrash|TestJournalRecordsFollowTheProtocol|TestCompletesWrittenWithoutLaterSubmit|TestFailedJournalStopsDispatcher)$' \
        './internal/executor:^TestBytesPerExecutor$' \
        './internal/faultinj:^TestWALSurvivesDiskFaults$' \
        './internal/forward:^(TestTreeHopAllocBudget|TestForwarderSpreadsInstancesAcrossDispatchers|TestScratchFailedPushRebuffered|TestRootDedupesAReconnectingClient)$' \
        './internal/obs:^TestTracerBytesAtRest$' \
        './internal/sched:^TestCycleAllocations$' \
        './internal/task:^TestSmallBundlesPinAtMostAChunk$' \
        './internal/wal:^(TestGroupCommitConcurrent|TestAdvisoryRecordWrittenWithinBound)$'
fi

out=$(mktemp -d)
loadpid=
cleanup() {
    if [ -n "$loadpid" ]; then
        kill "$loadpid" 2>/dev/null || true
        wait "$loadpid" 2>/dev/null || true
    fi
    if [ -n "$keep" ]; then
        mkdir -p "$keep" && cp "$out"/*.log "$keep"/ 2>/dev/null || true
    fi
    rm -rf "$out"
}
trap cleanup EXIT

builds=plain
if [ "$race" = 1 ]; then
    builds="plain race"
fi
bin() { echo "$out/$(echo "$1" | tr -c 'A-Za-z0-9\n' _).$2.test"; }
for spec in "$@"; do
    pkg=${spec%%:*}
    for b in $builds; do
        [ -x "$(bin "$pkg" "$b")" ] && continue
        flags=()
        [ "$b" = race ] && flags=(-race)
        go test "${flags[@]}" -c -o "$(bin "$pkg" "$b")" "$pkg"
    done
done

if [ "$load" = 1 ]; then
    go test -c -o "$out/load.test" ./internal/forward
    (cd internal/forward && exec "$out/load.test" -test.run '^$' -test.bench 'BenchmarkBulkRound/plain$' \
        -test.benchtime 1000000000x -test.cpu 1 >/dev/null 2>&1) &
    loadpid=$!
fi

i=0
for spec in "$@"; do
    pkg=${spec%%:*}
    re=${spec#*:}
    for b in $builds; do
        i=$((i + 1))
        echo "== $pkg $re ($b, $n runs at -cpu 1,2,4)" >&2
        (cd "$pkg" && "$(bin "$pkg" "$b")" -test.run "$re" -test.count "$n" -test.cpu 1,2,4 \
            -test.v -test.timeout 60m) >"$out/$i.$b.log" 2>&1 || true
    done
done

awk '
FNR == 1 { np = split(FILENAME, p, "."); build = p[np - 1] }
# A test that ends: count its run, and its failure.
/^ *--- (PASS|FAIL|SKIP):/ {
    name = $3
    sub(/-[0-9]+$/, "", name)
    if ($2 == "SKIP:") next
    key = name " " build
    if (!(key in runs)) order[++tests] = key
    runs[key]++
    if ($2 == "FAIL:") { fails[key]++; failed = 1 }
}
# A panic or a timeout ends the binary with no --- FAIL line.
/^panic: |^FAIL\t/ { crashed[build]++; failed = 1 }
/ budget: / {
    for (j = 1; j <= NF; j++) if ($j == "budget:") break
    name = $(j + 1)
    sub(/-[0-9]+$/, "", name)
    what = $(j + 2)
    for (k = j + 3; k <= NF - 3; k++) what = what " " $k
    reading = $(NF - 2) + 0
    ceiling = $NF + 0
    key = name " — " what
    if (!(key in seen)) { border[++budgets] = key; top[key] = reading }
    seen[key]++
    if (reading > top[key]) top[key] = reading
    ceil[key] = ceiling
    if (reading > ceiling) over[key]++
    else if (reading >= 0.95 * ceiling) near[key]++
}
END {
    printf "%-70s %6s %6s\n", "test (build)", "runs", "fails"
    for (t = 1; t <= tests; t++) {
        split(order[t], kb, " ")
        printf "%-70s %6d %6d\n", kb[1] " (" kb[2] ")", runs[order[t]], fails[order[t]]
    }
    for (b in crashed) printf "%s build: %d binaries ended in a panic or FAIL line\n", b, crashed[b]
    if (budgets > 0) {
        printf "\n%-70s %6s %9s %9s %5s %5s\n", "budget", "reads", "highest", "ceiling", "over", "≥95%"
        for (t = 1; t <= budgets; t++) {
            k = border[t]
            flag = (over[k] + near[k] > 0) ? "  <- finding" : ""
            if (flag != "") failed = 1
            printf "%-70s %6d %9.2f %9.2f %5d %5d%s\n", k, seen[k], top[k], ceil[k], over[k], near[k], flag
        }
    }
    exit failed
}
' "$out"/*.log
