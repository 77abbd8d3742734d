#!/usr/bin/env bash
# allocs.sh — who allocates what, and where the time goes, in one of the
# allocation-budget tests or in a benchmark:
#
#   ./scripts/allocs.sh TestAllocsPerTaskBudget/plain ./internal/core/
#   ./scripts/allocs.sh TestTreeHopAllocBudget ./internal/forward/
#   ./scripts/allocs.sh -bench BenchmarkSerialRound ./internal/core/
#   ./scripts/allocs.sh -bench 'BenchmarkBulkRound/tree' ./internal/forward/
#   ./scripts/allocs.sh -bench 'BenchmarkBulkRound/secure' ./internal/forward/
#   ./scripts/allocs.sh -bench 'BenchmarkBulkRound/fair' ./internal/forward/
#   ./scripts/allocs.sh -bench 'BenchmarkBulkRound/tree-journal' ./internal/forward/
#
# (plain, journal and tree are the repo benchmark's bulk workloads; secure,
# fair — eight tenants declared — and tree-journal — journaled leaves — are the
# configurations it does not run. With -bench the name's last element is
# matched whole — a `$` is appended — so `…/tree` is the tree row alone, not
# tree-journal too.)
#
# Runs the test with every allocation sampled (-memprofilerate=1) and prints
# the objects allocated per function, most first, then the bytes: the
# per-function ledgers EXPERIMENTS.md quotes, without a patched copy of
# benchmark/. Counts cover the whole test (boot, warm-up, every measured
# batch), so divide by the tasks it ran, not by one batch. With -bench the
# benchmark runs 20,000 iterations that way (after its own warm-up: divide by
# what it ran in all), and 600,000 more unsampled under -cpuprofile, whose top —
# flat, then cumulative, then summed by layer under the read(2) and write(2)
# per task the benchmark counted — is printed beside the two allocation tables: both
# ledgers of a message come from this one command. The body codec's row is then
# split by message leg — which message, encoded or decoded where — the rest of
# the codec (a frame envelope, a cold message) last. Both runs are at -cpu 1, one
# P, as the repo benchmark runs (GOMAXPROCS 1): at nproc Ps the same ledger moves
# time between layers (on a 2-core box the body codec read 34 % and the clock
# 3 % where one P reads 39 % and 9 %). The test binary and the
# profiles go to a temporary directory that is removed afterwards.
#
# Reconciling the profile with MemStats.Mallocs (what the tests and the repo
# benchmark report): an object under 16 bytes that holds no pointer — a short
# string such as a command or an executor ID — shares a 16-byte block of the
# tiny allocator with its neighbours. Mallocs counts every one of them; the
# profile samples blocks, so it shows fewer (1.7 of the 21.03 objects the
# serial row of TestAllocsPerTaskBudget read when this note was written).
set -euo pipefail

bench=0
if [ "${1:-}" = "-bench" ]; then
    bench=1
    shift
fi
if [ $# -ne 2 ]; then
    echo "usage: $0 [-bench] <test-or-benchmark-regexp> <package>" >&2
    exit 2
fi
cd "$(dirname "$0")/.."

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
run=(-run "$1")
if [ "$bench" = 1 ]; then
    set -- "$1\$" "$2"
    run=(-run '^$' -bench "$1" -benchtime 20000x -cpu 1)
fi
go test "${run[@]}" -count=1 -o "$out/test.bin" -memprofile "$out/mem.prof" -memprofilerate=1 "$2"
for index in alloc_objects alloc_space; do
    go tool pprof -sample_index=$index -top -nodecount=40 "$out/test.bin" "$out/mem.prof"
done
if [ "$bench" = 1 ]; then
    go test -run '^$' -bench "$1" -benchtime 600000x -cpu 1 -count=1 -o "$out/test.bin" -cpuprofile "$out/cpu.prof" "$2" | tee "$out/bench.txt"
    go tool pprof -top -nodecount=40 "$out/test.bin" "$out/cpu.prof"
    go tool pprof -top -cum -nodecount=60 "$out/test.bin" "$out/cpu.prof"
    # The time ledger: every sample goes to the first layer below that has a
    # function anywhere on its stack, so the rows are disjoint and sum to the
    # profile. Order matters: the layers that call nothing of ours come first.
    # What the benchmark counted beside its time: the process's read(2) and
    # write(2) per task, from /proc/self/io (BenchmarkSerialRound's reads/op
    # and writes/op, BenchmarkBulkRound's reads/task and writes/task).
    awk '/^Benchmark/ { for (i = 3; i < NF; i += 2) if ($(i + 1) ~ /^(reads|writes)\/(op|task)$/) printf "%-38s %9s\n", $1 " " $(i + 1), $i }' "$out/bench.txt"
    echo "layer                                     ms      %"
    # The milliseconds of the samples with a function matching $1 on their
    # stack and none matching $2.
    msOf() {
        go tool pprof -top -unit=ms -nodefraction=0 -focus="$1" -ignore="$2" "$out/test.bin" "$out/cpu.prof" 2>/dev/null |
            awk 'on { sum += $1 } /flat%/ { on = 1 } END { print sum + 0 }'
    }
    seen='^$' total=0 rows=()
    while IFS='|' read -r name re; do
        ms=$(msOf "$re" "$seen")
        rows+=("$name|$ms") total=$((total + ms))
        case $name in "body codec") codecSeen=$seen codecMs=$ms ;; esac
        seen="$seen|$re"
    done <<'LAYERS'
write(2)|syscall\.write$
read(2), the EAGAIN reads included|syscall\.read$
clock readings|^time\.(Now|Since)$
histograms and counters|^falkon/internal/obs\.(\(\*)?(Counter|Gauge|Histogram|HistSnapshot|fixed)
netpoll (epoll_wait)|^runtime\.netpoll$
allocator and collector|^runtime\.(mallocgc|gcBgMarkWorker|bgsweep|gcAssistAlloc)$
scheduler: park, wake, pick a goroutine|^runtime\.(mcall|schedule|goready|ready|gopark|goexit0|newproc)$
channel operations|^runtime\.(chansend|chanrecv|selectgo|selectnbsend|selectnbrecv)$
body codec|^falkon/internal/(fproto|task|jsonwire)\.
sched.Core|^falkon/internal/sched\.
tracer, and gathering its events|^falkon/internal/obs\.|^falkon/internal/dispatch\.\(\*fx\)\.trace$|^falkon/internal/executor\.\(\*Executor\)\.traceAssigned$
dispatch: handlers, fx, flush|^falkon/internal/dispatch\.
wsrpc: envelope, cork, call slots, read loops|^falkon/internal/wsrpc\.
executor|^falkon/internal/executor\.
client|^falkon/internal/client\.
everything else (the driver, runtime entry)|.
LAYERS
    inst=0
    for row in "${rows[@]}"; do
        printf '%-38s %6d  %5.1f\n' "${row%|*}" "${row#*|}" "$(echo "${row#*|} $total" | awk '{ print 100 * $1 / $2 }')"
        case ${row%|*} in
        "clock readings" | "histograms and counters" | tracer*) inst=$((inst + ${row#*|})) ;;
        esac
    done
    printf '%-38s %6d  100.0\n' total "$total"
    # What the live instruments cost together: the three rows above that are
    # the clock, the histograms and the tracer.
    printf '%-38s %6d  %5.1f\n' "instruments: clock, histograms, tracer" "$inst" "$(echo "$inst $total" | awk '{ print 100 * $1 / $2 }')"
    # The body codec's row by message leg, each a function of fproto's that
    # the leg's samples have on their stack (a value method, or the wrapper a
    # call through an interface adds), out of the codec row's samples only.
    echo "body codec by message leg                 ms      %"
    leg=$codecSeen
    while IFS=';' read -r name msg fn; do
        re="^falkon/internal/fproto\.\(?\*?($msg)\)?\.$fn\$"
        ms=$(msOf "$re" "$leg")
        leg="$leg|$re"
        codecMs=$((codecMs - ms))
        printf '%-38s %6d  %5.1f\n' "$name" "$ms" "$(echo "$ms $total" | awk '{ print 100 * $1 / $2 }')"
    done <<'LEGS'
submit encode (client);SubmitRequest;AppendJSON
submit decode (dispatcher);Bundle;DecodeInterned
grant encode, to a leaf;Bundle;AppendJSON
grant encode, to an executor;RelayReply;AppendJSON
grant decode (executor);GetWorkReply|DeliverReply;DecodeJSON
Deliver encode (executor);DeliverRequest;AppendJSON
Deliver decode (dispatcher);DeliverRequest;DecodeInterned
result-push encode;ResultsNotify|ParentResults;AppendJSON
result-push decode;ResultsNotify;DecodeInterned
LEGS
    printf '%-38s %6d  %5.1f\n' "the rest of the codec" "$codecMs" "$(echo "$codecMs $total" | awk '{ print 100 * $1 / $2 }')"
fi
