#!/usr/bin/env bash
# tier1.sh — the repo's tier-1 verification flow, as documented in
# ROADMAP.md. CI and humans run this one command before merging:
#
#   ./scripts/tier1.sh            # the full flow
#   ./scripts/tier1.sh --quick    # build + vet + test only (fast pre-push)
#
# Each step must pass; the script stops at the first failure, and failures
# propagate through pipes (pipefail).
set -euo pipefail

cd "$(dirname "$0")/.."

QUICK=0
if [ "${1:-}" = "--quick" ]; then
    QUICK=1
fi

set -x
# Formatting is a check, not advice: any Go file gofmt would rewrite fails
# tier 1 (.bench_build/ is the benchmark's build output, not source).
unformatted=$(gofmt -l . | grep -v '^\.bench_build/' || true)
if [ -n "$unformatted" ]; then
    echo "gofmt -l lists files that are not gofmt-clean:" >&2
    echo "$unformatted" >&2
    exit 1
fi
go build ./...
go vet ./...
go test ./...
# benchmark/ is a module of its own (the root ./... skips it) that calls the
# product's constructors: a product-API change that stops it compiling must
# fail here, not in the benchmark pipeline. Its smoke test boots the real
# runtime and stays out of tier 1; these are its pure unit tests.
# (-o /dev/null: a bare `go build` of the one main package would drop a
# binary into benchmark/, which no PR may touch.)
(cd benchmark && go build -o /dev/null ./... && go vet ./... && go test -run 'TestBenchmarkJSON|TestHist|TestWindow|TestSpanRing' .)

if [ "$QUICK" = 1 ]; then
    exit 0
fi

go test -race ./...
# Crash-recovery end to end: kill -9 a journaling dispatcher mid-workload,
# restart it on the same journal, and require exactly-once delivery.
go test -run='TestBinariesCrashRecovery' -count=1 .
# Observability end to end: scrape every daemon's /metrics (dispatcher,
# executor, a dispatcher with -leaves, submit client) and strictly validate the exposition
# format parses; merge real cross-process span dumps and require the
# corrected stage durations to partition each task's e2e latency.
go test -run='TestBinariesMetricsExposition|TestBinariesSpanMergeAcrossProcesses' -count=1 .
# The per-task allocation budget on 1, 2 and 4 Ps: an exact count that must
# not depend on how many cores the host has. Beside it the other count of one
# unqueued task: six write(2) and at most 6.5 read(2).
go test -run='TestAllocsPerTaskBudget|TestSerialRoundSyscalls' -cpu 1,2,4 -count=1 ./internal/core/
# Bytes a dispatcher holds per task queued, per task held, and after 100K
# drain; per registered idle executor; and what a full trace ring weighs.
go test -run='TestBytesPerTaskAtRest|TestBytesPerIdleExecutor|TestTracerBytesAtRest' -cpu 1,2,4 -count=1 ./internal/dispatch/ ./internal/obs/
# And what a level of the dispatch tree adds to it, objects and bytes: a root
# over two leaves against one dispatcher, same loop, plus a leaf restart
# mid-batch.
go test -run='TestTreeHopAllocBudget' -cpu 1,2,4 -count=1 ./internal/forward/
# The repo benchmark's smoke run: all four workloads in one process, 2,048
# tasks a window, exactly-once checked bit per task ID — the check most likely
# to catch a reused buffer read after it was recycled. (Builds into
# .bench_build/, which is git-ignored.)
sh benchmark/run.sh -smoke
# Short fuzz pass over the journal decoder: it must never panic and never
# fabricate records, whatever bytes a torn tail left behind.
go test -run='^$' -fuzz=FuzzJournalDecode -fuzztime=5s ./internal/wal/
# And over the two hand-written wire codecs, with encoding/json as the
# oracle: on any bytes the fast decoders and json.Unmarshal must agree.
go test -run='^$' -fuzz=FuzzBodyCodec -fuzztime=5s ./internal/fproto/
go test -run='^$' -fuzz=FuzzFrameEnvelope -fuzztime=5s ./internal/wsrpc/
# And over the one parser an operator types into (-tenant, -tenants): it
# never panics, and what it accepts is usable and parses back to itself.
go test -run='^$' -fuzz=FuzzTenantSpec -fuzztime=5s ./internal/dispatch/
# And over the scheduling state machine every dispatcher drives: operation
# sequences against a reference model (exactly-once, slot counts, retry
# bounds, the fair-share bound).
go test -run='^$' -fuzz=FuzzCore -fuzztime=5s ./internal/sched/
# And over the trace ring every process keeps: batches against a plain slice
# of every event, through the string table's rebuilds and the ring's wrap.
go test -run='^$' -fuzz=FuzzTracer -fuzztime=5s ./internal/obs/
# Compile-and-run every benchmark exactly once, so bitrot in benchmark-only
# code fails tier 1 instead of the next perf investigation.
go test -run='^$' -bench=. -benchtime=1x ./...
# Informational, not gating: the size of the thing that just passed.
./scripts/loc.sh
