#!/usr/bin/env bash
# chaos.sh — build the Falkon binaries and run the chaos harness
# (cmd/falkon-chaos): real dispatchers (one binary: flat, a tree's root and
# leaves, HA members) + executors + reconnecting client
# under a seeded fault schedule, with exactly-once invariants asserted at
# the end. A failing seed is printed and reproduces deterministically.
#
#   ./scripts/chaos.sh                     # 5-seed sweep at full scale
#   ./scripts/chaos.sh --quick             # 1 small seed (CI smoke)
#   ./scripts/chaos.sh 42                  # one specific seed
#   ./scripts/chaos.sh --quick 7 3         # seeds 7..9, small runs
#   ./scripts/chaos.sh --tree 2 --quick    # 2-level tree: SIGKILL leaves
#   ./scripts/chaos.sh --tree 4 --tree-depth 3 --quick  # roots under the root
#   ./scripts/chaos.sh --standbys 1 --quick             # HA: SIGKILL leaders
#   ./scripts/chaos.sh --max-sleep 0 --quick            # all `sleep 0`: executors hold batches when killed
set -euo pipefail

cd "$(dirname "$0")/.."

QUICK=()
TREE=()
STANDBYS=()
MAXSLEEP=()
SWEEP_DEFAULT=5
while :; do
    case "${1:-}" in
    --quick)
        QUICK=(-quick)
        SWEEP_DEFAULT=1
        shift
        ;;
    --tree)
        TREE+=(-tree "$2")
        shift 2
        ;;
    --tree-depth)
        TREE+=(-tree-depth "$2")
        shift 2
        ;;
    --standbys)
        STANDBYS=(-standbys "$2")
        shift 2
        ;;
    --max-sleep)
        MAXSLEEP=(-max-sleep "$2")
        shift 2
        ;;
    *)
        break
        ;;
    esac
done
SEED="${1:-1}"
SWEEP="${2:-$SWEEP_DEFAULT}"

BIN="$(mktemp -d)"
BEFORE="$(mktemp)"
trap 'rm -rf "$BIN" "$BEFORE"' EXIT

# Snapshot the falkon-chaos-* dirs that already exist so a passing run can
# sweep up only what IT created: the harness removes its own work dirs on a
# pass, but a crashed or interrupted child (log.Fatalf skips defers) leaves
# droppings behind. Pre-existing dirs are never touched, and a failing run
# keeps everything — those dirs hold the logs and journals for the postmortem.
TMP="${TMPDIR:-/tmp}"
ls -d "$TMP"/falkon-chaos-* 2>/dev/null | sort >"$BEFORE" || true

go build -o "$BIN" ./cmd/falkon-dispatcher ./cmd/falkon-executor ./cmd/falkon-chaos

if "$BIN/falkon-chaos" -bin "$BIN" -seed "$SEED" -sweep "$SWEEP" "${QUICK[@]}" "${TREE[@]}" "${STANDBYS[@]}" "${MAXSLEEP[@]}"; then
    comm -13 "$BEFORE" <(ls -d "$TMP"/falkon-chaos-* 2>/dev/null | sort) | xargs -r rm -rf --
else
    status=$?
    echo "chaos.sh: FAILED (exit $status); work dirs kept under $TMP/falkon-chaos-*" >&2
    exit "$status"
fi
