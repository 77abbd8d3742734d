#!/usr/bin/env bash
# loc.sh — non-test Go lines per package under internal/ and cmd/, and their
# total: the figure ROADMAP.md and CHANGES.md quote when a PR's point is to
# shrink the code. Lines as `wc -l` counts them (comments and blanks
# included), so the number moves only when files do. Under the total, the
# flags each daemon defines (what its -h lists): the deployment surface's
# other figure.
set -euo pipefail

cd "$(dirname "$0")/.."

find internal cmd -name '*.go' ! -name '*_test.go' -print0 |
    xargs -0 wc -l |
    awk '$2 != "total" { pkg = $2; sub(/\/[^\/]*$/, "", pkg); lines[pkg] += $1 }
         END { for (pkg in lines) print lines[pkg], pkg }' |
    sort -k2 |
    awk '{ printf "%7d  %s\n", $1, $2; total += $1 }
         END { printf "%7d  total (non-test Go lines, internal/ + cmd/)\n", total }'

for daemon in falkon-dispatcher falkon-executor falkon-submit; do
    printf '%7d  flags, %s\n' \
        "$(grep -hE '\bflag\.[A-Z][A-Za-z0-9]*\((&[A-Za-z]+, )?"[a-z]' cmd/"$daemon"/*.go | wc -l)" "$daemon"
done
