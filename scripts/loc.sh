#!/usr/bin/env bash
# loc.sh — non-test Go lines per package under internal/ and cmd/, and their
# total: the figure ROADMAP.md and CHANGES.md quote when a PR's point is to
# shrink the code. Lines as `wc -l` counts them (comments and blanks
# included), so the number moves only when files do. Under the total, the
# flags each daemon defines (what its -h lists), the exported fields of the
# option structs a library caller sets, and the wire's verbs and pushes: the
# deployment surface's other figures.
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

# Exported fields of a struct type, counted at its top level: "A, B int" is
# two, an embedded type one.
fields() {
    local pkg=$1 name=$2 files=() f
    for f in internal/"$pkg"/*.go; do
        [[ $f == *_test.go ]] || files+=("$f")
    done
    awk -v name="$name" '
        $1 == "type" && ($2 == name || index($2, name "[") == 1) && /struct \{$/ { depth = 1; next }
        depth == 0 { next }
        {
            line = $0
            sub(/\/\/.*/, "", line)
            if (depth == 1 && line ~ /^[[:space:]]*[A-Z]/) {
                sub(/^[[:space:]]+/, "", line)
                n = 1
                if (match(line, /^[A-Za-z0-9_]+([[:space:]]*,[[:space:]]*[A-Za-z0-9_]+)+/)) {
                    n = gsub(/,/, ",", line) + 1
                }
                count += n
            }
            depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
            if (depth == 0) { print count + 0; exit }
        }' "${files[@]}"
}

for spec in dispatch.Options forward.Options sched.Options core.Config client.Options executor.Options \
    dispatch.ReplicationOptions replica.StandbyOptions replica.SourceOptions replica.NodeOptions wal.Options \
    wsrpc.ServerOptions wsrpc.ClientOptions wsrpc.SessionOptions; do
    printf '%7d  fields, %s\n' "$(fields "${spec%%.*}" "${spec#*.}")" "$spec"
done

# The wire: the verbs a dispatcher answers (fproto.Method*) and the
# notifications it pushes (fproto.Notify*), as fproto declares their names.
for kind in Method:verbs Notify:pushes; do
    printf '%7d  wire %s, fproto.%s*\n' \
        "$(find internal/fproto -name '*.go' ! -name '*_test.go' -exec cat {} + |
            grep -cE "^[[:space:]]*${kind%%:*}[A-Z][A-Za-z]*[[:space:]]*=[[:space:]]*\"")" "${kind#*:}" "${kind%%:*}"
done
