#!/bin/sh
# check_readme_cmds.sh — README/cmd cross-check, run by CI.
#
# Two directions:
#   1. every binary under cmd/ is mentioned in README.md as cmd/<name> (no
#      undocumented tools; the bare word does not count — "sweep" and
#      "stemd" occur in prose);
#   2. every "cmd/<name>" or "go run ./cmd/<name>" reference in README.md
#      names a directory that actually exists (no docs pointing at removed
#      tools).
#
# Exits nonzero with a per-name report on any mismatch.
set -eu
cd "$(dirname "$0")/.."

status=0

# Direction 1: cmd/* -> README.
for dir in cmd/*/; do
    name=$(basename "$dir")
    if ! grep -qE "cmd/$name([^a-z0-9_-]|\$)" README.md; then
        echo "cmd/$name exists but README.md never mentions it" >&2
        status=1
    fi
done

# Direction 2: README -> cmd/*. Pull every cmd/<name> token out of the
# README (covers `go run ./cmd/x`, layout entries like `cmd/x`, and prose).
for name in $(grep -o 'cmd/[a-z0-9_-]*' README.md | sed 's|cmd/||' | sort -u); do
    [ -n "$name" ] || continue
    if [ ! -d "cmd/$name" ]; then
        echo "README.md references cmd/$name, which does not exist" >&2
        status=1
    fi
done

if [ "$status" -eq 0 ]; then
    echo "README.md and cmd/ agree ($(ls -d cmd/*/ | wc -l | tr -d ' ') binaries)"
fi
exit $status
