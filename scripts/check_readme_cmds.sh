#!/bin/sh
# check_readme_cmds.sh — README/cmd/package cross-check, run by CI.
#
# Four directions:
#   1. every binary under cmd/ is mentioned in README.md as cmd/<name> (no
#      undocumented tools; the bare word does not count — "sweep" and
#      "stemd" occur in prose);
#   2. every "cmd/<name>" or "go run ./cmd/<name>" reference in README.md
#      names a directory that actually exists (no docs pointing at removed
#      tools);
#   3. every import path of this module quoted in README.md ("repro" or
#      "repro/...") names a directory holding Go files (no snippets
#      importing a removed package — the module root holds none);
#   4. the examples/ entries of README.md's layout tree and the
#      subdirectories of examples/ are the same set (no example missing
#      from the tree, no tree entry naming a removed example).
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

# Direction 3: README -> packages.
for path in $(grep -oE '"repro(/[A-Za-z0-9_./-]*)?"' README.md | tr -d '"' | sort -u); do
    if ! ls ".${path#repro}"/*.go >/dev/null 2>&1; then
        echo "README.md quotes the import path \"$path\", which names no package" >&2
        status=1
    fi
done

# Direction 4: README layout tree <-> examples/*. The tree lists each
# example as an indented "<name>/" line under a bare "examples/" line.
listed=$(awk '/^```/ { tree = 0 } tree && /^  [a-z0-9_-]+\// { sub(/^  /, ""); sub(/\/.*/, ""); print } /^examples\/$/ { tree = 1 }' README.md | sort -u)
for name in $listed; do
    if [ ! -d "examples/$name" ]; then
        echo "README.md's layout lists examples/$name/, which does not exist" >&2
        status=1
    fi
done
for dir in examples/*/; do
    name=$(basename "$dir")
    if ! printf '%s\n' "$listed" | grep -qx "$name"; then
        echo "examples/$name exists but README.md's layout never lists it" >&2
        status=1
    fi
done

if [ "$status" -eq 0 ]; then
    echo "README.md, cmd/, examples/ and the quoted import paths agree ($(ls -d cmd/*/ | wc -l | tr -d ' ') binaries, $(ls -d examples/*/ | wc -l | tr -d ' ') examples)"
fi
exit $status
