#!/bin/sh
# check_readme_cmds.sh — README/cmd/package cross-check, run by CI.
#
# Five directions:
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
#      from the tree, no tree entry naming a removed example);
#   5. every Test…/Benchmark…/Fuzz… token inside a `-run` pattern in the
#      docs, the verify skill and CI is a prefix of at least one test
#      function in the repository (no documented command selecting a
#      removed test, which `go test -run` would report as "no tests to
#      run" and pass); and when a one-line `go test … -run P … ./pkg`
#      command names packages, each token of P prefixes a test function in
#      one of those packages (no command selecting a test that moved to
#      another package).
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

# Direction 5: -run patterns -> test functions.
runDocs="README.md EXPERIMENTS.md DESIGN.md bench/README.md .claude/skills/verify/SKILL.md .github/workflows/ci.yml"
funcs=$(grep -rhoE '^func (Test|Benchmark|Fuzz)[A-Za-z0-9_]*' --include='*_test.go' . | sed 's/^func //' | sort -u)
for tok in $(grep -hoE -- "-run[ =]+('[^']*'|\"[^\"]*\"|[^ ]+)" $runDocs |
    grep -oE '(Test|Benchmark|Fuzz)[A-Za-z0-9_]*' | sort -u); do
    if ! printf '%s\n' "$funcs" | grep -q "^$tok"; then
        echo "a -run pattern in the docs or CI names $tok, which prefixes no test function" >&2
        status=1
    fi
done

# Direction 5, per package: the command runs from "go test" to the end of
# its line or its closing backtick; its packages are the ./ words (./...
# spans the repository and is checked above; pkg/... spans pkg).
misplaced=$(grep -hoE 'go test [^`]*-run[^`]*' $runDocs | while IFS= read -r cmd; do
    pkgs=$(printf '%s\n' "$cmd" | tr ' ' '\n' | sed 's/[),.;]*$//' | grep -E '^\./.' | grep -vx '\./\.\.\.' || true)
    [ -n "$pkgs" ] || continue
    pkgfuncs=$(for pkg in $pkgs; do
        case $pkg in
        */...) find "${pkg%/...}" -name '*_test.go' ;;
        *) ls "$pkg"/*_test.go 2>/dev/null || true ;;
        esac
    done | xargs -r grep -hoE '^func (Test|Benchmark|Fuzz)[A-Za-z0-9_]*' | sed 's/^func //' | sort -u)
    for tok in $(printf '%s\n' "$cmd" | grep -oE -- "-run[ =]+('[^']*'|\"[^\"]*\"|[^ ]+)" |
        grep -oE '(Test|Benchmark|Fuzz)[A-Za-z0-9_]*' | sort -u); do
        if ! printf '%s\n' "$pkgfuncs" | grep -q "^$tok"; then
            echo "\`$cmd\` selects $tok, which prefixes no test function in" $pkgs
        fi
    done
done)
if [ -n "$misplaced" ]; then
    printf '%s\n' "$misplaced" >&2
    status=1
fi

if [ "$status" -eq 0 ]; then
    echo "README.md, cmd/, examples/, the quoted import paths and the documented -run patterns agree ($(ls -d cmd/*/ | wc -l | tr -d ' ') binaries, $(ls -d examples/*/ | wc -l | tr -d ' ') examples)"
fi
exit $status
