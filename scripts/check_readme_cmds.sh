#!/bin/sh
# check_readme_cmds.sh — docs/cmd/package cross-check, run by CI.
#
# Nine directions:
#   1. every binary under cmd/ is mentioned in README.md and in DESIGN.md
#      as cmd/<name> (no undocumented tools; the bare word does not count —
#      "sweep" and "stemd" occur in prose);
#   2. every "cmd/<name>" or "go run ./cmd/<name>" reference in README.md
#      or DESIGN.md names a directory that actually exists (no docs
#      pointing at removed tools);
#   3. every import path of this module quoted in README.md or DESIGN.md
#      ("repro" or "repro/...") names a directory holding Go files (no
#      snippets importing a removed package — the module root holds none);
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
#      another package);
#   6. every "DESIGN §N" or "DESIGN.md §N.M" in README.md, EXPERIMENTS.md
#      and the Go files under internal/, cmd/ and examples/ names a heading
#      of DESIGN.md ("## N." or "### N.M"), also when the reference breaks
#      across lines (no pointer into a renumbered or deleted section);
#   7. every `-flag` inside an inline code span of README.md, DESIGN.md or
#      EXPERIMENTS.md is a flag that some cmd/ binary or stemsim verb lists
#      under -h, a flag of `go -C bench run .`, or one of the go and grep
#      flags listed below (no doc naming a removed flag);
#   8. every whole Test…/Benchmark…/Fuzz… identifier that README.md or
#      DESIGN.md names outside a `-run` pattern is a test function in the
#      repository (no prose citing a deleted or renamed test; direction 5
#      covers the patterns, whose tokens may be prefixes).
#   9. every qualified name `pkg.Name` that README.md, DESIGN.md,
#      EXPERIMENTS.md or the verify skill cites, where pkg is a package
#      under internal/ and Name is capitalised, occurs in that package's
#      non-test Go files (no doc citing a deleted type or function; test
#      names are direction 8's, and a field or method after Name is not
#      checked, so a retired section may name a deleted method of a type
#      that remains).
#
# Exits nonzero with a per-name report on any mismatch.
set -eu
cd "$(dirname "$0")/.."

status=0

for doc in README.md DESIGN.md; do
    # Direction 1: cmd/* -> doc.
    for dir in cmd/*/; do
        name=$(basename "$dir")
        if ! grep -qE "cmd/$name([^a-z0-9_-]|\$)" "$doc"; then
            echo "cmd/$name exists but $doc never mentions it" >&2
            status=1
        fi
    done

    # Direction 2: doc -> cmd/*. Pull every cmd/<name> token out of the doc
    # (covers `go run ./cmd/x`, layout entries like `cmd/x`, and prose).
    for name in $(grep -o 'cmd/[a-z0-9_-]*' "$doc" | sed 's|cmd/||' | sort -u); do
        [ -n "$name" ] || continue
        if [ ! -d "cmd/$name" ]; then
            echo "$doc references cmd/$name, which does not exist" >&2
            status=1
        fi
    done

    # Direction 3: doc -> packages.
    for path in $(grep -oE '"repro(/[A-Za-z0-9_./-]*)?"' "$doc" | tr -d '"' | sort -u); do
        if ! ls ".${path#repro}"/*.go >/dev/null 2>&1; then
            echo "$doc quotes the import path \"$path\", which names no package" >&2
            status=1
        fi
    done
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

# Direction 6: DESIGN section references -> DESIGN headings. Each file is
# read as one line, with Go comment markers dropped, so a reference split
# across lines ("DESIGN.md" / "// §9") is still one match.
for file in README.md EXPERIMENTS.md $(find internal cmd examples -name '*.go'); do
    for sec in $(sed 's|^[[:space:]]*//[[:space:]]*||' "$file" | tr '\n' ' ' |
        grep -oE 'DESIGN(\.md)?[[:space:]]+§[0-9]+(\.[0-9]+)*' | grep -oE '[0-9]+(\.[0-9]+)*$' | sort -u); do
        if ! grep -qE "^#+ $(printf '%s' "$sec" | sed 's/\./\\./g')\.? " DESIGN.md; then
            echo "$file cites DESIGN §$sec, which is not a heading of DESIGN.md" >&2
            status=1
        fi
    done
done

# Direction 7: backticked flags -> flags the programs accept. The binaries
# are built into a scratch directory; each prints its flags under -h as
# "  -name ...", which the flag package writes to stderr before exiting 2.
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/" ./cmd/...
# Flags of the go and grep commands the docs quote, which no -h here lists.
toolFlags='
-C
-race
-run
-v
-count
-short
-benchtime
-rn
--include
-f'
known=$( {
    for b in "$bin"/*; do "$b" -h 2>&1 || true; done
    for verb in $("$bin/stemsim" -h 2>&1 | awk '/^  [a-z]+ / { print $1 }'); do
        "$bin/stemsim" "$verb" -h 2>&1 || true
    done
    go -C bench run . -h 2>&1 || true
} | grep -oE '^  -[a-zA-Z0-9-]+' | sed 's/^ *//'; printf '%s\n' "$toolFlags")
for doc in README.md DESIGN.md EXPERIMENTS.md; do
    for flag in $(grep -v '^```' "$doc" | grep -oE '`[^`]+`' |
        grep -oE '(^`|[[:space:](=])-{1,2}[a-zA-Z][a-zA-Z0-9-]*' | sed -E 's/^[`[:space:](=]//' | sort -u); do
        if ! printf '%s\n' "$known" | grep -qx -- "$flag"; then
            echo "$doc quotes the flag $flag, which no cmd/ binary, stemsim verb, bench harness or listed go/grep command accepts" >&2
            status=1
        fi
    done
done

# Direction 8: test names cited in prose -> test functions. The -run
# patterns are cut out first; direction 5 checks them as prefixes.
for doc in README.md DESIGN.md; do
    for name in $(sed -E "s/-run[ =]+('[^']*'|\"[^\"]*\"|[^ ]+)//g" "$doc" |
        grep -oE '\b(Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*' | sort -u); do
        if ! printf '%s\n' "$funcs" | grep -qx "$name"; then
            echo "$doc names $name, which is no test function" >&2
            status=1
        fi
    done
done

# Direction 9: qualified names cited in the docs -> the packages' code.
# A name is checked as a whole word of the package's non-test files.
pkgs=$(ls -d internal/*/ | xargs -n1 basename | paste -sd'|' -)
for doc in README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md; do
    for ref in $(grep -oE "(^|[^A-Za-z0-9_./])($pkgs)\.[A-Z][A-Za-z0-9_]*" "$doc" |
        sed -E 's/^[^a-z]//' | grep -vE '\.(Test|Benchmark|Fuzz)' | sort -u); do
        pkg=${ref%%.*}
        if ! ls "internal/$pkg"/*.go | grep -v '_test\.go$' | xargs grep -qw -- "${ref#*.}"; then
            echo "$doc cites $ref, which no non-test Go file of internal/$pkg names" >&2
            status=1
        fi
    done
done

if [ "$status" -eq 0 ]; then
    echo "README.md, DESIGN.md, cmd/, examples/, the quoted import paths, the documented -run patterns, the DESIGN § references, the cited test names, the backticked flags and the cited package names agree ($(ls -d cmd/*/ | wc -l | tr -d ' ') binaries, $(ls -d examples/*/ | wc -l | tr -d ' ') examples)"
fi
exit $status
