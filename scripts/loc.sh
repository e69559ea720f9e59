#!/usr/bin/env bash
# Net lines of code, the way ROADMAP asks every PR to report them.
#
# Usage: scripts/loc.sh [base-ref]
#
# Per crate: product lines (each crates/<c>/src/**/*.rs up to, not
# including, the file's first `#[cfg(test)]`) and test lines (the rest
# of those files, plus crates/<c>/tests and crates/<c>/benches); then
# the root package's src/tests/examples, and scripts/. Lines are
# physical lines, comments and blanks included: a comment that gives a
# reason is part of the product, and deleting it is not a saving. With
# a base ref, each figure is followed by its delta against that ref
# (read with `git show`, so the base needs no checkout); the working
# tree side includes files not yet committed.
set -euo pipefail
cd "$(dirname "$0")/.."
base=${1:-}
if [ -n "$base" ] && ! git rev-parse -q --verify "$base^{commit}" >/dev/null; then
    echo "loc.sh: unknown base ref '$base'" >&2
    exit 2
fi

# Prints "<product> <test>" for one Rust file read from stdin.
split() {
    awk '/^[ \t]*#\[cfg\(test\)\]/ { t = 1 } { if (t) test++; else prod++ }
         END { printf "%d %d\n", prod, test }'
}

# files <ref|""> <dir>...: paths under the directories at the ref, or
# in the working tree (a directory that does not exist lists nothing).
files() {
    local ref=$1
    shift
    if [ -n "$ref" ]; then
        git ls-tree -r --name-only "$ref" -- "$@"
    else
        git ls-files --cached --others --exclude-standard -- "$@" 2>/dev/null
    fi
}

# count <ref|""> <kind> <dir>...: sums product and test lines.
# kind: split (*.rs: product before cfg(test), test after),
#       test (*.rs: the whole file is test), all (every file is product).
count() {
    local ref=$1 kind=$2 prod=0 test=0 f p t
    shift 2
    while IFS= read -r f; do
        [ -n "$f" ] || continue
        [ "$kind" = all ] || [[ $f == *.rs ]] || continue
        if [ -n "$ref" ]; then
            read -r p t < <(git show "$ref:$f" | split)
        else
            [ -f "$f" ] || continue # deleted in the working tree
            read -r p t < <(split <"$f")
        fi
        case $kind in
        split) prod=$((prod + p)) test=$((test + t)) ;;
        test) test=$((test + p + t)) ;;
        all) prod=$((prod + p + t)) ;;
        esac
    done < <(files "$ref" "$@")
    echo "$prod $test"
}

# row <label> <src-dir> [test-dir...]
tot_p=0 tot_t=0 tot_dp=0 tot_dt=0
row() {
    local label=$1 src=$2 p t bp=0 bt=0 x y
    shift 2
    read -r p t < <(count "" split "$src")
    for d in "$@"; do
        read -r x y < <(count "" test "$d")
        t=$((t + y))
    done
    if [ -n "$base" ]; then
        read -r bp bt < <(count "$base" split "$src")
        for d in "$@"; do
            read -r x y < <(count "$base" test "$d")
            bt=$((bt + y))
        done
        printf '%-12s %8d %+7d %8d %+7d\n' "$label" "$p" $((p - bp)) "$t" $((t - bt))
        tot_dp=$((tot_dp + p - bp)) tot_dt=$((tot_dt + t - bt))
    else
        printf '%-12s %8d %8d\n' "$label" "$p" "$t"
    fi
    tot_p=$((tot_p + p)) tot_t=$((tot_t + t))
}

if [ -n "$base" ]; then
    printf '%-12s %8s %7s %8s %7s   (delta vs %s)\n' crate product '' test '' "$base"
else
    printf '%-12s %8s %8s\n' crate product test
fi
for c in crates/*/; do
    c=${c%/}
    row "${c#crates/}" "$c/src" "$c/tests" "$c/benches"
done
row "(root)" src tests examples
if [ -n "$base" ]; then
    printf '%-12s %8d %+7d %8d %+7d\n' total "$tot_p" "$tot_dp" "$tot_t" "$tot_dt"
else
    printf '%-12s %8d %8d\n' total "$tot_p" "$tot_t"
fi

read -r s _ < <(count "" all scripts)
if [ -n "$base" ]; then
    read -r bs _ < <(count "$base" all scripts)
    printf '%-12s %8d %+7d\n' scripts "$s" $((s - bs))
else
    printf '%-12s %8d\n' scripts "$s"
fi
