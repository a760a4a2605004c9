#!/bin/sh
# The mutant x battery matrix. Applies each one-line mutant in this
# directory, one at a time, to a scratch copy of commit REV; builds every
# listed test target once per mutant, then runs each. Prints one line per
# pair, `mutant target verdict`: killed (the target failed), survived (it
# passed) or no-build (the mutant does not compile). A target is a test
# target's name in any workspace package. CI's manual `mutants` job runs
# it; the matrix it produced is in EXPERIMENTS.md.
#
#   tests/mutants/run.sh REV SCRATCH_DIR TARGET...
#   tests/mutants/run.sh HEAD /tmp/mutants golden_run packed_equivalence construction
set -eu
here=$(cd "$(dirname "$0")" && pwd)
rev=$1
scratch=$2
shift 2
tree="$scratch/tree"
rm -rf "$tree"
mkdir -p "$tree"
# -m: fresh mtimes, or cargo would reuse SCRATCH_DIR's artifacts of a
# previous run's last mutant for these (older) sources.
git -C "$here/../.." archive "$rev" | tar -x -m -C "$tree"
export CARGO_TARGET_DIR="$scratch/target"
cd "$tree"
selected=""
for t in "$@"; do
    selected="$selected --test $t"
done
# Word splitting of $selected is intended: one `--test` flag per target.
# shellcheck disable=SC2086
build() { cargo test --offline -q --workspace --no-run $selected >/dev/null 2>&1; }
run() { cargo test --offline -q --workspace --test "$1" >/dev/null 2>&1; }
build || { echo "baseline does not build at $rev: no verdicts" >&2; exit 1; }
for t in "$@"; do
    run "$t" || { echo "baseline fails $t at $rev: no verdicts" >&2; exit 1; }
done
for patch in "$here"/*.patch; do
    name=$(basename "$patch" .patch)
    patch -p1 -s <"$patch"
    built=yes
    build || built=no
    for t in "$@"; do
        if [ "$built" = no ]; then
            verdict=no-build
        elif run "$t"; then
            verdict=survived
        else
            verdict=killed
        fi
        echo "$name $t $verdict"
    done
    patch -p1 -R -s <"$patch"
done
