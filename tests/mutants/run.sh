#!/bin/sh
# The mutant x battery matrix. Applies each one-line mutant in this
# directory, one at a time, to a scratch copy of commit REV; builds every
# listed test target once per mutant, then runs each. Prints the targets on
# one line, then one line per mutant: a mark per target, in that order, and
# the mutant's name. The mark is K (killed: the target failed), . (survived:
# it passed) or B (no-build: the mutant does not compile). A target is a test
# target's name in any workspace package, or `PACKAGE:lib` for a package's
# unit tests (`cargo test -p PACKAGE --lib`); a target that drives a
# binary, such as `cli`, drives the one built from the mutated copy. CI's
# manual `mutants` job runs it; the matrix it produced is in EXPERIMENTS.md.
#
#   tests/mutants/run.sh REV SCRATCH_DIR TARGET...
#   tests/mutants/run.sh HEAD /tmp/mutants golden_run construction mesh-engine:lib
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
# The cargo flags that select one target. Word splitting of their output is
# intended: one flag per word.
flags() {
    case $1 in
    *:lib) echo "-p ${1%:lib} --lib" ;;
    *) echo "--workspace --test $1" ;;
    esac
}
# shellcheck disable=SC2046
build() {
    for t in "$@"; do
        cargo test --offline -q --no-run $(flags "$t") >/dev/null 2>&1 || return 1
    done
}
# shellcheck disable=SC2046
run() { cargo test --offline -q $(flags "$1") >/dev/null 2>&1; }
build "$@" || { echo "baseline does not build at $rev: no verdicts" >&2; exit 1; }
for t in "$@"; do
    run "$t" || { echo "baseline fails $t at $rev: no verdicts" >&2; exit 1; }
done
echo "$*"
for patch in "$here"/*.patch; do
    patch -p1 -s <"$patch"
    marks=
    if build "$@"; then
        for t in "$@"; do
            if run "$t"; then marks="$marks."; else marks="${marks}K"; fi
        done
    else
        for t in "$@"; do marks="${marks}B"; done
    fi
    echo "$marks $(basename "$patch" .patch)"
    patch -p1 -R -s <"$patch"
done
