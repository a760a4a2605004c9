#!/bin/sh
# Applies each one-line mutant in this directory, one at a time, to a
# scratch copy of commit REV and runs one cargo test target there. Prints
# one verdict per mutant: killed (the target failed), survived (it passed)
# or no-build (the mutant does not compile). Nothing in CI runs this; the
# kill table it produced is in EXPERIMENTS.md.
#
#   tests/mutants/run.sh REV SCRATCH_DIR CARGO_TEST_ARGS...
#   tests/mutants/run.sh HEAD /tmp/mutants -p mesh-routing --test packed_equivalence
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
if ! cargo test --offline -q "$@" >/dev/null 2>&1; then
    echo "baseline fails at $rev: no verdicts" >&2
    exit 1
fi
for patch in "$here"/*.patch; do
    patch -p1 -s <"$patch"
    if ! cargo test --offline -q --no-run "$@" >/dev/null 2>&1; then
        verdict=no-build
    elif cargo test --offline -q "$@" >/dev/null 2>&1; then
        verdict=survived
    else
        verdict=killed
    fi
    patch -p1 -R -s <"$patch"
    echo "$(basename "$patch" .patch) $verdict"
done
