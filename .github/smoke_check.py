#!/usr/bin/env python3
"""Counted-metric smoke gate for the repository benchmark.

Runs every workload of BENCHMARK.json at `--smoke --seed 1 --trace 0` and
compares the counted metrics with .github/smoke-baseline.json: a simulated
counter may not differ at all, an allocation or heap counter may not be
worse by more than BENCHMARK.json's own bound for it. `--record` rewrites the
baseline from this build instead (commit the result with the change that
moved it, and say why).
"""
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE = ROOT / ".github" / "smoke-baseline.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SIMULATED = ["sim_steps", "sim_moves", "max_queue", "delivered_frac"]
ALLOCATION = ["allocs", "alloc_mb", "peak_heap_mb"]
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def measure(workload):
    cmd = SPEC["command"] + ["--smoke", "--workload", workload, "--seed", "1"]
    cmd += ["--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, (workload, result)
    return {m: result["metrics"][m]["value"] for m in SIMULATED + ALLOCATION}


def main():
    got = {w["name"]: measure(w["name"]) for w in SPEC["workloads"]}
    if sys.argv[1:] == ["--record"]:
        BASELINE.write_text(json.dumps(got, indent=2) + "\n")
        return 0
    want = json.loads(BASELINE.read_text())
    errors = []
    for name, base in want.items():
        for m in SIMULATED:
            if got[name][m] != base[m]:
                errors.append(f"{name}: {m} {base[m]} -> {got[name][m]} (must not move)")
        for m in ALLOCATION:
            if got[name][m] > base[m] * (1 + BOUND[m]):
                errors.append(f"{name}: {m} {base[m]} -> {got[name][m]} (bound {BOUND[m]})")
        print(name, " ".join(f"{m}={got[name][m]:g}" for m in SIMULATED + ALLOCATION))
    if set(got) != set(want):
        errors.append(f"workloads differ from the baseline's: {sorted(set(got) ^ set(want))}")
    # Two facts no baseline can drift away from: hot-potato on the one policy
    # surface allocates per run, not per node (a Vec per node again is ~0.76
    # allocations per move), and perm-tiled, which only sets SimConfig's two
    # inert fields, is perm-packed's run on the one step loop.
    if got["perm-view"]["allocs"] >= 1000:
        errors.append(f"perm-view: {got['perm-view']['allocs']} allocations, want < 1000")
    if got["perm-packed"]["allocs"] != got["perm-tiled"]["allocs"]:
        errors.append("perm-packed and perm-tiled allocate differently")
    for e in errors:
        print("FAIL", e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
