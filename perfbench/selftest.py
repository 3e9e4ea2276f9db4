#!/usr/bin/env python3
"""Self-test of the benchmark: run every workload at minimal length.

    python3 perfbench/selftest.py

Run from the repository root. For each workload in BENCHMARK.json, in
both modes, it runs run.py for one second and checks that the result
names every metric of the mode with its unit, that every operation
succeeded (fail_frac = failed / attempted is 0), and that the traced
run shows the designed contrast between busy and chase. Exits non-zero
on the first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit "
                             f"{proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = {}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for w in spec["workloads"]:
            r = run(w["name"], trace)
            for m in spec[key]:
                got = r["metrics"].get(m["name"])
                assert got is not None, f"{w['name']}: no {m['name']}"
                assert got["unit"] == m["unit"], f"{m['name']}: unit {got}"
                assert isinstance(got["value"], (int, float))
            assert r["attempted"] >= 1 and r["failed"] == 0 and r["correct"], \
                f"{w['name']} trace={trace}: {r['failed']}/{r['attempted']} failed"
            if trace:
                traced[w["name"]] = r["metrics"]
            print(f"ok {w['name']} trace={trace} "
                  f"({r['attempted']} checks, fail_frac 0)")
    skipped = {w: m["harness.skipped_frac"]["value"] for w, m in traced.items()}
    assert skipped["chase"] > 0.9, skipped
    assert skipped["busy"] < 0.05, skipped
    print("ok skipped_frac contrast", skipped)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"FAIL {e}", file=sys.stderr)
        sys.exit(1)
