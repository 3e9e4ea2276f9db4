#!/usr/bin/env python3
"""Simulator-speed gate over the repository benchmark.

    python3 tools/perf_gate.py

Run from the repository root. For the busy and chase workloads it runs
`python3 perfbench/run.py --trace 0` for SECONDS (seed 1) and multiplies the
reported kips by the calib_ns_per_iter of the same run: the calibration
loop is a fixed integer loop timed in the same process, so the product
cancels most of the host's speed. The gate fails when a product falls
below its floor in FLOORS, or when the run reports a failed check.

The floors are 0.65 of the median products of six clean 5-second runs
on a shared 4-vCPU x86-64 VM (busy 4890, chase 6430; single runs
spread about +-20%). A 2x slowdown halves the product and fails, while
a clean run keeps about a 35% margin for host noise. The floors are
unverified on any other host: the ratio of simulator speed to the
integer calibration loop differs between CPU microarchitectures, and
calib_ns_per_iter is timed after the run, so it does not cancel load.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLOORS = {"busy": 3180.0, "chase": 4180.0}
SECONDS = 5  # the run length the floors were measured at


def measure(workload):
    """(kips, calib_ns_per_iter, result) of one untraced perfbench run."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", str(SECONDS),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: perfbench exited {proc.returncode}"
                           f"\n{proc.stderr[-2000:]}")
    *rest, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    info = next(json.loads(l)["info"] for l in reversed(rest)
                if l.startswith('{"info"'))
    return result["metrics"]["kips"]["value"], info["calib_ns_per_iter"], result


def main():
    failed = False
    for workload, floor in FLOORS.items():
        try:
            kips, calib, result = measure(workload)
        except (RuntimeError, OSError, ValueError, KeyError,
                StopIteration, subprocess.SubprocessError) as e:
            print(f"FAIL {workload}: {e}")
            failed = True
            continue
        score = kips * calib
        ok = result["correct"] and result["failed"] == 0 and score >= floor
        failed |= not ok
        print(f"{'ok' if ok else 'FAIL'} {workload}: kips {kips:.0f} x "
              f"calib_ns_per_iter {calib:.3f} = {score:.0f} (floor "
              f"{floor:.0f}), {result['failed']}/{result['attempted']} "
              f"checks failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
