#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload busy --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
simulator library (../src) and the perfbench driver into
.bench_build/perfbench with CMake (Release); later calls only check the
build is up to date. The driver's last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; this script checks that it
names exactly the metrics BENCHMARK.json lists for the mode (end_to_end
with --trace 0, per_layer with --trace 1), each with its declared unit,
and re-prints it as its own last line. Build or run failures exit
non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("simulator sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise RuntimeError(f"unexpected result keys {sorted(result)}")
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing "
                           f"{missing}, extra {extra}, wrong unit {wrong}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["busy", "chase", "campaign", "resume"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        binary = build()
        cmd = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", str(ROOT / ".bench_build" / "work")]
        if args.trace:
            cmd += ["--spans", str(ROOT / ".bench_build" / "spans" /
                                   f"{args.workload}-seed{args.seed}.jsonl")]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"driver exited with {proc.returncode}")
        result = check_result(lines[-1], args.trace)
    except (RuntimeError, OSError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
