#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced. Asserts that every metric BENCHMARK.json names is printed with its
unit (both as a `metric <name> <value> <unit>` line and in the result
object) and that every output check passes.

    python3 perfbench/quick_test.py      # from the repository root
"""
import json
import os
import subprocess
import sys

ROOT = os.getcwd()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            kind = "per_layer" if trace else "end_to_end"
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace),
                 "--quick"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            tag = f"{workload} trace={trace}"
            if proc.returncode != 0:
                failures.append(f"{tag}: exit {proc.returncode}\n"
                                f"{proc.stderr[-2000:]}")
                continue
            lines = proc.stdout.strip().split("\n")
            result = json.loads(lines[-1])
            printed = {}
            for line in lines[:-1]:
                parts = line.split()
                if len(parts) == 4 and parts[0] == "metric":
                    float(parts[2])
                    printed[parts[1]] = parts[3]
            if printed != expected:
                failures.append(f"{tag}: printed metrics {printed} != "
                                f"{expected}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected:
                failures.append(f"{tag}: result metrics {units} != "
                                f"{expected}")
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                failures.append(f"{tag}: checks failed: " + "; ".join(
                    l for l in lines if l.startswith("CHECK FAILED")))
            print(f"ok {tag}: {result['attempted']} checks, "
                  f"{len(units)} metrics", flush=True)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
