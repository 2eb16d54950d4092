#!/usr/bin/env python3
"""Fault-sweep smoke checks, run by ctest (label `smoke`).

    fault_sweep_smoke.py inject <fault_sweep binary> <work dir>
    fault_sweep_smoke.py determinism <fault_sweep binary> <work dir>

`inject` runs the sweep with its default (parallel) trial fan-out plus
metrics and trace output, and checks that the JSON parses with at least two
series, each over >= 3 stuck rates and >= 2 cell widths; that the trace
holds the mc_robustness span; and that the exposition carries every fault
metric series. `determinism` re-runs the sweep with serial trials in the
same directory and requires the JSON to match the parallel run's byte for
byte. The search budget is small (20 episodes); the Monte-Carlo grid is the
sweep's own.
"""
import json
import os
import shutil
import subprocess
import sys

EPISODES = "20"
FAULT_SERIES = (
    "autohet_fault_cells_total",
    "autohet_fault_stuck_cells_total",
    "autohet_fault_trials_total",
    "autohet_fault_trial_agreement_permille",
    "autohet_fault_accuracy_mean",
)


def run(binary, workdir, *args):
    subprocess.run([binary, *args], cwd=workdir, check=True,
                   stdout=subprocess.DEVNULL)


def inject(binary, workdir):
    os.makedirs(workdir, exist_ok=True)
    run(binary, workdir, EPISODES, "--metrics-out", "fault_metrics.prom",
        "--trace-out", "fault_trace.json")
    with open(os.path.join(workdir, "BENCH_fault_sweep.json")) as f:
        doc = json.load(f)
    assert len(doc["series"]) >= 2, "need AutoHet + a homogeneous baseline"
    for s in doc["series"]:
        rates = {p["stuck_rate"] for p in s["points"]}
        bits = {p["cell_bits"] for p in s["points"]}
        assert len(rates) >= 3 and len(bits) >= 2, (s["name"], rates, bits)
    with open(os.path.join(workdir, "fault_trace.json")) as f:
        trace_text = f.read()
    json.loads(trace_text)
    assert '"name":"mc_robustness"' in trace_text, "no mc_robustness span"
    with open(os.path.join(workdir, "fault_metrics.prom")) as f:
        metrics = f.read()
    for series in FAULT_SERIES:
        assert series in metrics, f"{series} missing from the exposition"
    shutil.copyfile(os.path.join(workdir, "BENCH_fault_sweep.json"),
                    os.path.join(workdir, "fault_sweep_parallel.json"))


def determinism(binary, workdir):
    run(binary, workdir, EPISODES, "1")
    with open(os.path.join(workdir, "fault_sweep_parallel.json"), "rb") as f:
        parallel = f.read()
    with open(os.path.join(workdir, "BENCH_fault_sweep.json"), "rb") as f:
        serial = f.read()
    assert parallel == serial, "serial-trial sweep JSON differs from parallel"


def main():
    if len(sys.argv) != 4 or sys.argv[1] not in ("inject", "determinism"):
        sys.exit(__doc__)
    check = inject if sys.argv[1] == "inject" else determinism
    check(os.path.abspath(sys.argv[2]), os.path.abspath(sys.argv[3]))
    print(f"fault_sweep {sys.argv[1]} smoke: ok")


if __name__ == "__main__":
    main()
