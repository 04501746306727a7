"""Steadiness check: run workloads on several seeds and report the spread.

    python3 benchmark/steadiness.py [--first-seed 1]

Runs the command of BENCHMARK.json on every workload for RUNS seeds from
--first-seed on, with its `run_seconds` and tracing off.  For every
end-to-end metric it prints the median and quartiles of the per-run values
(Python's `statistics.quantiles(values, n=4)`) and the spread
(q3 - q1) / median.  A spread above the metric's bound is flagged FAIL,
and one above a third of the bound is flagged WIDE; the exit code is 1
when any spread is flagged FAIL or any run is incorrect.  Takes about
20 minutes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def summarize(values, bound) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    flag = ("" if spread <= bound / 3 else
            "WIDE" if spread <= bound else "FAIL")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "flag": flag, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        per_metric = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + RUNS):
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            failed |= not result["correct"]
            for name in bounds:
                per_metric[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.4f}" for n, v in per_metric.items()),
                flush=True)
        summary[workload] = {
            name: summarize(values, bounds[name])
            for name, values in per_metric.items()}
        failed |= any(s["flag"] == "FAIL" for s in summary[workload].values())
    print(f"{'workload':18s} {'metric':12s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>8s} {'bound':>6s}")
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            print(f"{workload:18s} {name:12s} {s['median']:10.4f} "
                  f"{s['q1']:10.4f} {s['q3']:10.4f} {s['spread']:8.4f} "
                  f"{s['bound']:6.2f} {s['flag']}")
    print(json.dumps(summary))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
