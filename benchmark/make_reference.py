"""Record the reference values for the benchmark's statistical output check.

    python3 benchmark/make_reference.py

Runs `bmnet evolve` on every workload for seeds 1..SEEDS and writes
`benchmark/reference.json`.  Every row must converge and carry a KS
p-value.  For LN mu, LN s, IGa alpha and GIGa gamma_hat at each fit time
it stores the mean over the seeds and a tolerance of TOL_SDS standard
deviations, so any workload seed passes while a wrong drift, noise or fit
does not.  The check does not ask for byte equality with these runs: a
change of summation order legitimately moves the last bits.
"""

from __future__ import annotations

import csv
import json
import shutil
import statistics
import sys
import time

import run

SEEDS = 12
TOL_SDS = 6.0


def main() -> int:
    workdir = run.RUNS_DIR / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    reference = {"seeds": list(range(1, SEEDS + 1)),
                 "tolerance": f"{TOL_SDS:g} standard deviations over the seeds",
                 "workloads": {}}
    try:
        for workload in run.DOMINANT_LAYER:
            config = run.WORKLOAD_DIR / f"{workload}.ini"
            values = {}
            for seed in reference["seeds"]:
                out = workdir / f"{workload}-{seed}"
                child = run.run_child(
                    [sys.executable, "-c", run.EVOLVE_CODE, "evolve",
                     "--config", str(config), "--seed", str(seed),
                     "--out", str(out)],
                    time.perf_counter() + run.HARD_DEADLINE_S, workdir,
                    f"{workload}-{seed}")
                if child.returncode != 0:
                    print(child.stderr, file=sys.stderr)
                    return 1
                with open(out / "evolution.csv", newline="") as fh:
                    for row in csv.DictReader(fh):
                        if not (row["converged"] == "true" and row["ks_stat"]
                                and row["p_value"]):
                            print(f"{workload} seed {seed}: row {row} did "
                                  f"not converge", file=sys.stderr)
                            return 1
                        for col in run.REFERENCE_COLUMNS.get(row["family"], ()):
                            key = (f"{row['family']}.{col}",
                                   repr(float(row["t"])))
                            values.setdefault(key, []).append(float(row[col]))
                print(f"{workload} seed {seed}: {child.wall_s:.2f} s",
                      flush=True)
            entry = reference["workloads"][workload] = {}
            for (name, t), vals in sorted(values.items()):
                entry.setdefault(name, {})[t] = {
                    "mean": statistics.mean(vals),
                    "sd": statistics.stdev(vals),
                    "tol": TOL_SDS * statistics.stdev(vals)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                             + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
