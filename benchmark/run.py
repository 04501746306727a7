"""The bmnet benchmark: one workload, run as real `bmnet evolve` processes.

Run from the root of a checkout:

    python3 benchmark/run.py --workload ring-taylor15 --seed 1 --seconds 35 --trace 0

Load model: a closed loop with one client.  One child process runs at a
time; each is a fresh interpreter running the installed entry point's code
(`bmnet.cli.main`) from this checkout's `src/`.  The workload seed reaches
the program only as `--seed`.

With `--trace 0` the run measures the end-to-end metrics:

* `setup_s`: import of bmnet plus `bmnet.config.load_config` on the
  workload config, timed inside a fresh process (parsing, topology build
  and coupling-operator construction); median over two processes
  before each evolve repeat.
* `wall_s`: one `bmnet evolve` process from spawn to exit; median over the
  repeats that fit in `--seconds`.
* `peak_rss_mb`: peak resident memory of that process (`os.wait4`), MiB.

Every evolve repeat uses the same seed, and its outputs are checked: exit
code 0, the row layout of `evolution.csv`, every row converged with
finite parameters and p-values in [0, 1], byte-identical files across
repeats, and LN mu, s, IGa alpha and GIGa gamma_hat within a statistical
tolerance of `reference.json`.  Failed repeats count in
`failed` against `attempted` (the base of failed_frac: evolve processes
started in this run).

With `--trace 1` the run alternates untraced and traced evolve processes
and reports the per-layer metrics derived from the traced runs' spans
(see `traced_evolve.py` and `spans.py`).  It also checks that the
workload's dominant layer takes more than DOMINANT_MIN_SHARE of the traced
process's wall time, and prints the outcome.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from statistics import median
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_DIR = BENCH_DIR / "workloads"
REFERENCE = BENCH_DIR / "reference.json"
RUNS_DIR = ROOT / ".bench_runs"

# layer that must dominate each workload's traced wall time
DOMINANT_LAYER = {
    "ring-taylor15": "engine",
    "eft-bootstrap": "gof",
    "smallworld-n1000": "engine",
}
DOMINANT_MIN_SHARE = 0.75

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

PROBES_PER_EVOLVE = 2
# an odd median: one evolve slowed by a busy machine does not move it
MIN_EVOLVES = 3
# every child must end before this many seconds into the run, so the
# whole run exits within 180 s even if a child hangs
HARD_DEADLINE_S = 170.0

EVOLVE_CODE = "import sys; from bmnet.cli import main; sys.exit(main())"
GIGA_COLUMNS = ("alpha", "beta", "gamma", "gamma_hat", "alpha_gamma_hat")
PARAM_COLUMNS = {"LN": ("mu", "s"), "IGa": GIGA_COLUMNS, "GIGa": GIGA_COLUMNS}
# columns compared with reference.json
REFERENCE_COLUMNS = {"LN": ("mu", "s"), "IGa": ("alpha",),
                     "GIGa": ("gamma_hat",)}
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot produce a result (broken checkout or program)."""


@dataclass
class Child:
    returncode: int
    start: float
    wall_s: float
    peak_rss_mb: float
    timed_out: bool
    stdout: str
    stderr: str


def run_child(argv, deadline, workdir: Path, name: str) -> Child:
    """Run one child to completion, timing it from spawn to exit.

    The child is killed if it is still running at ``deadline`` (a
    ``time.perf_counter`` value).  Peak RSS comes from ``os.wait4``.
    """
    out_path = workdir / f"{name}.stdout"
    err_path = workdir / f"{name}.stderr"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    killed = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)

        def kill():
            killed.append(True)
            try:
                # not reaped before wait4 returns, so the pid is still ours
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(max(0.0, deadline - start), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            timer.cancel()
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(returncode=proc.returncode, start=start, wall_s=wall,
                 peak_rss_mb=usage.ru_maxrss / 1024.0, timed_out=bool(killed),
                 stdout=out_path.read_text(errors="replace"),
                 stderr=err_path.read_text(errors="replace"))


# -- workloads ---------------------------------------------------------------

def tiny_config(text: str) -> str:
    """Shrink a workload config to a few steps, N = 200 and B = 2.

    Used only by the benchmark's smoke test; the statistical reference
    check is skipped for such runs.
    """
    tiny = {"N": "200", "t_end": "0.1", "snapshot_times": "0.1",
            "fit_times": "0.1", "bootstrap_B": "2"}
    lines = []
    for line in text.splitlines():
        key = line.split("=")[0].strip()
        lines.append(f"{key} = {tiny[key]}" if "=" in line and key in tiny
                     else line)
    return "\n".join(lines) + "\n"


def config_value(text: str, key: str) -> str:
    m = re.search(rf"^\s*{re.escape(key)}\s*=\s*(.+?)\s*$", text, re.M)
    if m is None:
        raise BenchError(f"workload config has no {key!r}")
    return m.group(1)


def prepare_workload(name: str, workdir: Path, tiny: bool):
    src = WORKLOAD_DIR / f"{name}.ini"
    text = src.read_text()
    if tiny:
        text = tiny_config(text)
    path = workdir / f"{name}.ini"
    path.write_text(text)
    fit_times = [float(v) for v in config_value(text, "fit_times").split(",")]
    families = [v.strip() for v in config_value(text, "families").split(",")]
    return path, fit_times, families


# -- output checks -----------------------------------------------------------

def _finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def check_evolution(out_dir: Path, fit_times, families, reference) -> list:
    """Problems found in one evolve output directory (empty when correct).

    With a ``reference`` (full-size runs) every row must have converged
    and carry a KS statistic and p-value: a fit or bootstrap that fails
    leaves an empty row, which must not pass as correct.
    """
    problems = []
    csv_path = out_dir / "evolution.csv"
    manifest_path = out_dir / "manifest.json"
    if not csv_path.is_file() or not manifest_path.is_file():
        return ["evolution.csv or manifest.json missing"]
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = [(t, f) for t in fit_times for f in families]
    got = [(float(r["t"]), r["family"]) for r in rows]
    if got != expected:
        return [f"evolution.csv rows {got} != expected {expected}"]
    for r in rows:
        where = f"t={r['t']} {r['family']}"
        if reference is not None and not (
                r["converged"] == "true" and r["ks_stat"] and r["p_value"]):
            problems.append(f"{where}: not converged or no KS p-value")
        if r["converged"] == "true":
            bad = [c for c in PARAM_COLUMNS[r["family"]] + ("loglik",)
                   if not _finite(r[c])]
            if bad:
                problems.append(f"{where}: non-finite {bad}")
        for col in ("ks_stat", "p_value"):
            if r[col] and not (_finite(r[col]) and 0.0 <= float(r[col]) <= 1.0):
                problems.append(f"{where}: {col}={r[col]} outside [0, 1]")
        if reference is None:
            continue
        for col in REFERENCE_COLUMNS.get(r["family"], ()):
            ref = reference[f"{r['family']}.{col}"][repr(float(r["t"]))]
            value = float(r[col]) if _finite(r[col]) else math.nan
            if not abs(value - ref["mean"]) <= ref["tol"]:
                problems.append(
                    f"{where}: {col}={value} outside reference "
                    f"{ref['mean']:.6g} +- {ref['tol']:.3g}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("command") != "evolve" or \
            manifest.get("outputs") != ["evolution.csv"]:
        problems.append("manifest.json does not describe an evolve run")
    return problems


def output_bytes(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class EvolveRunner:
    """Launches evolve repeats with one seed and checks every output."""

    def __init__(self, workload, seed, workdir, deadline, tiny):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.config, self.fit_times, self.families = prepare_workload(
            workload, workdir, tiny)
        self.reference = None if tiny else \
            json.loads(REFERENCE.read_text())["workloads"][workload]
        self.first_outputs = None
        self.last_output_bytes = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def evolve_argv(self, out_dir):
        return ["evolve", "--config", str(self.config),
                "--seed", str(self.seed), "--out", str(out_dir)]

    def run(self, argv_prefix, tag) -> Child:
        k = self.attempted
        self.attempted += 1
        out_dir = self.workdir / f"out{k}"
        child = run_child(argv_prefix + self.evolve_argv(out_dir),
                          self.deadline, self.workdir, f"{tag}{k}")
        problems = []
        if child.timed_out:
            problems.append("timed out")
        elif child.returncode != 0:
            problems.append(f"exit code {child.returncode}: "
                            f"{child.stderr.strip()[-500:]}")
        else:
            problems = check_evolution(out_dir, self.fit_times, self.families,
                                       self.reference)
            files = output_bytes(out_dir)
            if self.first_outputs is None:
                self.first_outputs = files
            elif files != self.first_outputs:
                problems.append("outputs differ from the first repeat "
                                "with the same seed")
            self.last_output_bytes = sum(len(b) for b in files.values())
        shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems.extend(f"{tag} repeat {k}: {p}" for p in problems)
        return child


# -- machine record ------------------------------------------------------------

def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_info(versions: dict, seed: int) -> dict:
    cpu = re.search(r"^model name\s*:\s*(.+)$", _read("/proc/cpuinfo"), re.M)
    mem = re.search(r"^MemTotal:\s*(\d+) kB", _read("/proc/meminfo"), re.M)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size").strip()
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.group(1) if cpu else platform.processor(),
        "caches": caches,
        "ram_mib": int(mem.group(1)) // 1024 if mem else None,
        "platform": platform.platform(),
        **versions,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": commit,
        "workload_seed": seed,
    }


# -- one run -----------------------------------------------------------------

def setup_probe(workload_config, seed, deadline, workdir, name) -> dict:
    child = run_child([sys.executable, str(BENCH_DIR / "setup_probe.py"),
                       str(workload_config), str(seed)],
                      deadline, workdir, name)
    if child.returncode != 0:
        raise BenchError(f"setup probe failed (exit {child.returncode}): "
                         f"{child.stderr.strip()[-2000:]}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def measure(args, workdir: Path, start: float) -> dict:
    deadline = start + HARD_DEADLINE_S
    budget_end = start + args.seconds
    runner = EvolveRunner(args.workload, args.seed, workdir, deadline,
                          args.tiny)
    # warm-up: proves the checkout's bmnet imports, and fills the bytecode
    # and file caches that every later process would otherwise pay for once
    warm = setup_probe(runner.config, args.seed, deadline, workdir, "warmup")
    expected_init = str(SRC / "bmnet" / "__init__.py")
    if warm["bmnet_file"] != expected_init:
        raise BenchError(f"bmnet imported from {warm['bmnet_file']}, "
                         f"not from {expected_init}")
    info = machine_info(warm["versions"], args.seed)
    evolve = [sys.executable, "-c", EVOLVE_CODE]

    def more(durations):
        if len(durations) < MIN_EVOLVES:
            return True
        return time.perf_counter() + median(durations) <= budget_end

    result = {"machine": info, "workload": args.workload,
              "trace": args.trace, "tiny": args.tiny}
    if not args.trace:
        setup, children, cycles = [], [], []

        def probe():
            setup.append(setup_probe(runner.config, args.seed, deadline,
                                     workdir, f"probe{len(setup)}")["setup_s"])

        # the machine's speed changes within seconds, so the probes are
        # spread over the run instead of taken in one burst
        while more(cycles):
            cycle_start = time.perf_counter()
            for _ in range(PROBES_PER_EVOLVE):
                probe()
            children.append(runner.run(evolve, "evolve"))
            cycles.append(time.perf_counter() - cycle_start)
        walls = [c.wall_s for c in children]
        rss = [c.peak_rss_mb for c in children]
        result["samples"] = {"wall_s": walls, "setup_s": setup,
                             "peak_rss_mb": rss}
        result["metrics"] = {"wall_s": median(walls), "setup_s": median(setup),
                             "peak_rss_mb": median(rss)}
    else:
        traced_prefix = [sys.executable, str(BENCH_DIR / "traced_evolve.py")]
        plain, traced = [], []
        while more([p.wall_s + t["wall_s"] for p, t in zip(plain, traced)]):
            plain.append(runner.run(evolve, "evolve"))
            k = runner.attempted
            trace_path = workdir / f"spans{k}.json"
            child = runner.run(traced_prefix + [str(trace_path), str(k)],
                               "traced")
            if child.returncode != 0 or not trace_path.is_file():
                raise BenchError(f"traced evolve failed: "
                                 f"{child.stderr.strip()[-2000:]}")
            doc = json.loads(trace_path.read_text())
            trace_path.unlink()
            # spawn to the end of the command: the replay, writing the
            # spans and interpreter exit that follow are left out
            traced.append({"wall_s": doc["main_end"] - child.start,
                           "doc": doc})
        per_run = [spans.layer_metrics(t["doc"], DOMINANT_LAYER[args.workload],
                                       t["wall_s"])
                   for t in traced]
        # counts repeat exactly with one seed: report them as counted
        metrics = {name: per_run[0][name]
                   if spans.PER_LAYER_UNITS[name] == "count"
                   else median([m[name] for m in per_run])
                   for name in per_run[0]}
        metrics["cli.output_bytes"] = runner.last_output_bytes
        metrics["trace.overhead_s"] = (median([t["wall_s"] for t in traced])
                                       - median([p.wall_s for p in plain]))
        result["dynamics_kind"] = traced[0]["doc"]["dynamics_kind"]
        result["dominant_layer"] = DOMINANT_LAYER[args.workload]
        result["samples"] = {"untraced_wall_s": [p.wall_s for p in plain],
                             "traced_wall_s": [t["wall_s"] for t in traced]}
        result["metrics"] = metrics
    result.update(attempted=runner.attempted, failed=runner.failed,
                  problems=runner.problems)
    return result


def report(result) -> dict:
    """Print the human-readable summary; return the final JSON object."""
    trace = result["trace"]
    units = spans.PER_LAYER_UNITS if trace else END_TO_END_UNITS
    missing = set(units) - set(result["metrics"])
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {result['workload']}  seed "
          f"{result['machine']['workload_seed']}  trace {trace}"
          f"{'  (tiny smoke-test size)' if result['tiny'] else ''}")
    print("machine: " + json.dumps(result["machine"], sort_keys=True))
    for name, values in result["samples"].items():
        print(f"samples {name} (n={len(values)}): "
              + ", ".join(f"{v:.4f}" for v in values))
    if trace:
        print(f"drift dynamics kind: {result['dynamics_kind']}; replayed "
              f"(timed on the run's own snapshots, outside the bootstrap): "
              + ", ".join(spans.REPLAYED))
        share = result["metrics"]["trace.dominant_share_process"]
        verdict = "ok" if share > DOMINANT_MIN_SHARE else "TOO SMALL"
        print(f"dominant layer {result['dominant_layer']}: {share:.3f} of the "
              f"traced process wall (needs > {DOMINANT_MIN_SHARE}): {verdict}")
    for name in units:
        value = result["metrics"][name]
        print(f"  {name:36s} {value:>14.6g} {units[name]}")
    print(f"  {'failed_frac':36s} {failed / attempted:>14.6g} fraction "
          f"({failed} of {attempted} evolve processes in this run failed)")
    for problem in result["problems"]:
        print(f"FAILED CHECK: {problem}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": result["metrics"][name],
                               "unit": units[name]} for name in units}}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(DOMINANT_LAYER))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to a few steps (smoke test "
                             "only; skips the reference check)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    start = time.perf_counter()
    if not (SRC / "bmnet" / "__init__.py").is_file():
        print(f"error: no bmnet sources at {SRC}", file=sys.stderr)
        return 2
    RUNS_DIR.mkdir(exist_ok=True)
    workdir = RUNS_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        result = measure(args, workdir, start)
        final = report(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
