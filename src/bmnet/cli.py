"""Command-line driver: simulate, evolve, theta, convergence, reproduce.

Every command is a deterministic function of (config, seed): reruns
produce byte-identical outputs.  CSV files use full-precision floats and
``\\n`` line endings; JSON files use UTF-8 with sorted keys.  Output
files are written atomically (temp then rename).  Exit codes: 0 success,
2 config or usage error, 3 runtime numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import engine
from .config import (ExperimentConfig, config_to_text, load_config, load_model,
                     parse_config_text)
from .distributions import stationary_giga, theta_of_gamma
from .engine import simulate, strong_convergence_study
from .errors import ConfigError, PositivityError
from .gof import DEFAULT_BOOTSTRAP_B, GofReport, ks_pvalue_bootstrap

_DEFAULT_SIGMA2 = 0.05
_DEFAULT_J = 0.1
_DEFAULT_CONVERGENCE_DTS = [2.0 ** -k for k in range(4, 10)]
_HISTOGRAM_BINS = 50

# Raised whenever a change alters a random stream or a float summation
# order, and so the output bytes for an unchanged config.  2: the ring
# lattice coupling became a prefix-sum window over the centred state.
# 3: the inner gamma MLE became a Newton solve (warm-started during the
# GIGa golden-section search), so fitted alpha, beta and loglik change
# in about the 12th digit.  4: the GIGa exponent search became a
# safeguarded Newton solve on the profile score, after a scan whose
# powers come by recursion, so the GIGa rows change; LN and IGa rows do
# not.  5: the Taylor step sums a factored update and one Jacobian
# product, so Taylor runs change in about the 15th digit; Milstein's do not.
# 6: the Milstein step sums w m + dt f with a per-step noise factor m, so
# Milstein runs change in about the 15th digit; Taylor runs do not.  The
# reproduce manifest lists each run with its label, config and outputs.
# 7: the complete graph applies the mean-field law J (wbar - w), so its
# runs change in about the 15th digit and equal mean-field runs of the
# same seed; no other run changes.
FORMAT_VERSION = 7

EVOLUTION_HEADER = ("t,family,alpha,beta,gamma,mu,s,gamma_hat,"
                    "alpha_gamma_hat,loglik,ks_stat,p_value,converged")


def _fmt(x) -> str:
    """Full-precision decimal text for a float; empty for missing."""
    if x is None:
        return ""
    return repr(float(x))


def _make_dir(path) -> None:
    """Create the output directory ``path`` unless it exists; a path that
    cannot be one is a ConfigError, so callers check it before any work."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use {path} as the output directory: "
                          f"{exc.strerror or exc}") from exc


def _write_atomic(path, data: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _write_json(path, obj) -> None:
    _write_atomic(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_snapshot_csv(path, snapshot) -> None:
    """One row per agent: t,agent,w."""
    lines = ["t,agent,w"]
    t_txt = _fmt(snapshot.t)
    lines.extend(f"{t_txt},{i},{_fmt(w)}" for i, w in enumerate(snapshot.w))
    _write_atomic(path, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class EvolutionRecord:
    """One (time, family) fitting outcome for the evolution table; a
    family whose fit failed has no report, only the error."""

    t: float
    family: str
    gof: GofReport | None
    error: str = ""

    def to_row(self) -> str:
        d = self.gof.to_json_dict() if self.gof else {"params": {}}
        cells = [_fmt(self.t), self.family,
                 *(_fmt(d["params"].get(k))
                   for k in ("alpha", "beta", "gamma", "mu", "s")),
                 *(_fmt(d.get(k)) for k in ("gamma", "alpha_gamma", "loglik",
                                             "ks_stat", "p_value")),
                 "true" if d.get("converged") else "false"]
        return ",".join(cells)


def evolution_records(config: ExperimentConfig, snapshots) -> list:
    """Fit and bootstrap every configured family at every fit time."""
    by_time = {}
    for snap in snapshots:
        by_time.setdefault(snap.t, snap)
    records = []
    for ti, t in enumerate(config.fit_times):
        samples = by_time[t].w
        for fi, family in enumerate(config.families):
            gof_seed = int(np.random.SeedSequence(
                [config.sim.seed, 7919, ti, fi]).generate_state(1)[0])
            try:
                gof = ks_pvalue_bootstrap(samples, family,
                                          config.bootstrap_b, gof_seed)
                records.append(EvolutionRecord(t=t, family=family, gof=gof))
            except ValueError as exc:  # DegenerateSampleError included
                records.append(EvolutionRecord(t=t, family=family, gof=None,
                                               error=str(exc)))
    return records


def write_evolution_csv(path, records) -> None:
    lines = [EVOLUTION_HEADER]
    lines.extend(r.to_row() for r in records)
    _write_atomic(path, "\n".join(lines) + "\n")


def write_histogram_csv(path, samples) -> None:
    """Log-spaced histogram of 50 bins with the bin edges recorded in the
    file."""
    x = np.asarray(samples, dtype=float)
    lo, hi = x.min() * 0.999, x.max() * 1.001
    edges = np.geomspace(lo, hi, _HISTOGRAM_BINS + 1)
    counts, _ = np.histogram(x, bins=edges)
    density = counts / (x.size * np.diff(edges))
    lines = ["bin_left,bin_right,count,density"]
    for k in range(_HISTOGRAM_BINS):
        lines.append(f"{_fmt(edges[k])},{_fmt(edges[k + 1])},"
                     f"{counts[k]},{_fmt(density[k])}")
    _write_atomic(path, "\n".join(lines) + "\n")


def _snapshot_filename(t: float) -> str:
    return f"snapshot_t{_fmt(t)}.csv"


def _manifest(command: str, config: ExperimentConfig, outputs) -> dict:
    return {"command": command, "config": config.sections,
            "config_text": config_to_text(config),
            "format_version": FORMAT_VERSION, "outputs": sorted(outputs)}


def _run_record(label: str, config: ExperimentConfig, outputs,
                error: str = "") -> dict:
    """One run of a ``reproduce`` manifest: its resolved config replays
    its own output files; a failed run has an error and no outputs."""
    record = {"label": label, "config_text": config_to_text(config),
              "outputs": sorted(outputs),
              "status": "failed" if error else "ok"}
    if error:
        record["error"] = error
    return record


def cmd_simulate(config_path, seed=None, out_dir=".") -> int:
    """Run one simulation; write one CSV per snapshot plus a manifest."""
    config = load_config(config_path, seed_override=seed)
    _make_dir(out_dir)
    try:
        snapshots = simulate(config.sim)
    except PositivityError as err:
        for snap in err.snapshots:
            write_snapshot_csv(
                os.path.join(out_dir, _snapshot_filename(snap.t)), snap)
        raise
    outputs = []
    for snap in snapshots:
        name = _snapshot_filename(snap.t)
        write_snapshot_csv(os.path.join(out_dir, name), snap)
        outputs.append(name)
    _write_json(os.path.join(out_dir, "manifest.json"),
                _manifest("simulate", config, outputs))
    return 0


def cmd_evolve(config_path, seed=None, out_dir=".") -> int:
    """Fit the configured families at each fit time; write evolution.csv."""
    config = load_config(config_path, seed_override=seed)
    if not config.families or not config.fit_times:
        raise ConfigError("evolve needs a [fit] section with families and fit_times")
    _make_dir(out_dir)
    # a PositivityError leaves through main(): exit 3 with its message
    records = evolution_records(config, simulate(config.sim))
    write_evolution_csv(os.path.join(out_dir, "evolution.csv"), records)
    _write_json(os.path.join(out_dir, "manifest.json"),
                _manifest("evolve", config, ["evolution.csv"]))
    return 0


def cmd_theta(J: float = _DEFAULT_J, sigma2: float = _DEFAULT_SIGMA2,
              out_dir: str = ".") -> int:
    """Tabulate (gamma, theta, alpha, beta) on a 101-point grid over (0, 1]."""
    if not (0 < J < np.inf and 0 < sigma2 < np.inf):
        raise ConfigError(f"J and sigma2 must be positive, got J={J}, "
                          f"sigma2={sigma2}")
    _make_dir(out_dir)
    lines = ["gamma,theta,alpha,beta"]
    for gamma in np.linspace(0.01, 1.0, 101):
        gamma = float(gamma)
        theta = theta_of_gamma(J, sigma2, gamma)
        p = stationary_giga(J, sigma2, gamma)
        lines.append(f"{_fmt(gamma)},{_fmt(theta)},{_fmt(p.alpha)},{_fmt(p.beta)}")
    _write_atomic(os.path.join(out_dir, "theta_table.csv"),
                  "\n".join(lines) + "\n")
    return 0


def cmd_convergence(scheme: str, dts=None, paths: int = 1000, seed: int = 0,
                    out_dir: str = ".") -> int:
    """Strong-order study against the exact uncoupled solution (J = 0)."""
    dts = list(dts) if dts else list(_DEFAULT_CONVERGENCE_DTS)
    _make_dir(out_dir)
    try:
        result = strong_convergence_study(scheme, dts, paths, seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _write_json(os.path.join(out_dir, f"convergence_{scheme}.json"), result)
    print(f"{scheme}: fitted slope {result['fitted_slope']:.3f}")
    return 0


# -- figure reproduction ----------------------------------------------------

FIGURE_DEFAULT_N = 10_000
FIGURE_DEFAULT_DT = 0.01
_EVOLUTION_TIMES = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 150.0, 200.0,
                    300.0, 500.0)
_LONG_EVOLUTION_TIMES = _EVOLUTION_TIMES + (1000.0, 1500.0, 2500.0)

# The published parameter sets, by figure: label prefix, dynamics kind,
# swept key and its values, scheme, t_end, snapshot and fit times, and
# whether the figure writes histogram tables.
_FIGURES = {
    1: ("regn_z", "ring", "z", (0.01,), engine.TAYLOR15, 2500.0,
        (1.0, 2500.0), True),
    2: ("rann_p", "smallworld", "p_sw", (0.003,), engine.MILSTEIN, 500.0,
        (1.0, 500.0), True),
    3: ("regn_z", "ring", "z", (0.1, 0.01, 0.003), engine.TAYLOR15, 2500.0,
        _LONG_EVOLUTION_TIMES, False),
    4: ("rann_p", "smallworld", "p_sw", (0.1, 0.003, 0.002, 0.001),
        engine.MILSTEIN, 500.0, _EVOLUTION_TIMES, False),
    5: ("eft_g", "eft", "gamma_eft", (0.8, 0.6, 0.5, 0.4), engine.MILSTEIN,
        500.0, _EVOLUTION_TIMES, False),
}


def build_figure_plan(figure: int, N: int, dt: float, bootstrap_b: int,
                      seed: int, t_end=None) -> list:
    """``(label, config)`` for every run of a figure, each config resolved,
    so a config error in any run raises before any run is stepped.  A
    ``t_end`` below the figure's own keeps the figure times up to it."""
    if figure not in _FIGURES:
        raise ConfigError(f"unknown figure id {figure}; expected 1-5")
    prefix, kind, key, values, scheme, t_full, all_times, _ = _FIGURES[figure]
    t_end = t_full if t_end is None else t_end
    times = tuple(t for t in all_times if t <= t_end)
    if not times:
        raise ConfigError(f"t_end = {t_end!r} keeps none of figure {figure}'s "
                          f"times {all_times}")
    times_txt = ", ".join(repr(t) for t in times)
    plan = []
    for value in values:
        label = f"{prefix}{value:g}"
        text = "\n".join([
            "[model]",
            f"sigma2 = {_DEFAULT_SIGMA2!r}",
            f"J = {_DEFAULT_J!r}",
            "[dynamics]",
            f"kind = {kind}",
            f"{key} = {value!r}",
            "[run]",
            f"N = {N}",
            f"dt = {dt!r}",
            f"t_end = {t_end!r}",
            f"snapshot_times = {times_txt}",
            f"scheme = {scheme}",
            "init = ones",
            f"seed = {seed}",
            "[fit]",
            "families = LN, IGa, GIGa",
            f"fit_times = {times_txt}",
            f"bootstrap_B = {bootstrap_b}",
        ])
        plan.append((label, parse_config_text(text, origin=f"<figure:{label}>")))
    return plan


def cmd_reproduce(figure: int, out_dir: str = ".", N: int = FIGURE_DEFAULT_N,
                  dt: float = FIGURE_DEFAULT_DT,
                  bootstrap_b: int = DEFAULT_BOOTSTRAP_B,
                  seed: int = 0, t_end=None) -> int:
    """Re-run the published parameter sets and emit plot-ready tables.

    Figures 1-2 produce per-time histogram CSVs and a goodness-of-fit
    JSON; figures 3-5 produce one evolution CSV per parameter value.
    One realization per parameter set.  Every run's config is resolved
    before the first run starts.  The manifest lists every run with its
    label, resolved ``config_text`` and outputs, so each file replays
    from it.  A run that fails numerically is listed as failed, the
    later runs are not attempted, and the return code is 3.
    """
    plan = build_figure_plan(figure, N, dt, bootstrap_b, seed, t_end)
    histogram = _FIGURES[figure][-1]
    fig_dir = os.path.join(out_dir, f"fig{figure}")
    _make_dir(fig_dir)
    runs = []
    code = 0
    for label, config in plan:
        try:
            snapshots = simulate(config.sim)
        except PositivityError as err:
            print(f"numerical failure in {label}: {err}", file=sys.stderr)
            runs.append(_run_record(label, config, [], str(err)))
            code = 3
            break
        outputs = []
        records = evolution_records(config, snapshots)
        if histogram:
            for snap in snapshots:
                name = f"hist_{label}_t{_fmt(snap.t)}.csv"
                write_histogram_csv(os.path.join(fig_dir, name), snap.w)
                outputs.append(name)
            gof_name = f"gof_{label}.json"
            _write_json(os.path.join(fig_dir, gof_name),
                        {"runs": [
                            {"t": r.t, **(r.gof.to_json_dict() if r.gof else
                                          {"family": r.family, "error": r.error})}
                            for r in records]})
            outputs.append(gof_name)
        name = f"evolution_{label}.csv"
        write_evolution_csv(os.path.join(fig_dir, name), records)
        outputs.append(name)
        runs.append(_run_record(label, config, outputs))
    _write_json(os.path.join(fig_dir, "manifest.json"),
                {"command": f"reproduce-{figure}",
                 "format_version": FORMAT_VERSION,
                 "outputs": sorted(o for r in runs for o in r["outputs"]),
                 "runs": runs})
    return code


# -- argument parsing -------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmnet",
        description="Wealth-dynamics ensemble simulator and distribution fitter")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one ensemble, dump snapshots")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", default=".")

    p_evo = sub.add_parser("evolve", help="track fitted parameters over time")
    p_evo.add_argument("--config", required=True)
    p_evo.add_argument("--seed", type=int, default=None)
    p_evo.add_argument("--out", default=".")

    p_theta = sub.add_parser("theta", help="tabulate theta(gamma) and the "
                             "stationary parameters")
    p_theta.add_argument("--config", default=None,
                         help="optional config supplying [model] sigma2 and J")
    p_theta.add_argument("--J", type=float, default=None)
    p_theta.add_argument("--sigma2", type=float, default=None)
    p_theta.add_argument("--out", default=".")

    p_conv = sub.add_parser("convergence", help="strong-order study at J=0")
    p_conv.add_argument("--scheme", choices=list(engine.SCHEMES), required=True)
    p_conv.add_argument("--dts", default=None,
                        help="comma-separated step sizes (default 2^-4..2^-9)")
    p_conv.add_argument("--paths", type=int, default=1000)
    p_conv.add_argument("--seed", type=int, default=0)
    p_conv.add_argument("--out", default=".")

    p_rep = sub.add_parser("reproduce", help="rerun the published figures")
    p_rep.add_argument("figure", type=int, choices=[1, 2, 3, 4, 5])
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--out", default=".")
    p_rep.add_argument("--N", type=int, default=FIGURE_DEFAULT_N)
    p_rep.add_argument("--dt", type=float, default=FIGURE_DEFAULT_DT)
    p_rep.add_argument("--bootstrap", type=int, default=DEFAULT_BOOTSTRAP_B)
    p_rep.add_argument("--t-end", type=float, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config, seed=args.seed, out_dir=args.out)
        if args.command == "evolve":
            return cmd_evolve(args.config, seed=args.seed, out_dir=args.out)
        if args.command == "theta":
            sigma2, J = (load_model(args.config) if args.config is not None
                         else (_DEFAULT_SIGMA2, _DEFAULT_J))
            return cmd_theta(J=J if args.J is None else args.J,
                             sigma2=sigma2 if args.sigma2 is None else args.sigma2,
                             out_dir=args.out)
        if args.command == "convergence":
            try:
                dts = ([float(v) for v in args.dts.split(",")]
                       if args.dts else None)
            except ValueError:
                raise ConfigError(f"--dts must be comma-separated numbers, "
                                  f"got {args.dts!r}") from None
            return cmd_convergence(args.scheme, dts=dts, paths=args.paths,
                                   seed=args.seed, out_dir=args.out)
        if args.command == "reproduce":
            return cmd_reproduce(args.figure, out_dir=args.out, N=args.N,
                                 dt=args.dt, bootstrap_b=args.bootstrap,
                                 seed=args.seed, t_end=args.t_end)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PositivityError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
