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
from .config import ExperimentConfig, config_to_text, load_config, parse_config_text
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
        fit = self.gof.fit if self.gof else None
        alpha = beta = gamma = mu = s = None
        if fit is not None:
            p = fit.params
            if hasattr(p, "alpha"):
                alpha, beta, gamma = p.alpha, p.beta, p.gamma
            else:
                mu, s = p.mu, p.s
        cells = [
            _fmt(self.t), self.family, _fmt(alpha), _fmt(beta), _fmt(gamma),
            _fmt(mu), _fmt(s),
            _fmt(fit.gamma_hat if fit else None),
            _fmt(fit.alpha_gamma if fit else None),
            _fmt(fit.loglik if fit else None),
            _fmt(self.gof.ks_stat if self.gof else None),
            _fmt(self.gof.p_value if self.gof else None),
            "true" if (fit is not None and fit.converged) else "false",
        ]
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
    os.makedirs(out_dir, exist_ok=True)
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
    os.makedirs(out_dir, exist_ok=True)
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
    os.makedirs(out_dir, exist_ok=True)
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
    try:
        result = strong_convergence_study(scheme, dts, paths, seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, f"convergence_{scheme}.json"), result)
    print(f"{scheme}: fitted slope {result['fitted_slope']:.3f}")
    return 0


# -- figure reproduction ----------------------------------------------------

FIGURE_DEFAULT_N = 10_000
FIGURE_DEFAULT_DT = 0.01


@dataclass(frozen=True)
class FigureRun:
    """One simulation in a figure-reproduction sweep."""

    label: str
    dynamics_lines: tuple
    scheme: str
    t_end: float
    times: tuple
    mode: str  # "histogram" | "evolution"


_HIST_TIMES = {1: (1.0, 2500.0), 2: (1.0, 500.0)}
_EVOLUTION_TIMES = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 150.0, 200.0,
                    300.0, 500.0)
_LONG_EVOLUTION_TIMES = _EVOLUTION_TIMES + (1000.0, 1500.0, 2500.0)


def build_figure_plan(figure: int) -> list:
    """The per-figure parameter sweeps, with the published parameter sets."""
    if figure == 1:
        return [FigureRun("regn_z0.01", ("kind = ring", "z = 0.01"),
                          engine.TAYLOR15, 2500.0, _HIST_TIMES[1], "histogram")]
    if figure == 2:
        return [FigureRun("rann_p0.003", ("kind = smallworld", "p_sw = 0.003"),
                          engine.MILSTEIN, 500.0, _HIST_TIMES[2], "histogram")]
    if figure == 3:
        return [FigureRun(f"regn_z{z:g}", ("kind = ring", f"z = {z!r}"),
                          engine.TAYLOR15, 2500.0, _LONG_EVOLUTION_TIMES,
                          "evolution")
                for z in (0.1, 0.01, 0.003)]
    if figure == 4:
        return [FigureRun(f"rann_p{p:g}", ("kind = smallworld", f"p_sw = {p!r}"),
                          engine.MILSTEIN, 500.0, _EVOLUTION_TIMES, "evolution")
                for p in (0.1, 0.003, 0.002, 0.001)]
    if figure == 5:
        return [FigureRun(f"eft_g{g:g}", ("kind = eft", f"gamma_eft = {g!r}"),
                          engine.MILSTEIN, 500.0, _EVOLUTION_TIMES, "evolution")
                for g in (0.8, 0.6, 0.5, 0.4)]
    raise ConfigError(f"unknown figure id {figure}; expected 1-5")


def _figure_config(run: FigureRun, N: int, dt: float, bootstrap_b: int,
                   seed: int, t_end=None, times=None) -> ExperimentConfig:
    t_end = t_end if t_end is not None else run.t_end
    times = tuple(times) if times is not None else tuple(
        t for t in run.times if t <= t_end)
    times_txt = ", ".join(repr(t) for t in times)
    text = "\n".join([
        "[model]",
        f"sigma2 = {_DEFAULT_SIGMA2!r}",
        f"J = {_DEFAULT_J!r}",
        "[dynamics]",
        *run.dynamics_lines,
        "[run]",
        f"N = {N}",
        f"dt = {dt!r}",
        f"t_end = {t_end!r}",
        f"snapshot_times = {times_txt}",
        f"scheme = {run.scheme}",
        "init = ones",
        f"seed = {seed}",
        "[fit]",
        "families = LN, IGa, GIGa",
        f"fit_times = {times_txt}",
        f"bootstrap_B = {bootstrap_b}",
    ])
    return parse_config_text(text, origin=f"<figure:{run.label}>")


def cmd_reproduce(figure: int, out_dir: str = ".", N: int = FIGURE_DEFAULT_N,
                  dt: float = FIGURE_DEFAULT_DT,
                  bootstrap_b: int = DEFAULT_BOOTSTRAP_B,
                  seed: int = 0, t_end=None, times=None) -> int:
    """Re-run the published parameter sets and emit plot-ready tables.

    Figures 1-2 produce per-time histogram CSVs and a goodness-of-fit
    JSON; figures 3-5 produce one evolution CSV per parameter value.
    One realization per parameter set.  The manifest lists every run
    with its label, resolved ``config_text`` and outputs, so each file
    replays from it.  A run that fails numerically is listed as failed,
    the later runs are not attempted, and the return code is 3.
    """
    plan = build_figure_plan(figure)
    fig_dir = os.path.join(out_dir, f"fig{figure}")
    os.makedirs(fig_dir, exist_ok=True)
    runs = []
    code = 0
    for run in plan:
        config = _figure_config(run, N, dt, bootstrap_b, seed, t_end, times)
        try:
            snapshots = simulate(config.sim)
        except PositivityError as err:
            print(f"numerical failure in {run.label}: {err}", file=sys.stderr)
            runs.append(_run_record(run.label, config, [], str(err)))
            code = 3
            break
        outputs = []
        records = evolution_records(config, snapshots)
        if run.mode == "histogram":
            for snap in snapshots:
                name = f"hist_{run.label}_t{_fmt(snap.t)}.csv"
                write_histogram_csv(os.path.join(fig_dir, name), snap.w)
                outputs.append(name)
            gof_name = f"gof_{run.label}.json"
            _write_json(os.path.join(fig_dir, gof_name),
                        {"runs": [
                            {"t": r.t, **(r.gof.to_json_dict() if r.gof else
                                          {"family": r.family, "error": r.error})}
                            for r in records]})
            outputs.append(gof_name)
        name = f"evolution_{run.label}.csv"
        write_evolution_csv(os.path.join(fig_dir, name), records)
        outputs.append(name)
        runs.append(_run_record(run.label, config, outputs))
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
            J, sigma2 = args.J, args.sigma2
            if args.config is not None:
                config = load_config(args.config)
                J = J if J is not None else config.sim.params.J
                sigma2 = sigma2 if sigma2 is not None else config.sim.params.sigma2
            return cmd_theta(J=J if J is not None else _DEFAULT_J,
                             sigma2=sigma2 if sigma2 is not None else _DEFAULT_SIGMA2,
                             out_dir=args.out)
        if args.command == "convergence":
            dts = ([float(v) for v in args.dts.split(",")]
                   if args.dts else None)
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
