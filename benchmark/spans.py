"""Per-layer metrics derived from the spans of one traced evolve run.

A span's self time is its duration minus the durations of its children
(spans never overlap: the program is single-threaded).  Figures marked
"count" are exact and repeat from run to run; figures marked "computed"
come from array sizes and ignore cache misses.
"""

from __future__ import annotations

import statistics

# name -> unit; the order is the order of the printed report
PER_LAYER_UNITS = {
    "topology.build_s": "s",
    "topology.csr_entries": "count",
    "topology.csr_bytes": "B",  # computed
    "engine.simulate_s": "s",
    "engine.steps": "count",
    "engine.agent_steps_per_s": "1/s",
    "engine.step_noise.calls": "count",
    "engine.step_noise.p50_us": "us",
    "engine.step_noise.p99_us": "us",
    "engine.step_noise.total_s": "s",
    "engine.drift.calls": "count",
    "engine.drift.p50_us": "us",
    "engine.drift.p99_us": "us",
    "engine.drift.total_s": "s",
    "engine.jacobian_apply.total_s": "s",
    "engine.l0_drift.total_s": "s",
    "engine.step.p50_us": "us",
    "engine.step.p99_us": "us",
    "engine.step.self_s": "s",
    "engine.operator_applies_per_step": "count",
    "engine.operator_bytes_per_step": "B",  # computed
    "engine.loop_overhead_s": "s",
    "distributions.sample.calls": "count",
    "distributions.sample.p50_us": "us",
    "distributions.cdf.calls": "count",
    "distributions.cdf.p50_us": "us",
    "fitting.fit_lognormal.p50_ms": "ms",
    "fitting.fit_iga.p50_ms": "ms",
    "fitting.fit_giga.p50_ms": "ms",
    "fitting.fit_giga.profile_evals": "count",
    "gof.bootstrap_s": "s",
    "gof.replicates": "count",
    "gof.replicates_per_s": "1/s",
    "gof.discarded_frac": "fraction",
    "gof.ks_statistic.p50_us": "us",
    "cli.write_s": "s",
    "cli.output_bytes": "B",
    "trace.wall_s": "s",
    "trace.outside_command_s": "s",
    "trace.unattributed_s": "s",
    "trace.dominant_share": "fraction",
    "trace.dominant_share_process": "fraction",
    "trace.overhead_s": "s",
}

# timed directly on the run's snapshots after the command, not in place
REPLAYED = ("distributions.sample.p50_us", "fitting.fit_lognormal.p50_ms",
            "fitting.fit_iga.p50_ms", "fitting.fit_giga.p50_ms")

DYNAMICS_WITH_OPERATOR = "network"


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(doc: dict, dominant: str, traced_wall_s: float) -> dict:
    """Metrics of one traced run, except those that need untraced runs.

    ``traced_wall_s`` is the traced process's wall time from spawn to the
    end of the command, without the replay, span writing and exit that
    follow it.  ``trace.wall_s`` is the command itself (`bmnet.cli.main`);
    the part of the process before it (interpreter start, imports and
    installing the spans) is ``trace.outside_command_s``.  The dominant
    layer's share is given of both.
    """
    spans = doc["spans"]
    children = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    durations, self_times = {}, {}
    for i, (name, start, end, _) in enumerate(spans):
        durations.setdefault(name, []).append(end - start)
        self_times.setdefault(name, []).append(end - start - children[i])

    def total(name):
        return sum(durations.get(name, ()))

    def self_total(name):
        return sum(self_times.get(name, ()))

    def calls(name):
        return len(durations.get(name, ()))

    def pct_us(name, q):
        return 1e6 * _quantile(durations.get(name, []), q)

    steps = calls("engine.step")
    simulate_s = total("engine.simulate")
    applies = 0.0
    if doc["dynamics_kind"] == DYNAMICS_WITH_OPERATOR and steps:
        applies = (calls("engine.drift") + calls("engine.jacobian_apply")
                   + calls("engine.l0_drift")) / steps
    # one apply streams the CSR arrays, reads x and writes y (float64)
    bytes_per_apply = doc["csr_bytes"] + 16 * doc["N"] if applies else 0
    boot = doc["bootstrap"]
    replicates = sum(b["B"] for b in boot)
    bootstrap_s = total("gof.bootstrap")
    giga_evals = [b["fit_iterations"] for b in boot if b["family"] == "GIGa"]
    replay = doc["replay"]
    layers = {
        "topology": total("topology.build") + total("topology.operator"),
        "engine": simulate_s,
        "gof": bootstrap_s,
        "cli": self_total("cli.evolve"),
    }
    wall = doc["main_s"]
    return {
        "topology.build_s": layers["topology"],
        "topology.csr_entries": doc["csr_entries"],
        "topology.csr_bytes": doc["csr_bytes"],
        "engine.simulate_s": simulate_s,
        "engine.steps": steps,
        "engine.agent_steps_per_s": steps * doc["N"] / simulate_s,
        "engine.step_noise.calls": calls("engine.step_noise"),
        "engine.step_noise.p50_us": pct_us("engine.step_noise", 50),
        "engine.step_noise.p99_us": pct_us("engine.step_noise", 99),
        "engine.step_noise.total_s": total("engine.step_noise"),
        "engine.drift.calls": calls("engine.drift"),
        "engine.drift.p50_us": pct_us("engine.drift", 50),
        "engine.drift.p99_us": pct_us("engine.drift", 99),
        "engine.drift.total_s": total("engine.drift"),
        "engine.jacobian_apply.total_s": total("engine.jacobian_apply"),
        "engine.l0_drift.total_s": total("engine.l0_drift"),
        "engine.step.p50_us": pct_us("engine.step", 50),
        "engine.step.p99_us": pct_us("engine.step", 99),
        "engine.step.self_s": self_total("engine.step"),
        "engine.operator_applies_per_step": applies,
        "engine.operator_bytes_per_step": applies * bytes_per_apply,
        "engine.loop_overhead_s": self_total("engine.simulate"),
        "distributions.sample.calls": replicates,
        "distributions.sample.p50_us":
            1e6 * statistics.median(replay["distributions.sample"]),
        "distributions.cdf.calls": calls("distributions.cdf"),
        "distributions.cdf.p50_us": pct_us("distributions.cdf", 50),
        "fitting.fit_lognormal.p50_ms":
            1e3 * statistics.median(replay["fitting.fit_lognormal"]),
        "fitting.fit_iga.p50_ms": 1e3 * statistics.median(replay["fitting.fit_iga"]),
        "fitting.fit_giga.p50_ms":
            1e3 * statistics.median(replay["fitting.fit_giga"]),
        "fitting.fit_giga.profile_evals": statistics.median(giga_evals),
        "gof.bootstrap_s": bootstrap_s,
        "gof.replicates": replicates,
        "gof.replicates_per_s": replicates / bootstrap_s,
        "gof.discarded_frac": sum(b["discarded"] for b in boot) / replicates,
        "gof.ks_statistic.p50_us": pct_us("gof.ks_statistic", 50),
        "cli.write_s": layers["cli"],
        "trace.wall_s": wall,
        "trace.outside_command_s": traced_wall_s - wall,
        "trace.unattributed_s": wall - sum(layers.values()),
        "trace.dominant_share": layers[dominant] / wall,
        "trace.dominant_share_process": layers[dominant] / traced_wall_s,
    }
