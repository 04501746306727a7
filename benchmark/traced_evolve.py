"""Run `bmnet evolve` in this process with spans at each layer boundary.

    python3 benchmark/traced_evolve.py SPANS_JSON RUN_ID evolve --config ... --seed ... --out ...

Spans are recorded from outside the package, by replacing the public names
that each layer calls through:

* topology: the `bmnet.topology.build_*` functions and the coupling-operator
  constructor `NetworkDynamics.__init__`;
* engine: `bmnet.cli.simulate` and, inside it, the `bmnet.engine` globals
  `step_noise`, `milstein_step` and `taylor15_step` and the dynamics
  methods `drift`, `jacobian_apply` and `l0_drift`;
* gof: `bmnet.cli.ks_pvalue_bootstrap` and the `bmnet.gof.ks_statistic`
  global, whose `cdf` argument is timed as a distributions span;
* cli: `bmnet.cli.cmd_evolve`, `load_config` and `evolution_records`.

The bootstrap reaches the fitters and samplers through dicts bound at
import time, so their calls cannot be wrapped by name.  After the command
ends, each `fit_*` and sampler is instead timed directly on this run's own
fit-time snapshots ("replayed").

Spans stay in memory and are written once, with the replay timings, when
the command has finished.  Each span is [name, start, end, parent index].
"""

import json
import sys
import time

from bmnet import cli, engine, gof, topology
from bmnet.distributions import giga_sample, ln_sample
from bmnet.fitting import fit_giga, fit_iga, fit_lognormal

REPLAY_REPEATS = 3
REPLAY_FIT = {"LN": ("fit_lognormal", fit_lognormal),
              "IGa": ("fit_iga", fit_iga),
              "GIGa": ("fit_giga", fit_giga)}
REPLAY_SAMPLE = {"LN": ln_sample, "IGa": giga_sample, "GIGa": giga_sample}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.captured = {}

    def wrap(self, name, fn, capture=None):
        """``fn`` recording one span per call; ``capture`` keeps results."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if capture is not None:
                self.captured.setdefault(capture, []).append(result)
            return result
        return traced

    def install(self):
        for build in ("build_complete", "build_regular_ring",
                      "build_random_smallworld"):
            setattr(topology, build, self.wrap(
                "topology.build", getattr(topology, build), "topology"))
        engine.NetworkDynamics.__init__ = self.wrap(
            "topology.operator", engine.NetworkDynamics.__init__)
        for cls in (engine.NetworkDynamics, engine.MeanFieldDynamics,
                    engine.EFTDynamics):
            for method in ("drift", "jacobian_apply", "l0_drift"):
                setattr(cls, method, self.wrap(f"engine.{method}",
                                               getattr(cls, method)))
        engine.step_noise = self.wrap("engine.step_noise", engine.step_noise)
        engine.milstein_step = self.wrap("engine.step", engine.milstein_step)
        engine.taylor15_step = self.wrap("engine.step", engine.taylor15_step)
        cli.simulate = self.wrap("engine.simulate", cli.simulate, "snapshots")
        cli.load_config = self.wrap("cli.load_config", cli.load_config,
                                    "config")
        cli.cmd_evolve = self.wrap("cli.evolve", cli.cmd_evolve)
        cli.evolution_records = self.wrap("cli.evolution_records",
                                          cli.evolution_records)
        cli.ks_pvalue_bootstrap = self.wrap(
            "gof.bootstrap", cli.ks_pvalue_bootstrap, "gof")
        ks_statistic = gof.ks_statistic

        def ks_with_cdf_span(samples, cdf):
            return ks_statistic(samples, self.wrap("distributions.cdf", cdf))
        gof.ks_statistic = self.wrap("gof.ks_statistic", ks_with_cdf_span)


def replay(config, snapshots) -> dict:
    """Time each family's fit and sampler on the run's fit-time snapshots."""
    by_time = {s.t: s.w for s in snapshots}
    times = {}
    for t in config.fit_times:
        x = by_time[t]
        for family in config.families:
            name, fit_fn = REPLAY_FIT[family]
            for _ in range(REPLAY_REPEATS):
                t0 = time.perf_counter()
                fit = fit_fn(x)
                times.setdefault(f"fitting.{name}", []).append(
                    time.perf_counter() - t0)
            for rep in range(REPLAY_REPEATS):
                t0 = time.perf_counter()
                REPLAY_SAMPLE[family](fit.params, x.size, rep)
                times.setdefault("distributions.sample", []).append(
                    time.perf_counter() - t0)
    return times


def main(argv) -> int:
    spans_path, run_id, command = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    main_start = time.perf_counter()
    code = cli.main(command)
    main_end = time.perf_counter()
    if code != 0:
        return code
    config = tracer.captured["config"][0]
    topo = tracer.captured.get("topology", [None])[0]
    replayed = replay(config, tracer.captured["snapshots"][0])
    doc = {
        "run_id": run_id,
        "spans": tracer.spans,
        "main_s": main_end - main_start,
        # perf_counter is system-wide, so the parent can relate this to
        # the moment it spawned the process
        "main_end": main_end,
        "N": config.sim.N,
        "dynamics_kind": config.sim.dynamics.kind,
        "csr_entries": 0 if topo is None else int(topo.indices.size),
        # index arrays as stored plus the operator's float64 weights
        "csr_bytes": 0 if topo is None else int(
            topo.indptr.nbytes + topo.indices.nbytes + 8 * topo.indices.size),
        "bootstrap": [{"family": r.family, "B": r.bootstrap_count,
                       "discarded": r.discarded_replicates,
                       "fit_iterations": r.fit.iterations}
                      for r in tracer.captured["gof"]],
        "replay": replayed,
    }
    with open(spans_path, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
