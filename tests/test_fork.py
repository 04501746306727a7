"""Forked helpers: the noise producer and the bootstrap split give the
bytes of the in-process paths, fail loudly, and leave no process behind
(``conftest.py`` checks the last after every test)."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bmnet import _fork, engine, gof
from bmnet.distributions import GIGaParams, LNParams
from bmnet.engine import MeanFieldDynamics, ModelParams, SimConfig, simulate
from bmnet.errors import DegenerateSampleError, PositivityError
from bmnet.gof import ks_pvalue_bootstrap
from bmnet.topology import build_random_smallworld, build_regular_ring

ROOT = Path(__file__).resolve().parent.parent


def _config(**kw):
    base = dict(params=ModelParams(sigma2=0.05, J=0.1),
                dynamics=MeanFieldDynamics(), scheme="milstein", N=100,
                dt=0.01, t_end=0.5, snapshot_times=(0.0, 0.03, 0.5), seed=3)
    base.update(kw)
    return SimConfig(**base)


def _snapshots(snaps):
    return [(s.t, s.w.tobytes()) for s in snaps]


class TestNoiseProducer:
    @pytest.mark.parametrize("scheme, steps_per_block, t_end, dynamics", [
        # 50 steps in blocks of 7: the last block holds one step
        ("milstein", 7, 0.5, "smallworld"),
        ("taylor15", 1, 0.5, "ring"),
        # two blocks, fewer than the producer's slots
        ("taylor15", 1, 0.02, "ring"),
        ("milstein", 7, 0.02, "meanfield"),
    ], ids=["milstein-K7", "taylor-K1", "taylor-short", "milstein-short"])
    def test_forked_run_equals_in_process(self, monkeypatch, processes, forks,
                                          scheme, steps_per_block, t_end,
                                          dynamics):
        dyn = {"smallworld": lambda: build_random_smallworld(100, 0.05, seed=2),
               "ring": lambda: build_regular_ring(100, 6),
               "meanfield": MeanFieldDynamics}[dynamics]()
        cfg = _config(scheme=scheme, dynamics=dyn, t_end=t_end,
                      snapshot_times=(0.0, 0.01, min(0.07, t_end), t_end))
        draws = cfg.N * (1 if scheme == "milstein" else 2)
        monkeypatch.setattr(engine, "_BLOCK_DRAWS", steps_per_block * draws)
        processes(1)
        serial = _snapshots(simulate(cfg))
        assert forks == []
        processes(2)
        assert _snapshots(simulate(cfg)) == serial
        assert len(forks) == 1

    @pytest.mark.parametrize("failure", ["positivity", "interrupt"])
    def test_mid_run_failure_reaps_the_producer(self, monkeypatch, processes,
                                                forks, failure):
        # J = 9 at dt = 0.2 fails at step 15, in the fourth block of 25,
        # with the producer drawing ahead
        cfg = _config(params=ModelParams(sigma2=0.05, J=9.0), N=40, dt=0.2,
                      t_end=20.0, init_sd=0.4, seed=8,
                      snapshot_times=(0.0, 0.2, 0.4, 1.0, 2.0))
        monkeypatch.setattr(engine, "_BLOCK_DRAWS", 4 * cfg.N)
        if failure == "interrupt":
            step = engine.milstein_step

            def interrupted(w, t, *args):
                if t > 1.1:
                    raise KeyboardInterrupt
                return step(w, t, *args)
            monkeypatch.setattr(engine, "milstein_step", interrupted)
            expected = KeyboardInterrupt
        else:
            expected = PositivityError
        seen = []
        for k in (1, 2):
            processes(k)
            with pytest.raises(expected) as err:
                simulate(cfg)
            seen.append(err.value)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        if failure == "positivity":
            a, b = seen
            assert (a.step, a.t, a.agent) == (b.step, b.t, b.agent) \
                and a.step == 15
            assert _snapshots(a.snapshots) == _snapshots(b.snapshots)
            assert len(a.snapshots) == 5

    def test_dead_producer_raises_within_seconds(self, monkeypatch,
                                                 processes):
        parent = os.getpid()
        draw = engine.step_noise

        def dying(gen, step, dt, z):
            if os.getpid() != parent and step > 0:
                os._exit(7)
            return draw(gen, step, dt, z)
        monkeypatch.setattr(engine, "step_noise", dying)
        monkeypatch.setattr(engine, "_BLOCK_DRAWS", 5 * 100)
        processes(2)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="status 7 before step 5"):
            simulate(_config(t_end=10.0, snapshot_times=(10.0,)))
        assert time.monotonic() - start < 5.0

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="reads process states from /proc")
    def test_killed_parent_takes_the_producer_down(self, tmp_path):
        script = tmp_path / "run.py"
        script.write_text(PRODUCER_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.Popen([sys.executable, str(script)], env=env,
                                stdout=subprocess.PIPE, text=True)
        try:
            producer = int(proc.stdout.readline())
            time.sleep(0.2)  # mid-run
            assert _alive(producer)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()
        deadline = time.monotonic() + 2.0
        while _alive(producer) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _alive(producer)


PRODUCER_SCRIPT = """\
import os
from bmnet import _fork
from bmnet.engine import MeanFieldDynamics, ModelParams, SimConfig, simulate

_fork._FORK_MIN_DRAWS = 0
os.sched_getaffinity = lambda pid: {0, 1}
fork = _fork.fork


def announced(body):
    pid = fork(body)
    print(pid, flush=True)
    return pid


_fork.fork = announced
simulate(SimConfig(params=ModelParams(sigma2=0.05, J=0.1),
                   dynamics=MeanFieldDynamics(), scheme="milstein", N=1000,
                   dt=0.01, t_end=10000.0, snapshot_times=(10000.0,)))
"""


def _alive(pid) -> bool:
    """Whether pid runs: a zombie that init has not reaped yet counts as
    gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


class TestBootstrapSplit:
    SAMPLES = {"LN": (LNParams(-0.05, 0.3), gof.ln_sample),
               "IGa": (GIGaParams(3.0, 2.0, 1.0), gof.giga_sample),
               "GIGa": (GIGaParams(6.0, 20.0, 0.5), gof.giga_sample)}

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("family", ["LN", "IGa", "GIGa"])
    def test_split_report_equals_unsplit(self, processes, forks, family, k):
        truth, sample = self.SAMPLES[family]
        x = sample(truth, 1500, 11)
        processes(1)
        serial = ks_pvalue_bootstrap(x, family, 39, seed=5)
        processes(k)
        assert ks_pvalue_bootstrap(x, family, 39, seed=5) == serial
        assert len(forks) == k - 1
        assert 0 < serial.exceed_count < 39

    def test_split_report_with_discarded_replicates(self, monkeypatch,
                                                    processes):
        fit = gof._FIT["GIGa"]
        x = gof.giga_sample(GIGaParams(6.0, 20.0, 0.5), 2000, 4)

        def flaky(sample):
            # replicates only: the observed fit reads a view of x
            if not np.may_share_memory(sample, x) and \
                    sample[0] < np.median(sample):
                raise DegenerateSampleError("forced")
            return fit(sample)
        monkeypatch.setitem(gof._FIT, "GIGa", flaky)
        reports = []
        for k in (1, 2):
            processes(k)
            reports.append(ks_pvalue_bootstrap(x, "GIGa", 39, seed=8))
        assert reports[0] == reports[1]
        assert 0 < reports[0].discarded_replicates < 39

    @pytest.mark.parametrize("first_bad", [3, 30])
    def test_split_raises_what_the_loop_raises(self, monkeypatch, processes,
                                               first_bad):
        # replicates from first_bad on fail to draw; the error names the
        # first of them, whichever process drew it
        draw = gof._SAMPLE["LN"]

        def failing(params, n, seed):
            if seed.entropy[1] >= first_bad:
                raise ValueError(f"replicate {seed.entropy[1]}")
            return draw(params, n, seed)
        monkeypatch.setitem(gof._SAMPLE, "LN", failing)
        x = gof.ln_sample(LNParams(0.0, 0.5), 500, 2)
        for k in (1, 2, 3):
            processes(k)
            with pytest.raises(ValueError, match=f"^replicate {first_bad}$"):
                ks_pvalue_bootstrap(x, "LN", 39, seed=1)

    def test_dead_helper_raises(self, monkeypatch, processes):
        parent = os.getpid()
        draw = gof._SAMPLE["LN"]

        def dying(params, n, seed):
            if os.getpid() != parent:
                os._exit(9)
            return draw(params, n, seed)
        monkeypatch.setitem(gof._SAMPLE, "LN", dying)
        processes(2)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="status 9"):
            ks_pvalue_bootstrap(gof.ln_sample(LNParams(0.0, 0.5), 500, 2),
                                "LN", 39, seed=1)
        assert time.monotonic() - start < 5.0


class TestWhenToFork:
    def test_one_cpu_never_forks(self, monkeypatch, processes, forks):
        processes(1)
        simulate(_config(t_end=2.0, snapshot_times=(2.0,)))
        ks_pvalue_bootstrap(gof.ln_sample(LNParams(0.0, 0.5), 500, 2), "LN",
                            9, seed=1)
        assert forks == []

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_no_fork_without_the_os_calls(self, monkeypatch, missing):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.delattr(os, missing, raising=False)
        assert _fork.processes(2 ** 40) == 1

    def test_small_work_stays_in_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        assert _fork.processes(_fork._FORK_MIN_DRAWS - 1) == 1
        assert _fork.processes(_fork._FORK_MIN_DRAWS) == 2
