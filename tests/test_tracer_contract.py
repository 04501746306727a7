"""The benchmark's tracer still sees every step.

``benchmark/traced_evolve.py`` wraps the engine's module globals
``step_noise``, ``milstein_step`` and ``taylor15_step`` and the dynamics
methods ``drift``, ``jacobian_apply`` and ``l0_drift`` by name.  These
tests run it on tiny configs in a subprocess, as the benchmark does, and
count its spans.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

CONFIG = """\
[model]
sigma2 = 0.05
J = 0.1

[dynamics]
{dynamics}

[run]
N = 200
dt = 0.01
t_end = 0.5
snapshot_times = 0.5
scheme = {scheme}
seed = 0

[fit]
families = LN
fit_times = 0.5
bootstrap_B = 2
"""

N_STEPS = 50


@pytest.mark.parametrize("dynamics, scheme", [
    ("kind = smallworld\np_sw = 0.05", "milstein"),
    ("kind = ring\nz = 0.05", "taylor15"),
    ("kind = complete", "milstein"),
    ("kind = eft\ngamma_eft = 0.5", "milstein"),
    ("kind = meanfield", "taylor15"),
], ids=["smallworld-milstein", "ring-taylor15", "complete-milstein",
        "eft-milstein", "meanfield-taylor15"])
def test_traced_evolve_spans_every_step(tmp_path, dynamics, scheme):
    config = tmp_path / "exp.ini"
    config.write_text(CONFIG.format(dynamics=dynamics, scheme=scheme))
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "traced_evolve.py"),
         str(spans_path), "run0", "evolve", "--config", str(config),
         "--out", str(tmp_path / "out")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans_path.read_text())
    counts = Counter(span[0] for span in doc["spans"])
    assert counts["engine.step"] == N_STEPS
    assert counts["engine.step_noise"] >= 1
    if scheme == "milstein":
        assert counts["engine.drift"] == N_STEPS
    else:
        assert counts["engine.drift"] == counts["engine.jacobian_apply"] \
            == N_STEPS
