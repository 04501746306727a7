"""The benchmark's set-up probe runs on every workload config.

``benchmark/setup_probe.py`` times ``import bmnet`` plus ``load_config``
in a fresh process and reports ``setup_s``.  These tests run it as the
benchmark does, in a subprocess with ``PYTHONPATH=src``, and check that
it imports bmnet from this checkout.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = sorted((ROOT / "benchmark" / "workloads").glob("*.ini"))


def test_every_benchmark_workload_is_probed():
    assert {"eft-bootstrap", "ring-taylor15", "smallworld-n1000"} <= {
        p.stem for p in WORKLOADS}


@pytest.mark.parametrize("config", WORKLOADS, ids=lambda p: p.stem)
def test_setup_probe_reports_setup_time(config):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "setup_probe.py"),
         str(config), "7"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["setup_s"] > 0
    assert Path(report["bmnet_file"]).resolve().is_relative_to(
        (ROOT / "src").resolve())
