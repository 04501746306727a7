"""Smoke test of the experiment scripts under ``scripts/`` at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

import bmnet

ROOT = Path(__file__).resolve().parent.parent


def test_equilibration_study_writes_both_tables(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(bmnet.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "equilibration_study.py"),
         "--n-agents", "300", "--density", "0.02", "--t-end", "2",
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for label in ("rann", "regn"):
        data = (tmp_path / f"equilibration_{label}.csv").read_bytes()
        lines = data.decode("utf-8").split("\n")
        assert lines[0] == "t,gamma_hat,alpha_gamma_hat"
        assert lines[-1] == ""  # newline-terminated, no \r
        rows = [line.split(",") for line in lines[1:-1]]
        assert [row[0] for row in rows] == ["1.0", "2.0"]
        for row in rows:
            # full-precision floats that read back to themselves
            assert all(cell == repr(float(cell)) for cell in row)
            assert float(row[1]) > 0 and float(row[2]) > 0
