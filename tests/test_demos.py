"""The narrative demos run to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_sparse_operators", "02_cameras_and_geometry",
                                  "03_planted_scenes_and_io", "04_train_and_reconstruct"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_cli_demo_runs(tmp_path):
    """Demo 05 calls `nrsfm` from PATH; a shim there runs the package's CLI."""
    shim = tmp_path / "bin" / "nrsfm"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m nrsfm.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PATH=f"{shim.parent}{os.pathsep}{os.environ.get('PATH', '')}")
    done = subprocess.run(["sh", str(ROOT / "demos" / "05_cli_pipeline.sh")],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
