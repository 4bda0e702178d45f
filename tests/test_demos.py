"""Smoke test of the scripts in demos/: each runs to completion on the
installed package. Each runs from a copy in a temporary directory, so the
files it writes next to itself land there and not in the repository."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import vidcost

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(vidcost.__file__).resolve().parents[1])
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    script = shutil.copy(demo, tmp_path)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    env.pop("VIDCOST_DATA_DIR", None)
    out = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr
