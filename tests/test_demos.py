"""Each demo script runs to completion as a user would run it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(tmp_path, demo):
    src = str(ROOT / "src")
    pythonpath = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=src + os.pathsep + pythonpath if pythonpath else src,
        # the sweep demo writes its record file under a fresh temporary directory
        TMPDIR=str(tmp_path),
    )
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    if demo.stem == "sweep_and_replay":
        assert "reproduced bit-for-bit" in result.stdout
    # a demo that writes files removes them again
    assert not any(tmp_path.iterdir())
