"""The scripts under demos/ run to the end against the library in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env.pop("VRECOVER_TOL_OVERRIDES", None)
    # campaign.py writes its CSV under mkdtemp(), which honours TMPDIR
    env.update(PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    res = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=300,
    )
    assert res.returncode == 0, res.stderr
