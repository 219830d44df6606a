"""The demo scripts run to completion."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# 06 re-runs classification_census(30), which test_07 already pins.
DEMOS = sorted(
    p.name for p in (ROOT / "demos").glob("0*.py") if not p.name.startswith("06")
)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name):
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
