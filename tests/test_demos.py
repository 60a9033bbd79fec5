"""Every demo script runs to completion against the package in ``src`` and
prints what ``tests/golden/demos/<name>.txt`` holds, byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:].decode(errors="replace")
    assert result.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
