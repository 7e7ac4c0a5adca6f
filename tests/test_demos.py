"""Every script in demos/ runs to completion against the source tree and
prints, byte for byte, the output recorded in tests/data/demos/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = Path(__file__).resolve().parent / "data" / "demos"


def test_all_seven_demos_are_collected():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_0_without_traceback(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path, env=env, capture_output=True, timeout=120,
    )
    stderr = run.stderr.decode(errors="replace")
    assert run.returncode == 0, stderr
    assert "Traceback" not in stderr
    assert run.stdout == (EXPECTED / f"{demo.stem}.txt").read_bytes()
