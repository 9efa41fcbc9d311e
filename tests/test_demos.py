"""Each demo prints exactly its recorded output in tests/demo_output/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_unchanged(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                         capture_output=True, timeout=120, check=True)
    expected = (ROOT / "tests" / "demo_output" / f"{demo.stem}.txt").read_bytes()
    assert run.stdout == expected
