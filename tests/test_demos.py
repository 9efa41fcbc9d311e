"""Each demo prints exactly its recorded output in tests/demo_output/.

Each runs with RuntimeWarning as an error, as pyproject.toml sets for the
tests themselves: numpy only warns on an int64 overflow."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_unchanged(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONWARNINGS="error::RuntimeWarning")
    run = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                         capture_output=True, timeout=120, check=True)
    expected = (ROOT / "tests" / "demo_output" / f"{demo.stem}.txt").read_bytes()
    assert run.stdout == expected
