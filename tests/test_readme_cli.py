"""The README's `$ birack` examples print what the README shows.

CI runs tools/check_readme_cli.py against the installed `birack` command;
here the same check runs the CLI module from the source tree.  Both run it
with RuntimeWarning as an error, as pyproject.toml sets for the tests
themselves: numpy only warns on an int64 overflow.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from check_readme_cli import examples, mismatches  # noqa: E402


def test_readme_examples_match_the_cli(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    monkeypatch.setenv("PYTHONWARNINGS", "error::RuntimeWarning")
    text = (ROOT / "README.md").read_text()
    assert [args[0] for args, _, _ in examples(text)] == [
        "check", "homology", "homology", "cocycles", "invariant", "invariant"]
    assert mismatches([sys.executable, "-m", "biracks.cli"], text) == []


def test_a_changed_example_is_reported(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    monkeypatch.setenv("PYTHONWARNINGS", "error::RuntimeWarning")
    text = "```\n$ birack homology ab4 -n 2\nH_2 = Z^3\n```\n"
    [diff] = mismatches([sys.executable, "-m", "biracks.cli"], text)
    assert "-H_2 = Z^3" in diff and "+H_2 = Z^2" in diff
