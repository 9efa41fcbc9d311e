#!/usr/bin/env python3
"""Regenerate expected.json: the check summary of every benchmark operation
on the shipped, unrelabeled inputs (and every n = 7 census birack).

    python3 bench/make_expected.py

Run it only when a change to the library is meant to change results; the
tests in test_bench.py compare the file against the paper's tables.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main():
    expected = {}
    workdir = HERE.parent / ".bench_work" / "expected"
    try:
        for name, setup in workloads.WORKLOADS.items():
            expected[name] = {op.name: op.check(op.call()) for op in setup(None, workdir)}
            print(f"{name}: {len(expected[name])} operations", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
