"""Paired benchmark runs of a base revision against the working tree.

    python tools/ab_bench.py --base REV [--seed 1]

Checks REV out with `git worktree add --detach` into a temporary
directory, then runs the benchmark command of BENCHMARK.json with
`--workload all` and its `run_seconds` in each checkout, from its root and
with the environment unchanged, as a fresh benchmark run does: 10 pairs,
alternating, the side that runs first flipping each pair.  No file under
bench/ is edited in either checkout; each run writes its records to
.bench_out/ at its checkout's root, as a fresh benchmark run does.  Each
side's records are summarized and compared by bench/compare.py, which
gives, for each workload and end-to-end metric, each side's median and
quartiles and the verdict against the bound of BENCHMARK.json; this tool
adds the median of the paired ratios (working tree over base), the pairs
the working tree won, ties counting for neither, and whether the median
gain is larger than the base's interquartile range, and then prints every
pair's two values.
Exits 1 when any run is incorrect and 2 when REV cannot be checked out,
and removes the worktree in any case.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
sys.dont_write_bytecode = True  # so that importing compare writes nothing under bench/
sys.path.insert(0, str(ROOT / "bench"))
from compare import compare, summarize  # noqa: E402


def run(spec, root, seed):
    """(correct, the untraced record of each workload) of one benchmark run."""
    proc = subprocess.run(
        [*spec["command"], "--workload", "all", "--seed", str(seed),
         "--seconds", str(spec["run_seconds"])],
        cwd=root, stdout=subprocess.PIPE, text=True, check=False)
    try:
        correct = proc.returncode == 0 and json.loads(proc.stdout.splitlines()[-1])["correct"]
    except (IndexError, KeyError, json.JSONDecodeError):
        correct = False
    out = root / ".bench_out" / "records"
    records = [json.loads((out / f"{w['name']}-seed{seed}-trace0.json").read_text())
               for w in spec["workloads"]] if correct else []
    return correct, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the revision to compare against")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    runs = {"base": [], "change": []}
    incorrect = 0
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        if subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                           str(base), args.base], check=False).returncode:
            return 2
        try:
            sides = {"base": base, "change": ROOT}
            for k in range(PAIRS):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                for side in order:
                    correct, records = run(spec, sides[side], args.seed)
                    incorrect += not correct
                    runs[side].append({r["workload"]: r for r in records})
                    print(f"pair {k + 1} {side}: {'correct' if correct else 'INCORRECT'}",
                          flush=True)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(base)], check=False)
    if incorrect:
        print(f"{incorrect} incorrect runs", file=sys.stderr)
        return 1
    before, after = (summarize([r for run in runs[side] for r in run.values()])
                     for side in ("base", "change"))
    print(f"{'workload':15} {'metric':12} {'base median [q1, q3]':>28} "
          f"{'change median [q1, q3]':>28} {'change':>7} {'ratio':>6} {'won':>5}  "
          "gain > base IQR  verdict")
    for workload, name, _, _, change, verdict in compare(before, after, bounds):
        pairs = [(b[workload]["metrics"][name]["value"], c[workload]["metrics"][name]["value"])
                 for b, c in zip(runs["base"], runs["change"])]
        b, a = before["summary"][workload][name], after["summary"][workload][name]
        lower = bounds[name][1] == "lower"
        won = sum((c < b) if lower else (c > b) for b, c in pairs)
        gain = (b["median"] - a["median"]) * (1 if lower else -1)
        cells = [f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]" for s in (b, a)]
        print(f"{workload:15} {name:12} {cells[0]:>28} {cells[1]:>28} {change:+7.1%} "
              f"{statistics.median(c / b for b, c in pairs):6.3f} {won:>2}/{len(pairs)}  "
              f"{'yes' if gain > b['q3'] - b['q1'] else 'no':15}  {verdict}")
        print("    pairs (base/change):", ", ".join(f"{b:.4g}/{c:.4g}" for b, c in pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
