#!/usr/bin/env python3
"""Summarize or compare benchmark runs.

    python3 bench/compare.py RUNS            # print the summary of RUNS as JSON
    python3 bench/compare.py BEFORE AFTER    # compare two summaries

RUNS, BEFORE and AFTER are each a directory of the records that run.py
writes to .bench_out/records/ (only untraced runs are read), or a summary
file such as bench/baseline.json.  A summary holds, per workload and
end-to-end metric, the median, the quartiles and the number of runs.  The
comparison prints each pairing of workload and metric with the change of
the median against the bound in BENCHMARK.json.  Runs from different
environments are refused with exit code 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class EnvironmentMismatch(Exception):
    pass


def summarize(records):
    """{"env", "summary"} from untraced run records of one environment."""
    envs = {json.dumps(r["env"], sort_keys=True) for r in records}
    if len(envs) != 1:
        raise EnvironmentMismatch(f"records come from {len(envs)} environments: {sorted(envs)}")
    values = {}
    for r in records:
        for name, entry in r["metrics"].items():
            values.setdefault(r["workload"], {}).setdefault(name, []).append(entry["value"])
    summary = {}
    for workload, metrics in sorted(values.items()):
        summary[workload] = {}
        for name, vals in metrics.items():
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            summary[workload][name] = {"median": statistics.median(vals), "q1": q1,
                                       "q3": q3, "n": len(vals)}
    return {"env": records[0]["env"], "summary": summary}


def load(path):
    path = Path(path)
    if path.is_dir():
        records = [json.loads(p.read_text()) for p in sorted(path.glob("*.json"))]
        records = [r for r in records if r["trace"] == 0]
        if not records:
            raise SystemExit(f"error: no untraced records in {path}")
        return summarize(records)
    return json.loads(path.read_text())


def compare(before, after, bounds):
    """Rows (workload, metric, before median, after median, change, verdict)."""
    if before["env"] != after["env"]:
        raise EnvironmentMismatch(
            f"environments differ: {before['env']} vs {after['env']}")
    rows = []
    for workload, metrics in before["summary"].items():
        for name, b in metrics.items():
            a = after["summary"].get(workload, {}).get(name)
            if a is None or name not in bounds:
                continue
            bound, better = bounds[name]
            change = a["median"] / b["median"] - 1
            worse = change if better == "lower" else -change
            spread = (b["q3"] - b["q1"]) / b["median"]
            if worse > bound:
                verdict = "worse than bound"
            elif spread > bound:
                verdict = "unresolved (spread above bound)"
            else:
                verdict = "within bound"
            rows.append((workload, name, b["median"], a["median"], change, verdict))
    return rows


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    try:
        summaries = [load(p) for p in argv]
        if len(summaries) == 1:
            print(json.dumps(summaries[0], indent=1))
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
        rows = compare(*summaries, bounds)
    except EnvironmentMismatch as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"{'workload':16} {'metric':12} {'before':>10} {'after':>10} {'change':>8}  verdict")
    for workload, name, b, a, change, verdict in rows:
        print(f"{workload:16} {name:12} {b:10.4f} {a:10.4f} {change:+8.1%}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
