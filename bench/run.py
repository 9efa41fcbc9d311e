#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload tile_n10 --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36 --trace 0

A run sets the workload up several times (re-importing biracks each time),
then repeats timed passes over the workload's operations for about
--seconds, checking every result outside the timed region.  With
--trace 1 it also times traced passes and reports per-layer metrics.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every operation
passed its check, 1 when one did not, and 2 when biracks' sources are not
in the checkout.  `--workload all` runs each workload in its own process.
"""

from __future__ import annotations

import os

# One thread per workload process; numpy reads these when it is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5

import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def environment():
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def highest_percentile(samples):
    """(p, value) for the highest of a few percentiles with at least ten
    samples above it, or None."""
    for p in (99.9, 99, 95, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            ordered = sorted(samples)
            return p, ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))]
    return None


def purge_biracks():
    for name in [m for m in sys.modules if m == "biracks" or m.startswith("biracks.")]:
        del sys.modules[name]


def check_results(ops, results, expected, label):
    """Number of failed operations of one pass; a failure is reported on stderr."""
    failed = 0
    for op, result in zip(ops, results):
        try:
            if isinstance(result, BaseException):
                raise result
            summary = op.check(result)
            if op.name not in expected:
                raise workloads.Mismatch("no expected value recorded")
            if summary != expected[op.name]:
                raise workloads.Mismatch(
                    f"got {json.dumps(summary)}, expected {json.dumps(expected[op.name])}")
        except Exception as e:
            failed += 1
            print(f"FAIL [{label}] {op.name}: {type(e).__name__}: {e}", file=sys.stderr)
            if not isinstance(e, workloads.Mismatch):
                traceback.print_exception(e, file=sys.stderr)
    return failed


def timed_passes(ops, seconds, on_pass):
    """Repeat passes over ops while one more pass, taking the median pass
    time so far, would end within `seconds`; at least one pass.

    on_pass(results, durations, wall) runs after each pass, untimed."""
    clock = time.perf_counter
    start = clock()
    walls = []
    while True:
        gc.collect()
        results, durations = [], []
        t_pass = clock()
        for op in ops:
            t0 = clock()
            try:
                result = op.call()
            except Exception as e:  # recorded and counted as failed
                result = e
            durations.append(clock() - t0)
            results.append(result)
        wall = clock() - t_pass
        walls.append(wall)
        on_pass(results, durations, wall)
        if clock() - start + statistics.median(walls) > seconds:
            return


def run_workload(args):
    if not (SRC / "biracks" / "__init__.py").is_file():
        print(f"error: no biracks sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (a dependency; its import is not part of set-up)

    setup = workloads.WORKLOADS[args.workload]
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            purge_biracks()
            gc.collect()
            t0 = time.perf_counter()
            ops = setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - t0)
        import biracks

        if Path(biracks.__file__).resolve().parent != SRC / "biracks":
            print(f"error: biracks imported from {biracks.__file__}", file=sys.stderr)
            return 2
        return measure(args, ops, setup, setup_times, expected, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, ops, setup, setup_times, expected, workdir):
    tally = {"attempted": 0, "failed": 0}
    walls, op_times = [], [[] for _ in ops]

    def untraced(results, durations, wall):
        walls.append(wall)
        for samples, seconds in zip(op_times, durations):
            samples.append(seconds)
        tally["attempted"] += len(ops)
        tally["failed"] += check_results(ops, results, expected, "untraced")

    seconds = args.seconds / 2 if args.trace else args.seconds
    timed_passes(ops, seconds, untraced)

    recorder = spans.SpanRecorder()
    traced, all_spans = [], []
    if args.trace:
        recorder.install()
        recorder.active = True
        setup(args.seed, workdir)
        setup_self = spans.layer_self(spans.group_totals(recorder.spans)[0])
        recorder.reset()

        def on_traced(results, durations, wall):
            recorder.active = False
            traced.append(spans.pass_metrics(recorder.spans, recorder.counters, wall))
            all_spans.extend(recorder.spans)
            recorder.reset()
            tally["attempted"] += len(ops)
            tally["failed"] += check_results(ops, results, expected, "traced")
            recorder.active = True

        def call_with_op(i, op):
            def call():
                recorder.op = i
                return op.call()
            return call

        traced_ops = [workloads.Op(op.name, call_with_op(i, op), op.check)
                      for i, op in enumerate(ops)]
        timed_passes(traced_ops, args.seconds / 2, on_traced)
        recorder.active = False
        recorder.uninstall()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    op_medians = [statistics.median(samples) for samples in op_times]
    slowest = max(range(len(ops)), key=op_medians.__getitem__)
    calls = [seconds for samples in op_times for seconds in samples]
    end_to_end = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    fail_frac = tally["failed"] / tally["attempted"]
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations per pass, "
          f"{len(walls)} untraced and {len(traced)} traced passes")
    tail = highest_percentile(walls)
    print(f"  wall_s       {end_to_end['wall_s']:.4f} s  median of {len(walls)} passes"
          + (f", p{tail[0]} {tail[1]:.4f} s" if tail
             else "; too few passes for a percentile above the median"))
    # printed only: single short calls follow the machine's speed too
    # closely to hold a bound between runs (see README.md)
    print(f"  max_op_s     {op_medians[slowest]:.4f} s  median of the slowest operation, "
          f"{ops[slowest].name}")
    tail = highest_percentile(calls)
    print(f"  op_s         {statistics.median(calls):.4f} s  median of {len(calls)} calls"
          + (f", p{tail[0]} {tail[1]:.4f} s" if tail else ""))
    print(f"  setup_s      {end_to_end['setup_s']:.4f} s  median of {len(setup_times)} set-ups")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"  fail_frac    {fail_frac:g}  ({tally['failed']} of {tally['attempted']} operations)")

    if args.trace:
        metrics = {}
        for name in traced[0]:
            metrics[name] = statistics.median(m[name] for m in traced)
        for name, value in setup_self.items():
            if name.split(".")[0] in ("algebra", "data", "diagram", "homology", "linalg"):
                metrics[f"setup.{name}"] = value
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - end_to_end["wall_s"]
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        recorder.write(OUT / "spans" / f"{args.workload}.jsonl", all_spans)
        units = {name: _layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end
        units = END_TO_END_UNITS
    result = {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": environment(), **result,
              "samples": {"wall_s": walls, "setup_s": setup_times,
                          "op_s": dict(zip((op.name for op in ops), op_times))}}
    (OUT / "records").mkdir(parents=True, exist_ok=True)
    (OUT / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def run_all(args):
    """Each workload in its own process; a table of every metric by name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            code = code or proc.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
