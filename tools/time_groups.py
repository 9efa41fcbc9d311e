"""Time the high-degree groups, each in a fresh process.

    python tools/time_groups.py [--repeat K] [NAME ...]

Runs H_4(ab5), H_5(ab4), H_5(ab5), H_6(ab4), H_4(tsr(6,5,2,1)) and
H_4(tsr(6,1,2,5)), or the named ones, each in its own Python process, so
that one group's arrays never raise the next one's peak.  For each it
prints the group, the seconds of the group call alone (not the import or
the birack build) and the child's peak resident set size in MB, as the
child's own getrusage reports it.  A group that the package refuses with
ResourceLimitExceeded prints "refused: " and the message in its place.
With --repeat K each group runs K times, in K processes, and every run
gets its line.  A run whose group is not the one GROUPS expects gets a
second line naming it, and the script then exits 1.  The package is
imported from the src/ of the checkout that holds this script.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# name: (birack, degree, the group it must print).  H_5(ab4) is checked
# against rank oracles over Q and GF(2) in tests/test_factor_oracle.py; no
# oracle has checked the others: they are the groups this script printed
# when these were recorded, as it did before the factor pair of homology.
# H_4(tsr(6,1,2,5)) is refused: its split leaves int64, and the Smith form
# of all of d_5^T would need a 7776 x 7776 U.
GROUPS = {
    "H_4(ab5)": ("ab5", 4, "Z^86 + Z/3 + Z/3"),
    "H_5(ab4)": ("ab4", 5, "Z^16 + Z/2"),
    "H_5(ab5)": ("ab5", 5, "Z^342" + " + Z/3" * 3),
    "H_6(ab4)": ("ab4", 6, "Z^32"),
    "H_4(tsr(6,5,2,1))": ("tsr(6,5,2,1)", 4, "Z^16" + " + Z/3" * 8),
    "H_4(tsr(6,1,2,5))": ("tsr(6,1,2,5)", 4,
                          "refused: Smith form transform pair for a 7776x1123 matrix "
                          "needs 61727305 cells, above the fixed bound "
                          "linalg.MAX_TRANSFORM_CELLS = 16777216"),
}

CHILD = """
import json, resource, sys, time
from biracks import homology_group, load_birack, tsr_birack
from biracks.errors import ResourceLimitExceeded
name, degree = sys.argv[1], int(sys.argv[2])
if name.startswith("tsr"):
    b = tsr_birack(*map(int, name[4:-1].split(",")))
else:
    b = load_birack(name)
start = time.perf_counter()
try:
    group = homology_group(b, degree).describe()
except ResourceLimitExceeded as e:
    group = f"refused: {e}"
seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
print(json.dumps({"group": group, "seconds": seconds, "peak_mb": peak}))
"""


def run(name: str) -> dict:
    birack, degree, _ = GROUPS[name]
    out = subprocess.run([sys.executable, "-c", CHILD, birack, str(degree)],
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"groups to time, of {', '.join(GROUPS)} (default: all)")
    parser.add_argument("--repeat", type=int, default=1, help="runs of each group")
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in GROUPS]
    if unknown:
        parser.error(f"unknown group {unknown[0]!r}")
    wrong = 0
    for name in args.names or GROUPS:
        for _ in range(args.repeat):
            r = run(name)
            print(f"{name:<20} {r['group']:<22} {r['seconds']:8.2f} s {r['peak_mb']:8.1f} MB",
                  flush=True)
            if r["group"] != GROUPS[name][2]:
                wrong += 1
                print(f"{name:<20} expected {GROUPS[name][2]}", flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
