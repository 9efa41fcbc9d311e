"""In-memory spans around the public functions of the biracks modules.

A span is (group, start, end, parent, op): the metric group of the wrapped
function, perf_counter times, the index of the enclosing span (-1 at the
top) and the benchmark operation that caused it.  A span's self time is its
duration minus the durations of its direct children; calls run on one
thread, so children nest inside their parent.

Every public function defined in a layer module is wrapped, except the
helpers in INNER, and so is IntegerMatrix.__matmul__.  A wrapper replaces
the function in every biracks module that binds it (the defining module,
the modules that import it by name, and the package root), so internal
calls cannot bypass it.
Counts that need the result (labelings found, matrix cells) are taken
after the call in a child span of group "trace", so the time they cost is
charged to tracing instead of to a layer.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "data", "algebra", "diagram", "invariants", "homology", "linalg")

# Public functions that share one metric group; every other wrapped
# function gets the group "<layer>.<name>".
GROUPS = {
    "load_birack": "data.load",
    "load_cochain": "data.load",
    "load_diagram": "data.load",
    "parse_crossing_list": "diagram.parse",
    "parse_gauss": "diagram.parse",
    "parse_pd": "diagram.parse",
    "counting_invariant": "invariants.tile",
    "cocycle_invariant": "invariants.tile",
    "framed_invariants": "invariants.tile",
    "homology_group": "homology.group",
    "cohomology_group": "homology.group",
    "reduced_2_cocycles": "homology.group",
    "reduced_2_cohomology": "homology.group",
    "kernel_basis": "linalg.lattice",
    "solve": "linalg.lattice",
    "column_span_contains": "linalg.lattice",
    "quotient_invariants": "linalg.lattice",
    "kernel_lattice_mod": "linalg.lattice",
}
# Public helpers that run inside another wrapped function of their own
# module, mostly once per chain element or per diagram rebuild.  They stay
# unwrapped so their time counts toward the caller's metric (the boundary
# build, the kink insertion, the CLI command) and costs no span per element.
INNER = {
    "build_parser", "cmd_check", "cmd_homology", "cmd_cocycles", "cmd_invariant",
    "matrix_to_tables",
    "from_crossings",
    "crossing_equations", "labeling_is_valid",
    "tuple_basis", "boundary_of_tuple", "partial_prime", "partial_dprime",
    "degenerate_generators", "coboundary_basis", "evaluate_coboundary",
}
MATMUL_GROUP = "linalg.matmul"
TRACE_GROUP = "trace"


def _count_labelings(counters, result):
    counters["invariants.labelings"] += len(result)
    counters["invariants.empty_framings"] += not result


def _count_boundary(counters, result):
    counters["homology.boundary_matrix.cells"] += result.rows * result.cols
    counters["homology.boundary_matrix.nnz"] += sum(
        1 for row in result.data for v in row if v)


def _count_smith(counters, result):
    m, n = result.shape
    counters["linalg.smith_normal_form.cells"] += m * n
    counters["linalg.smith_normal_form.max_cells"] = max(
        counters["linalg.smith_normal_form.max_cells"], m * n)
    # entries of U, U^-1 (m x m) and V, V^-1 (n x n), as computed, not measured
    counters["linalg.smith_normal_form.transform_cells"] += 2 * (m * m + n * n)


COUNTERS = {
    "enumerate_labelings": _count_labelings,
    "boundary_matrix": _count_boundary,
    "smith_normal_form": _count_smith,
}


def self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


class SpanRecorder:
    """Wraps the biracks layers and records one span per wrapped call.

    install() patches the modules currently in sys.modules; uninstall()
    restores them.  Recording happens only while `active` is true, so
    correctness checks that reuse library functions stay out of the spans.
    """

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.op = None
        self.active = False
        self._stack = []
        self._patches = []

    def reset(self):
        self.spans = []
        self.counters = defaultdict(int)

    def _wrap(self, group, fn, count=None):
        rec = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            spans, stack = rec.spans, rec._stack
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (group, start, end, parent, rec.op)
            if count is not None:
                t0 = clock()
                count(rec.counters, result)
                spans.append((TRACE_GROUP, t0, clock(), parent, rec.op))
            return result

        return wrapper

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "biracks" or name.startswith("biracks.")]
        replace = {}
        for module in modules:
            layer = module.__name__.split(".")[-1]
            if layer not in LAYERS:
                continue
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and name not in INNER and obj.__module__ == module.__name__):
                    group = GROUPS.get(name, f"{layer}.{name}")
                    replace[id(obj)] = self._wrap(group, obj, COUNTERS.get(name))
        for module in modules:
            for name, obj in list(vars(module).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrapper)
        matrix = sys.modules["biracks.linalg"].IntegerMatrix
        original = matrix.__dict__["__matmul__"]
        self._patches.append((matrix, "__matmul__", original))
        matrix.__matmul__ = self._wrap(MATMUL_GROUP, original)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def write(self, path, spans):
        """One JSON array per line after a header line naming the fields."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for span in spans:
                fh.write(json.dumps(span) + "\n")


def group_totals(spans):
    """(self seconds, calls) per span group."""
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for (group, *_), own in zip(spans, self_times(spans)):
        self_s[group] += own
        calls[group] += 1
    return self_s, calls


def layer_self(self_s):
    """Self seconds summed per layer (and for tracing's own spans)."""
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS + (TRACE_GROUP,)}
    for group, seconds in self_s.items():
        out[group.split(".")[0] + ".self_s"] += seconds
    return out


def pass_metrics(spans, counters, wall):
    """Per-layer metrics of one traced pass that took `wall` seconds."""
    self_s, calls = group_totals(spans)
    m = layer_self(self_s)
    for group in ("cli.main", "data.load", "algebra.from_tables",
                  "diagram.add_positive_kink", "invariants.enumerate_labelings",
                  "invariants.boltzmann_weight", "homology.boundary_matrix",
                  "linalg.smith_normal_form", "linalg.matmul"):
        m[f"{group}.calls"] = calls[group]
        m[f"{group}.self_s"] = self_s[group]
    for group in ("algebra.check_axioms", "diagram.parse", "invariants.tile",
                  "homology.reduced_cocycle_constraints",
                  "homology.is_reduced_2_cocycle", "homology.group",
                  "linalg.lattice"):
        m[f"{group}.self_s"] = self_s[group]
    for name in ("invariants.labelings", "homology.boundary_matrix.cells",
                 "homology.boundary_matrix.nnz", "linalg.smith_normal_form.cells",
                 "linalg.smith_normal_form.max_cells",
                 "linalg.smith_normal_form.transform_cells"):
        m[name] = counters[name]
    searched = calls["invariants.enumerate_labelings"]
    m["invariants.empty_framing_frac"] = (
        counters["invariants.empty_framings"] / searched if searched else 0.0)
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - sum(self_s.values())
    return m
