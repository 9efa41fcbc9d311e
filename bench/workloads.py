"""The three benchmark workloads: seeded inputs, timed operations, checks.

Each workload's setup imports the biracks modules it needs and returns a
list of Op.  An Op's `call` looks its library function up on the module at
call time, so a span recorder installed after setup still sees it.  An
Op's `check` turns the result into a summary that does not depend on the
seed's relabeling; it raises Mismatch when a label-dependent part of the
result fails a direct check.  The summaries of the shipped (unrelabeled)
inputs are stored in expected.json.

The seed conjugates the element labels of the biracks whose operations
run a labeling search (and conjugates their cochains to match).  The
search explores the same tree whatever the labels, so every seed costs the
same.  Operations that run a Smith form keep the shipped labels: the
elimination picks pivots by position, so relabeling changes its cost, and
runs of different seeds would not be comparable.  Over the 24 relabelings
of ab4 the H_4(ab4) call took from 5.5 s to 9.2 s (quartiles 6.0 s and
7.4 s), and one relabeling of tsr_birack(7, 4, 2, 3) made its `cocycles
--quotient` call 4x slower.  Semiarc order stays as shipped for the same
reason: renumbering semiarcs changes the labeling search cost up to 100x.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

TILE_BIRACK = (11, 1, 0, 2)  # tsr_birack(n, t, s, r) with characteristic N = 10
TILE_DIAGRAMS = ("l2a1", "k4_1", "k3_1_variant")
HOMOLOGY_CASES = (
    # (op name, function, birack, degree, modulus)
    ("H_3(ab4)", "homology_group", "ab4", 3, None),
    ("H^3(ab4)", "cohomology_group", "ab4", 3, None),
    ("H_3(ab4;Z_2)", "homology_group", "ab4", 3, 2),
    ("H_4(ab4)", "homology_group", "ab4", 4, None),
    ("H_3(ab5)", "homology_group", "ab5", 3, None),
    ("H^3(ab5)", "cohomology_group", "ab5", 3, None),
)
CENSUS_MAX_N = 6   # every valid tsr_birack(n, t, s, r) with n <= 6 ...
CENSUS_SAMPLE_N = 7  # ... plus the first of each class at n = 7
LARGE_PRIME = 2_147_483_647


class Mismatch(Exception):
    """An operation's output failed a check."""


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], object]


def _require(condition, message):
    if not condition:
        raise Mismatch(message)


def permutation(rng, n):
    """A seeded relabeling of 1..n as a tuple (perm[x-1] is the new label
    of x); the identity when rng is None."""
    perm = list(range(1, n + 1))
    if rng is not None:
        rng.shuffle(perm)
    return tuple(perm)


def relabel_birack(b, perm):
    """The birack with every element x renamed perm[x-1], validated again."""
    from biracks.algebra import from_tables

    n = b.size
    alpha = [[0] * n for _ in range(n)]
    beta = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            alpha[perm[x] - 1][perm[y] - 1] = perm[b.alpha[x][y] - 1]
            beta[perm[x] - 1][perm[y] - 1] = perm[b.beta[x][y] - 1]
    return from_tables(alpha, beta)


def relabel_cochain(phi, perm):
    from biracks.homology import Cochain2

    return Cochain2.from_pairs(
        phi.size, [(perm[i - 1], perm[j - 1], c) for i, j, c in phi.pairs()])


def relabel_perm(p, perm):
    """The permutation perm o p o perm^-1, in the same tuple form."""
    out = [0] * len(p)
    for x, image in enumerate(p):
        out[perm[x] - 1] = perm[image - 1]
    return tuple(out)


def rank_mod(vectors, modulus):
    """Rank of integer vectors over Z_modulus, modulus prime."""
    rows = [[v % modulus for v in vec] for vec in vectors]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, modulus)
        rows[rank] = [v * inv % modulus for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % modulus for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# -- tile_n10 ---------------------------------------------------------------


def tile_n10(seed, workdir):
    """Counting and cocycle invariants over the (Z_10)^c framing tile."""
    from biracks import algebra, data, homology, invariants

    rng = None if seed is None else random.Random(seed)
    shipped = algebra.tsr_birack(*TILE_BIRACK)
    # the cocycle is found before relabeling, so every seed weighs with the
    # same cocycle up to renaming and the weight polynomial is seed-free
    phi = next(p for p in homology.reduced_2_cocycles(shipped) if not p.is_zero())
    perm = permutation(rng, shipped.size)
    b = relabel_birack(shipped, perm)
    phi = relabel_cochain(phi, perm)

    def summary(result):
        return result.to_json_dict()

    def cocycle_summary(result):
        _require(homology.is_reduced_2_cocycle(b, phi),
                 "the weight cochain is not a reduced 2-cocycle")
        return result.to_json_dict()

    ops = []
    for name in TILE_DIAGRAMS:
        d = data.load_diagram(name)
        ops.append(Op(f"counting {name}",
                      lambda d=d: invariants.counting_invariant(d, b), summary))
    d = data.load_diagram("l2a1")
    ops.append(Op("cocycle l2a1",
                  lambda: invariants.cocycle_invariant(d, b, phi), cocycle_summary))
    return ops


# -- homology_deg34 ---------------------------------------------------------


def homology_deg34(seed, workdir):
    """Integral, cohomology and mod-2 groups in degrees 3 and 4, on the
    shipped labels (the seed changes nothing here)."""
    from biracks import data, homology

    biracks = {name: data.load_birack(name) for name in ("ab4", "ab5")}

    ops = []
    for op_name, fn, bname, degree, modulus in HOMOLOGY_CASES:
        b = biracks[bname]
        ops.append(Op(
            op_name,
            lambda fn=fn, b=b, degree=degree, modulus=modulus:
                getattr(homology, fn)(b, degree, modulus=modulus),
            lambda group: group.to_json_dict()))
    return ops


# -- catalog ----------------------------------------------------------------


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_json(result):
    code, out, err = result
    _require(code == 0 and not err, f"exit code {code}, stderr {err.strip()!r}")
    return json.loads(out)


def census():
    """((n, t, s, r), birack) for every valid tsr_birack with n <= 6, plus at
    n = 7 the first birack in (t, s, r) order of each class of equal
    characteristic and equal s == 0.  The n = 7 classes differ in cost up
    to 2x; one of each keeps the census small but covers them all."""
    from biracks import algebra
    from biracks.errors import BirackError

    def valid(n):
        out = []
        for t in range(n):
            for s in range(n):
                for r in range(n):
                    try:
                        out.append(((n, t, s, r), algebra.tsr_birack(n, t, s, r)))
                    except BirackError:
                        pass
        return out

    chosen = [entry for n in range(1, CENSUS_MAX_N + 1) for entry in valid(n)]
    classes = {}
    for key, b in valid(CENSUS_SAMPLE_N):
        classes.setdefault((b.characteristic, key[2] == 0), (key, b))
    chosen.extend(classes[cls] for cls in sorted(classes))
    return chosen


def catalog(seed, workdir):
    """The paper's tables through the CLI on ab4, ab5 and a tsr census; the
    axiom check and the invariants run on relabeled ab4 and ab5."""
    from biracks import algebra, cli, data, homology

    rng = None if seed is None else random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)

    def write(name, text):
        path = workdir / name
        path.write_text(text)
        return str(path)

    def cli_op(name, argv, check):
        return Op(name, lambda: _run_cli(cli, argv + ["--json"]), check)

    def cocycle_basis(b, payload, modulus=None):
        basis = [homology.Cochain2.from_pairs(b.size, entries)
                 for entries in payload["basis"]]
        for phi in basis:
            _require(homology.is_reduced_2_cocycle(b, phi, modulus=modulus),
                     f"{phi} is not a reduced 2-cocycle")
        vectors = [phi.to_vector() for phi in basis]
        _require(rank_mod(vectors, modulus or LARGE_PRIME) == len(basis),
                 "the cocycle basis is not independent")

    def quotient_check(b):
        def check(result):
            payload = _cli_json(result)
            cocycle_basis(b, payload)
            return {"dimension": payload["dimension"], "quotient": payload["quotient"]}
        return check

    def mod2_check(b):
        def check(result):
            payload = _cli_json(result)
            cocycle_basis(b, payload, modulus=2)
            return {"dimension": payload["dimension"]}
        return check

    def axioms_check(pi):
        def check(result):
            payload = _cli_json(result)
            _require(tuple(payload["pi"]) == pi, f"kink map {payload['pi']} != {pi}")
            return {key: payload[key] for key in ("size", "ok", "characteristic")}
        return check

    ops = []
    for name in ("ab4", "ab5"):
        shipped = data.load_birack(name)
        perm = permutation(rng, shipped.size)
        b = relabel_birack(shipped, perm)
        phi = relabel_cochain(data.load_cochain(f"{name}_phi", shipped.size), perm)
        bfile = write(f"{name}.txt", algebra.format_birack(b))
        pfile = write(f"{name}_phi.txt", homology.format_cochain(phi))
        ops += [
            cli_op(f"check {name}", ["check", bfile],
                   axioms_check(relabel_perm(shipped.pi, perm))),
            cli_op(f"homology {name} --reduced", ["homology", name, "--reduced"],
                   _cli_json),
            cli_op(f"cocycles {name} --quotient", ["cocycles", name, "--quotient"],
                   quotient_check(shipped)),
            cli_op(f"cocycles {name} --mod 2", ["cocycles", name, "--mod", "2"],
                   mod2_check(shipped)),
        ]
        ops += [cli_op(f"invariant {name} {d} --phi", ["invariant", bfile, d, "--phi", pfile],
                       _cli_json)
                for d in data.available_diagrams()]

    for (n, t, s, r), b in census():
        label = f"tsr({n},{t},{s},{r})"
        bfile = write(f"tsr_{n}_{t}_{s}_{r}.txt", algebra.format_birack(b))
        ops += [
            cli_op(f"cocycles {label} --quotient", ["cocycles", bfile, "--quotient"],
                   quotient_check(b)),
            cli_op(f"homology {label} -n 2", ["homology", bfile, "-n", "2"], _cli_json),
        ]
    return ops


WORKLOADS = {
    "tile_n10": tile_n10,
    "homology_deg34": homology_deg34,
    "catalog": catalog,
}
