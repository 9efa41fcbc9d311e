"""Finite augmented biracks.

A structure on the set {1, ..., n} is given by two tables of permutations:
alpha[x] is the map y -> alpha_x(y) and beta[x] is y -> beta_x(y).  From
these the package derives the inverse maps alpha_bar, beta_bar (by inverting
the sideways map (x, y) -> (alpha_x(y), beta_y(x)) as a bijection on pairs,
never column by column), the kink map pi, and the characteristic N = order
of pi.  All elements are 1-based to match the usual matrix presentation:
a 2n x n matrix whose upper block has (i, j) entry alpha_j(i) and lower
block beta_j(i).

The defining identities, checked exhaustively:

  (i)   alpha_{pi(x)}(x) = beta_x(pi(x)), and the mirror identity
        beta_bar_{pi(x)}(x) = alpha_bar_x(pi(x));
  (ii)  the sideways map is a bijection of ordered pairs;
  (iii) alpha_{alpha_x(y)} alpha_x = alpha_{beta_y(x)} alpha_y,
        beta_{alpha_x(y)} alpha_x  = alpha_{beta_y(x)} beta_y,
        beta_{alpha_x(y)} beta_x   = beta_{beta_y(x)} beta_y,
        as maps, compared pointwise.

The checks are array expressions on the 0-based tables A = alpha - 1 and
B = beta - 1, so that A[x, y] = alpha_x(y) - 1.  Axiom (ii) codes S(x, y)
as A[x, y] * n + B[y, x]; the pairs whose code repeats are the collisions,
found with one bincount, and when there are none alpha_bar and beta_bar are
two scatter assignments.  Axiom (iii) compares the three identities at
every (x, y, z) at once, over blocks of x and y of at most 2^18 cells (for
n <= 2^18), so every table with n <= 64 takes one block and the temporaries
stay a few MB at any n.  The kink solutions of x are the nonzeros of row x
of A^T == B.  When pi does not exist, axiom (i) fails at every x with no
solution or several, or else at every x that shares its image; these are
reported as witnesses, not worded.  Witnesses are 1-based tuples of Python
ints, sorted (row-major order).

A validated birack keeps the 1-based tuples as its fields and gives the
numeric layers one read-only 0-based view of alpha, beta and pi.

Structures with pi = id are biquandles; labelings of link diagrams by a
biquandle do not depend on framing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm

import numpy as np

from .errors import InputError, check_integers, records

Perm = tuple[int, ...]  # perm[i-1] is the 1-based image of i
_BLOCK_CELLS = 1 << 18  # (x, y, z) cells per block of the exchange check


def _cycles(p: Perm) -> list[list[int]]:
    """The cycles of p as 0-based walks i, p(i), p(p(i)), ..., each from its
    least element, in the order of those elements."""
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = p[i] - 1
        if cycle:
            cycles.append(cycle)
    return cycles


def _cells(mask) -> tuple[tuple[int, ...], ...]:
    """The true cells of a boolean array in row-major order, as 1-based tuples."""
    return tuple(zip(*(np.array(mask.nonzero()) + 1).tolist()))


def _perm_order(p: Perm) -> int:
    return lcm(*(len(cycle) for cycle in _cycles(p)))


def cycle_notation(p: Perm) -> str:
    """Render a permutation as disjoint cycles, e.g. "(1 4)(2 3)" or "id"."""
    parts = ["(" + " ".join(str(i + 1) for i in cycle) + ")"
             for cycle in _cycles(p) if len(cycle) > 1]
    return "".join(parts) if parts else "id"


def _normalize_tables(alpha, beta):
    alpha = tuple(check_integers("alpha entries", row) for row in alpha)
    beta = tuple(check_integers("beta entries", row) for row in beta)
    n = len(alpha)
    if n == 0 or len(beta) != n:
        raise InputError("alpha and beta must be nonempty tables of equal size")
    target = set(range(1, n + 1))
    for kind, table in (("alpha", alpha), ("beta", beta)):
        for x, row in enumerate(table, start=1):
            if len(row) != n or set(row) != target:
                raise InputError(f"{kind}_{x} is not a bijection: image {list(row)}")
    return alpha, beta, n


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    witnesses: tuple

    def __bool__(self):
        return self.passed


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of checking the three defining identities on a pair of tables.

    pi and characteristic are populated only when the kink map exists and is
    unique for every element; witnesses list the offending x or (x, y).
    """

    size: int
    axiom_i: AxiomCheck
    axiom_ii: AxiomCheck
    axiom_iii: AxiomCheck
    pi: Perm | None
    characteristic: int | None

    @property
    def ok(self) -> bool:
        return self.axiom_i.passed and self.axiom_ii.passed and self.axiom_iii.passed

    @property
    def checks(self):
        return (self.axiom_i, self.axiom_ii, self.axiom_iii)


@dataclass(frozen=True)
class AugmentedBirack:
    """A validated finite augmented birack on {1, ..., size}.

    Instances are immutable; build them with from_tables, from_matrix,
    tsr_birack, or parse_birack rather than directly, so the derived tables
    are consistent and the axioms have been verified.
    """

    size: int
    alpha: tuple[Perm, ...]
    beta: tuple[Perm, ...]
    alpha_bar: tuple[Perm, ...]
    beta_bar: tuple[Perm, ...]
    pi: Perm
    characteristic: int

    # -- primary and derived maps ------------------------------------

    def a(self, x: int, y: int) -> int:
        """alpha_x(y)."""
        self._check(x, y)
        return self.alpha[x - 1][y - 1]

    def b(self, x: int, y: int) -> int:
        """beta_x(y)."""
        self._check(x, y)
        return self.beta[x - 1][y - 1]

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """alpha, beta and pi as read-only 0-based int arrays, the view every
        numeric layer reads: alpha[x, y] = alpha_{x+1}(y+1) - 1."""
        arrays = tuple(np.array(t) - 1 for t in (self.alpha, self.beta, self.pi))
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @property
    def is_biquandle(self) -> bool:
        return self.characteristic == 1

    # -- composite maps ----------------------------------------------

    def sideways(self, x: int, y: int) -> tuple[int, int]:
        """S(x, y) = (alpha_x(y), beta_y(x))."""
        self._check(x, y)
        return self.alpha[x - 1][y - 1], self.beta[y - 1][x - 1]

    # -- rendering ----------------------------------------------------

    def to_matrix(self) -> list[list[int]]:
        """The 2n x n block matrix: upper (i,j) = alpha_j(i), lower beta_j(i)."""
        n = self.size
        upper = [[self.alpha[j][i] for j in range(n)] for i in range(n)]
        lower = [[self.beta[j][i] for j in range(n)] for i in range(n)]
        return upper + lower

    def _check(self, *vals: int):
        for v in vals:
            if not 1 <= v <= self.size:
                raise InputError(f"element {v} out of range 1..{self.size}")

    def __repr__(self):
        return (f"AugmentedBirack(size={self.size}, "
                f"pi={cycle_notation(self.pi)}, N={self.characteristic})")


def _check_tables(alpha, beta):
    """check_axioms' report and what from_tables builds on: the normalized
    tables and their sideways inverse (None when S is not a bijection)."""
    alpha, beta, n = _normalize_tables(alpha, beta)
    A = np.array(alpha) - 1  # A[x, y] = alpha_x(y) - 1
    B = np.array(beta) - 1
    xs = np.arange(n)

    # (ii): S(x, y) = (A[x, y], B[y, x]) as one code per pair.  alpha_bar and
    # beta_bar are built as the inverse of S, so the inversion identities
    # hold whenever S is a bijection: S^-1(u, v) = (beta_bar_u(v), alpha_bar_v(u))
    code = A * n + B.T
    collisions = _cells(np.bincount(code.ravel(), minlength=n * n)[code] > 1)
    axiom_ii = AxiomCheck("ii", not collisions, collisions)
    alpha_bar = beta_bar = None
    if not collisions:
        ab, bb = np.empty_like(A), np.empty_like(A)
        bb[A, B.T] = xs[:, None]
        ab[B.T, A] = xs
        alpha_bar, beta_bar = (tuple(map(tuple, (t + 1).tolist())) for t in (ab, bb))

    # (iii) at every (x, y, z), over blocks of x and y of at most _BLOCK_CELLS cells
    ystep = min(n, max(1, _BLOCK_CELLS // n))
    xstep = max(1, _BLOCK_CELLS // (ystep * n))
    failed = np.empty((n, n), dtype=bool)
    for x0 in range(0, n, xstep):
        for y0 in range(0, n, ystep):
            i, j = slice(x0, x0 + xstep), slice(y0, y0 + ystep)
            u, v = A[i, j, None], B.T[i, j, None]
            ax, bx, ay, by = A[i, None], B[i, None], A[j], B[j]
            ok = (A[u, ax] == A[v, ay]) & (B[u, ax] == A[v, by]) & (B[u, bx] == B[v, by])
            failed[i, j] = ~ok.all(axis=2)
    failures = _cells(failed)
    axiom_iii = AxiomCheck("iii", not failures, failures)

    # (i): solves[x, y] says that y solves the kink identity alpha_y(x) = beta_x(y)
    solves = A.T == B
    p = solves.argmax(axis=1)  # pi - 1, where x has one solution
    bad = solves.sum(axis=1) != 1
    if not bad.any():
        bad = np.bincount(p, minlength=n)[p] > 1  # pi is not injective
    pi = None if bad.any() else tuple((p + 1).tolist())
    if pi and alpha_bar is not None:
        bad = bb[p, xs] != ab[xs, p]  # beta_bar_{pi(x)}(x) = alpha_bar_x(pi(x))
    witnesses = _cells(bad)

    report = AxiomReport(
        size=n,
        axiom_i=AxiomCheck("i", not witnesses, witnesses),
        axiom_ii=axiom_ii,
        axiom_iii=axiom_iii,
        pi=pi,
        characteristic=_perm_order(pi) if pi else None,
    )
    return report, (alpha, beta, alpha_bar, beta_bar)


def check_axioms(alpha, beta) -> AxiomReport:
    """Check the three augmented-birack identities on permutation tables.

    Always returns a report (never raises for axiom failures); tables whose
    rows are not permutations of 1..n are rejected with InputError.
    """
    return _check_tables(alpha, beta)[0]


def from_tables(alpha, beta) -> AugmentedBirack:
    """Build and validate a birack from permutation tables alpha, beta."""
    report, (alpha, beta, alpha_bar, beta_bar) = _check_tables(alpha, beta)
    if not report.axiom_ii.passed:
        raise InputError(f"axiom ii fails at {report.axiom_ii.witnesses[0]}")
    if not report.axiom_iii.passed:
        raise InputError(f"axiom iii fails at {report.axiom_iii.witnesses[0]}")
    if not report.axiom_i.passed:
        raise InputError(f"axiom i fails at {report.axiom_i.witnesses[0]}")
    return AugmentedBirack(
        size=report.size,
        alpha=alpha,
        beta=beta,
        alpha_bar=alpha_bar,
        beta_bar=beta_bar,
        pi=report.pi,
        characteristic=report.characteristic,
    )


def matrix_to_tables(matrix):
    """Split a 2n x n block matrix into unvalidated (alpha, beta) tables.

    Row i, column j of the upper block is alpha_j(i); of the lower block,
    beta_j(i).  So the columns of the blocks are the maps, which is why a
    failed permutation check reports a column.
    """
    rows = [list(check_integers("matrix entries", row)) for row in matrix]
    if not rows or len(rows) % 2 != 0:
        raise InputError("matrix must have 2n rows")
    n = len(rows) // 2
    if any(len(row) != n for row in rows):
        raise InputError(f"matrix must have {n} columns to match its 2n rows")
    alpha = [[rows[i][j] for i in range(n)] for j in range(n)]
    beta = [[rows[n + i][j] for i in range(n)] for j in range(n)]
    return alpha, beta


def from_matrix(matrix) -> AugmentedBirack:
    """Build and validate a birack from its 2n x n block matrix."""
    alpha, beta = matrix_to_tables(matrix)
    return from_tables(alpha, beta)


def tsr_birack(n: int, t: int, s: int, r: int) -> AugmentedBirack:
    """The birack on Z_n with alpha_x(y) = ry and beta_y(x) = tx - tsy.

    Requires t, r invertible mod n and s^2 = (1 - t^-1 r)s mod n; the kink
    map comes out as x -> (t^-1 r + s)x, so these do not all have pi = id.
    """
    n, t, s, r = check_integers("tsr_birack parameters", (n, t, s, r))
    if n < 1:
        raise InputError("modulus must be positive")
    for name, value in (("t", t), ("r", r)):
        if gcd(value % n if n > 1 else 1, n) != 1:
            raise InputError(f"{name}={value} is not a unit mod {n}")
    t_inv = pow(t, -1, n)
    if (s * s - (1 - t_inv * r) * s) % n != 0:
        raise InputError(
            f"s^2 = (1 - t^-1 r)s fails mod {n} for t={t}, s={s}, r={r}")

    def mod1(v):
        return (v - 1) % n + 1

    alpha = [[mod1(r * y) for y in range(1, n + 1)] for _x in range(n)]
    beta = [[mod1(t * x - t * s * y) for x in range(1, n + 1)]
            for y in range(1, n + 1)]
    return from_tables(alpha, beta)


def parse_birack_tables(text: str):
    """Parse the birack text format into unvalidated (alpha, beta) tables.

    Format: first token n, then 2n rows of n entries (upper block alpha,
    lower beta, columns are the maps).  Whitespace is free-form and `#`
    starts a comment running to end of line.
    """
    tokens = [token for _, body in records(text) for token in body.split()]
    if not tokens:
        raise InputError("empty birack file")
    try:
        values = [int(tok) for tok in tokens]
    except ValueError as e:
        raise InputError(f"birack file has a non-integer token: {e}") from None
    n = values[0]
    if n < 1:
        raise InputError("size must be a positive integer")
    need = 2 * n * n
    body = values[1:]
    if len(body) != need:
        raise InputError(
            f"expected {need} table entries for size {n}, found {len(body)}")
    rows = [body[i * n:(i + 1) * n] for i in range(2 * n)]
    return matrix_to_tables(rows)


def parse_birack(text: str) -> AugmentedBirack:
    """Parse and validate the birack text format."""
    alpha, beta = parse_birack_tables(text)
    return from_tables(alpha, beta)


def format_birack(b: AugmentedBirack) -> str:
    """Render a birack in the text format accepted by parse_birack."""
    lines = [str(b.size)]
    for row in b.to_matrix():
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
