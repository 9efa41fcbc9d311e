"""Chain complex of a finite augmented birack and its reduced cohomology.

Degree n chains live in the free abelian group on ordered n-tuples of birack
elements, with basis ordered lexicographically (fixed so matrix fixtures are
stable).  Degree 0 is rank one, generated by the empty tuple, making the
degree-1 boundary the zero map.

The boundary is an alternating sum of two face maps: the deleting face and
the twisted face that acts by beta_{x_k} before the deleted slot and
alpha_{x_k} after it.  Each alternating sum is a boundary map on its own;
their difference is the one used here.  Both faces of every tuple of a
degree come from lookups in the alpha and beta arrays at once; chains are
{tuple: coefficient} dicts only in boundary_of_tuple and
degenerate_generators.

The faces of a degree have one placement: a C-ordered int64 d_n^T, the
tuple giving the row and a face's tuple the column.  The groups need only
the invariant factors of the coboundary d_n^T, which the unit split of
linalg eliminates in place, and the reduced cocycle constraints stack it
as it is; boundary_matrix returns its transpose, the dense d_n.

H_n and H^n read the factors of the pair d_n^T, d_(n+1)^T, and the pair is
factored in that order.  The unit split of d_n^T records M = (I + G) F
with I + G unit lower triangular and the pivot block P of F unit upper
triangular; its pivot rows are a set S of n-cells and its pivot columns a
set C of (n-1)-cells.  d_(n+1)^T is then built without the columns S, so
the split there no longer pays their fill-in, and its factors are those of
the full map, for three reasons:

  - ker d_n is saturated (a kernel always is);
  - M[S, C] = (I + G)[S, S] P is unimodular, so the minor of d_n on the
    rows C and the columns S is too.  If x in ker d_n vanishes off S, then
    d_n[C, S] x_S = 0 and x = 0; if x is k z off S, then x_S = -k d_n[C, S]^-1
    d_n[C, rest] z is divisible by k.  So deleting the coordinates S maps
    ker d_n isomorphically onto a saturated sublattice;
  - im d_(n+1) lies in ker d_n, as d_n d_(n+1) = 0 (the identity that the
    formula of _group rests on too).

The invariant factors of d_(n+1) are those of im d_(n+1) inside the
saturated ker d_n, which the deletion carries to the image of d_(n+1)
with the rows S deleted inside a saturated lattice.  Reducing a chain
complex by its unit pivots before reading its homology is standard
(Kaczynski, Mrozek and Slusarek, "Homology computation by reduction of
chain complexes", 1998).

The kink map pi determines the degenerate subcomplex: degree-n generators
are sums over k = 1..N of tuples carrying (pi^k(x), pi^{k-1}(x)) in a fixed
adjacent pair of slots, one per cycle of pi.  A reduced 2-cocycle is an
integer 2-cochain killed by the degree-3 boundary and vanishing on every
degenerate 2-generator; those are exactly the cochains usable as crossing
weights for links whose framings are only defined mod N.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd

import numpy as np

from .algebra import AugmentedBirack, _cycles
from .errors import InputError, check_budget, check_integers, records
from .linalg import IntegerMatrix, _exact, _factors_in_place, kernel_lattice

__all__ = [
    "Cochain1",
    "Cochain2",
    "HomologyGroup",
    "boundary_matrix",
    "boundary_of_tuple",
    "cohomology_group",
    "degenerate_generators",
    "evaluate_coboundary",
    "homology_group",
    "is_reduced_2_cocycle",
    "parse_cochain",
    "format_cochain",
    "reduced_2_cocycles",
    "reduced_2_cohomology",
    "reduced_cocycle_constraints",
    "tuple_basis",
    "DEFAULT_MAX_CELLS",
]

DEFAULT_MAX_CELLS = 20_000


def _guard(size: int, degree: int, max_cells):
    check_budget(f"degree-{degree} chain basis on {size} elements", size**degree,
                 max_cells, "max_cells", "BIRACKS_MAX_CELLS", DEFAULT_MAX_CELLS)


def _check_args(degree: int, modulus: int | None = None):
    # before any cell guard or array, so bad input never meets either
    if modulus is None:
        check_integers("degree", (degree,))
    else:
        check_integers("degree and modulus", (degree, modulus))
    if degree < 0:
        raise InputError("degree must be nonnegative")
    if modulus is not None and modulus <= 0:
        raise InputError("modulus must be positive")


def tuple_basis(size: int, degree: int) -> list[tuple[int, ...]]:
    """Lexicographically ordered basis tuples of C_degree."""
    _check_args(degree)
    check_integers("size", (size,))
    if size < 1:
        raise InputError("size must be a positive integer")
    _guard(size, degree, None)
    return list(product(range(1, size + 1), repeat=degree))


def _faces(b: AugmentedBirack, tuples: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """The signed faces of the 0-based tuples in the columns of a degree x M array.

    For k = 1..degree, in that order: the deleting face (entry k removed)
    with sign (-1)^k, then the twisted face with sign -(-1)^k, each a
    (degree-1) x M array.  The twisted face applies beta_{x_k} to the
    entries before slot k and alpha_{x_k} to those after it.
    """
    alpha, beta, _ = b._arrays
    faces = []
    for k in range(len(tuples)):  # 0-based slot k is face k + 1
        sign = 1 if k % 2 else -1
        xk = tuples[k]
        twisted = np.concatenate([beta[xk, tuples[:k]], alpha[xk, tuples[k + 1:]]])
        faces += [(sign, np.delete(tuples, k, axis=0)), (-sign, twisted)]
    return faces


def boundary_of_tuple(b: AugmentedBirack, tup) -> dict:
    """Boundary of a basis tuple: sum over k of (-1)^k (deleting - twisted face).

    A chain is a dict from tuples to nonzero integer coefficients, keyed in
    face order; zero terms are dropped, so a cycle's boundary is the empty
    dict.  Every entry must be an integer in 1..b.size.
    """
    column = np.array(check_integers("tuple entries", tup, b.size), dtype=np.intp)[:, None] - 1
    terms: dict = {}
    for sign, face in _faces(b, column):
        t = tuple(int(v) + 1 for v in face[:, 0])
        terms[t] = terms.get(t, 0) + sign
    return {t: c for t, c in terms.items() if c}


def boundary_matrix(b: AugmentedBirack, degree: int, max_cells=None) -> IntegerMatrix:
    """Matrix of the boundary C_degree -> C_(degree-1) in the tuple bases.

    Columns follow the lexicographic order of degree-tuples, rows of
    (degree-1)-tuples; degree 0 gives the empty matrix with one column.  A
    face's row is its tuple read as base-size digits.
    """
    _check_args(degree)
    _guard(b.size, degree, max_cells)
    return IntegerMatrix._of(_boundary(b, degree)).transpose()


def _boundary(b: AugmentedBirack, degree: int, drop=()) -> np.ndarray:
    """The C-ordered int64 transpose d_n^T of boundary_matrix, n = degree.
    The faces in drop, indices of (degree-1)-cells, are left out: their
    columns are not built, and the others keep their order.  The caller
    checks the degree and guards the cells."""
    n = b.size
    if degree == 0:
        return np.zeros((1, 0), dtype=np.int64)
    faces = n ** (degree - 1)
    if len(drop):
        kept = np.ones(faces, dtype=bool)
        kept[np.asarray(drop, dtype=np.intp)] = False
        place = np.where(kept, np.cumsum(kept) - 1, -1)  # a kept face's column
        faces = int(kept.sum())
    m = np.zeros((n ** degree, faces), dtype=np.int64)
    tuples = np.indices((n,) * degree).reshape(degree, -1)
    places = n ** np.arange(degree - 2, -1, -1)
    cells = np.arange(tuples.shape[1])
    for sign, face in _faces(b, tuples):
        rows, columns = cells, places @ face
        if len(drop):
            columns = place[columns]
            rows, columns = cells[columns >= 0], columns[columns >= 0]
        np.add.at(m, (rows, columns), sign)
    return m


def degenerate_generators(b: AugmentedBirack, degree: int, max_cells=None) -> list[dict]:
    """Generating chains of the degenerate subgroup in the given degree.

    For each adjacent slot pair (j, j+1), each filling of the remaining
    slots, and each element x, the chain sums (pi^k(x), pi^(k-1)(x)) over
    k = 1..N in those slots, as a dict from tuples to their (positive)
    coefficients.  Every x of one cycle of pi gives the same chain, N/|cycle|
    times the cycle's pairs, so each cycle is taken once, walked from its
    least element; order is deterministic.
    """
    _check_args(degree)
    _guard(b.size, degree, max_cells)
    N = b.characteristic
    cycles = _cycles(b.pi)
    gens: list[dict] = []
    for j in range(degree - 1):
        for rest in product(range(1, b.size + 1), repeat=degree - 2):
            head, tail = rest[:j], rest[j:]
            for cycle in cycles:
                gens.append({head + (b.pi[x], x + 1) + tail: N // len(cycle)
                             for x in cycle})
    return gens


# -- homology and cohomology groups ------------------------------------


@dataclass(frozen=True)
class HomologyGroup:
    """Free rank plus torsion coefficients in divisibility order."""

    free_rank: int
    torsion: tuple[int, ...]

    def describe(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_json_dict(self):
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    def __str__(self):
        return self.describe()


def _group(size: int, low, high, modulus: int | None,
           cohomology: bool) -> HomologyGroup:
    """H_n or H^n from the invariant factors of the coboundaries d_n^T, d_(n+1)^T.

    size is the rank of the n-cochains; low and high are the factors of d_n^T
    and d_(n+1)^T.  With r = size - rank d_n - rank d_(n+1), H_n = Z^r +
    T(d_(n+1)) and H^n = Z^r + T(d_n), where T(d) lists the invariant factors
    of d above 1.  Over Z_m both are Z_m^r plus Z_gcd(t, m) for every
    invariant factor t of either map (universal coefficients).  Any map whose
    kernel is saturated and contains the image of d_n^T works in place of
    d_(n+1)^T: the reduced 2-cohomology passes its cocycle constraints.
    """
    free = size - len(low) - len(high)
    if modulus is None:
        torsion = low if cohomology else high
        return HomologyGroup(free, tuple(t for t in torsion if t > 1))
    orders = [modulus] * free + [gcd(t, modulus) for t in low + high]
    orders = [g for g in orders if g > 1]  # the pass below is quadratic
    # Z_a + Z_b = Z_gcd + Z_lcm; after pass i, orders[i] divides every later entry
    for i in range(len(orders)):
        for j in range(i + 1, len(orders)):
            g = gcd(orders[i], orders[j])
            orders[i], orders[j] = g, orders[i] * orders[j] // g
    return HomologyGroup(0, tuple(t for t in orders if t > 1))


def _factor_pair(b: AugmentedBirack, degree: int, max_cells):
    """The invariant factors of d_n^T and of d_(n+1)^T, for n = degree.

    d_n^T is factored first; d_(n+1)^T is then built without the columns of
    the n-cells S that were pivot rows of d_n^T's checked unit split, none
    when smith_normal_form decided.  The factors do not change: ker d_n is
    saturated; the split makes the minor of d_n on S and its pivot columns
    unimodular, so deleting the coordinates S maps ker d_n isomorphically
    onto a saturated sublattice; and im d_(n+1) lies in ker d_n, as
    d_n d_(n+1) = 0.  The module docstring gives the proof in full.
    """
    # both guards before any elimination, d_n's first as its limit is smaller
    _guard(b.size, degree, max_cells)
    _guard(b.size, degree + 1, max_cells)
    low, pivots = _factors_in_place(_boundary(b, degree))
    high = _factors_in_place(_boundary(b, degree + 1, drop=pivots))[0]
    return low, high


def homology_group(b: AugmentedBirack, degree: int, modulus: int | None = None,
                   max_cells=None) -> HomologyGroup:
    """Homology in the given degree, over Z or over Z_modulus."""
    _check_args(degree, modulus)
    return _group(b.size ** degree, *_factor_pair(b, degree, max_cells), modulus,
                  cohomology=False)


def cohomology_group(b: AugmentedBirack, degree: int, modulus: int | None = None,
                     max_cells=None) -> HomologyGroup:
    """Cohomology in the given degree, over Z or over Z_modulus."""
    _check_args(degree, modulus)
    return _group(b.size ** degree, *_factor_pair(b, degree, max_cells), modulus,
                  cohomology=True)


# -- cochains -----------------------------------------------------------


@dataclass(frozen=True)
class Cochain1:
    """Integer function on elements 1..n."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", check_integers("cochain values", self.values))

    @classmethod
    def chi(cls, n: int, i: int, coeff: int = 1):
        check_integers("cochain size and index", (n, i))
        if not 1 <= i <= n:
            raise InputError(f"index {i} out of range 1..{n}")
        vals = [0] * n
        vals[i - 1] = coeff
        return cls(tuple(vals))

    @property
    def size(self) -> int:
        return len(self.values)

    def __call__(self, x: int) -> int:
        return self.values[x - 1]


@dataclass(frozen=True)
class Cochain2:
    """Integer function on ordered pairs of elements 1..n.

    The characteristic cochains chi(i, j) (value 1 on the pair (i, j), zero
    elsewhere) form the standard basis; vector form lists values in the
    lexicographic pair order used by the chain bases.
    """

    values: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(
            check_integers("cochain values", row) for row in self.values))
        if any(len(row) != len(self.values) for row in self.values):
            raise InputError(f"cochain table must be square, got row lengths "
                             f"{[len(row) for row in self.values]}")

    @classmethod
    def from_pairs(cls, n: int, pairs):
        """Build from (i, j) or (i, j, coeff) entries; repeats accumulate."""
        table = [[0] * n for _ in range(n)]
        for entry in pairs:
            entry = check_integers("cochain pair entries", entry)
            i, j, c = entry if len(entry) != 2 else (*entry, 1)
            if not (1 <= i <= n and 1 <= j <= n):
                raise InputError(f"pair ({i}, {j}) out of range 1..{n}")
            table[i - 1][j - 1] += c
        return cls(tuple(tuple(row) for row in table))

    @classmethod
    def from_vector(cls, n: int, vec):
        if len(vec) != n * n:
            raise InputError("vector length must be n^2")
        values = tuple(vec)
        return cls(tuple(values[i * n:(i + 1) * n] for i in range(n)))

    @property
    def size(self) -> int:
        return len(self.values)

    def __call__(self, x: int, y: int) -> int:
        return self.values[x - 1][y - 1]

    def to_vector(self) -> list[int]:
        return [v for row in self.values for v in row]

    def pairs(self):
        """Nonzero entries as (i, j, coeff), lexicographic."""
        return [
            (i + 1, j + 1, v)
            for i, row in enumerate(self.values)
            for j, v in enumerate(row)
            if v
        ]

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.values for v in row)

    def __add__(self, other):
        if not isinstance(other, Cochain2) or other.size != self.size:
            return NotImplemented
        return Cochain2(tuple(
            tuple(a + b for a, b in zip(r1, r2))
            for r1, r2 in zip(self.values, other.values)))

    def __str__(self):
        parts = []
        for i, j, c in self.pairs():
            term = f"chi({i},{j})" if abs(c) == 1 else f"{abs(c)}*chi({i},{j})"
            parts.append(("-" if c < 0 else "+") + term)
        if not parts:
            return "0"
        return "".join(parts).lstrip("+")


def parse_cochain(text: str, size: int) -> Cochain2:
    """Parse the cochain format: lines `i j c` meaning c * chi(i, j)."""
    entries = []
    for lineno, body in records(text):
        tokens = body.split()
        if len(tokens) != 3:
            raise InputError(f"line {lineno}: expected `i j c`, got {body!r}")
        try:
            i, j, c = (int(t) for t in tokens)
        except ValueError:
            raise InputError(f"line {lineno}: non-integer token in {body!r}") from None
        entries.append((i, j, c))
    return Cochain2.from_pairs(size, entries)


def format_cochain(phi: Cochain2) -> str:
    lines = [f"{i} {j} {c}" for i, j, c in phi.pairs()]
    return "\n".join(lines) + ("\n" if lines else "")


def evaluate_coboundary(b: AugmentedBirack, psi: Cochain1) -> Cochain2:
    """The 2-coboundary of a 1-cochain, normalized against the boundary above:

        (delta psi)(x, y) = psi(boundary(x, y))
                          = psi(x) - psi(y) + psi(alpha_x(y)) - psi(beta_y(x))
    """
    if psi.size != b.size:
        raise InputError("cochain size does not match the birack")
    alpha, beta, _ = b._arrays
    v = np.array(psi.values, dtype=object)
    table = v[:, None] - v[None, :] + v[alpha] - v[beta.T]
    return Cochain2(tuple(map(tuple, table.tolist())))


def reduced_cocycle_constraints(b: AugmentedBirack, max_cells=None) -> IntegerMatrix:
    """Stacked constraint matrix whose kernel is the reduced 2-cocycle space.

    Rows are the transposed degree-3 boundary (cocycle condition) followed by
    one row per degenerate 2-generator (vanishing condition); columns run
    over the lexicographic pair basis of 2-cochains.
    """
    _guard(b.size, 3, max_cells)
    n = b.size
    chains = degenerate_generators(b, 2, max_cells)
    degenerate = np.zeros((len(chains), n * n), dtype=np.int64)
    for r, chain in enumerate(chains):
        for (x, y), c in chain.items():
            degenerate[r, (x - 1) * n + y - 1] = c
    return IntegerMatrix._of(np.vstack([_boundary(b, 3), degenerate]))


def _reduced_cocycles(b: AugmentedBirack, modulus: int | None, max_cells):
    """C and the basis over Z or Z_modulus of its kernel: one certified
    elimination of C, which every reduced result reads."""
    constraints = reduced_cocycle_constraints(b, max_cells=max_cells)
    columns = kernel_lattice(constraints, modulus).columns()
    if modulus is not None:
        columns = [[v % modulus for v in col] for col in columns]
    basis = [Cochain2.from_vector(b.size, col) for col in columns if any(col)]
    return constraints, basis


def reduced_2_cocycles(b: AugmentedBirack, modulus: int | None = None,
                       max_cells=None) -> list[Cochain2]:
    """Basis of the reduced 2-cocycle space over Z, or generators over Z_modulus.

    Over Z the result is a lattice basis of all integer solutions.  Over
    Z_modulus the cochains generate the solution group; entries are reduced
    to 0..modulus-1 and zero generators are dropped.
    """
    _check_args(2, modulus)
    return _reduced_cocycles(b, modulus, max_cells)[1]


def is_reduced_2_cocycle(b: AugmentedBirack, phi: Cochain2,
                         modulus: int | None = None) -> bool:
    """Direct check, independent of the constraint matrix: the cocycle
    identity on all triples (x, y, z) as one array expression, and a zero
    sum of phi(pi^k(x), pi^(k-1)(x)) over k = 1..N for every x at once.
    The table is int64 while six values, or N of them, add below 2^63."""
    _check_args(2, modulus)
    if phi.size != b.size:
        return False
    table = np.array(phi.values, dtype=object)
    table = _exact(table, max(6, b.characteristic) * int(np.abs(table).max(initial=0)))
    alpha, beta, pi = b._arrays
    x, y, z = np.ix_(*[range(b.size)] * 3)
    defect = (table[y, z] + table[beta[y, x], alpha[y, z]] + table[x, y]
              - table[alpha[x, y], alpha[x, z]] - table[x, z]
              - table[beta[z, x], beta[z, y]])
    degenerate = 0
    cur = np.arange(b.size)
    for _k in range(b.characteristic):
        degenerate = degenerate + table[pi[cur], cur]
        cur = pi[cur]
    return all(((v % modulus if modulus else v) == 0).all()
               for v in (defect, degenerate))


def reduced_2_cohomology(b: AugmentedBirack,
                         max_cells=None) -> tuple[list[Cochain2], HomologyGroup]:
    """(cocycles, group): the basis reduced_2_cocycles(b) gives, in its
    order, and its quotient by the coboundaries of 1-cochains.

    The reduced cocycles are K = ker C for the constraint matrix C, and the
    coboundaries are the image of d_2^T.  K is saturated, so
    K / im d_2^T = Z^(n^2 - rank C - rank d_2) + T(d_2): the cohomology
    formula of _group with C in place of d_3^T.  Over Z it reads only the
    rank of C, which is n^2 minus the length of the certified kernel basis.
    Degenerate chains need two adjacent slots, so every coboundary lies in
    K; the exact product C * d_2^T == 0 certifies it on every call.
    """
    constraints, cocycles = _reduced_cocycles(b, None, max_cells)
    d_2t = _boundary(b, 2)  # C's guard, of degree 3, has passed
    if not (constraints @ IntegerMatrix._of(d_2t)).is_zero():
        raise AssertionError("a coboundary is not a reduced 2-cocycle")
    rank = b.size ** 2 - len(cocycles)  # (1,) * rank stands for C's factors
    return cocycles, _group(b.size ** 2, _factors_in_place(d_2t)[0], (1,) * rank, None,
                            cohomology=True)
