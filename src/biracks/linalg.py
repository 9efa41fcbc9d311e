"""Exact linear algebra over the integers.

No result rests on floating point: only the bound of check (5) below is
summed in float64, with a factor-2 margin for rounding.  Matrices stay
exact numpy arrays (IntegerMatrix) from the boundary build through the
Smith form and its checks.  smith_normal_form keeps the unimodular
transforms U and V.  Every group (homology, cohomology, and reduced
2-cohomology) needs only invariant factors, which invariant_factors
computes with no transforms at all.  A group factors d_n^T first and then
d_(n+1)^T without the columns of the pivot rows of d_n^T's unit split (the
homology module says why the factors do not change).  kernel_lattice reads
kernels, and kernels mod m, off the column transform V alone.

The dense elimination core, _eliminate, carries no transform, V alone, or
U and V: in smith_normal_form (U and V), the V of kernel_lattice, and the
remainder B of invariant_factors below.  Its row primitives (add a
multiple, combine two rows by a gcd step, swap) act on a list of numpy
views, (A, U) for rows and (A.T, V.T) for columns, or A and A.T alone, as
a column operation on A is a row operation on A.T.  The pivot is the
first entry of least |value|, so a +-1 whenever one exists; the rows that
it divides take one vectorized Schur step, and only the rows meeting the
pivot column change.  Pivots depend on A alone, so V is the same with or
without U.  On int64 the core keeps a bound, top, on every entry of A, U
and V.  A multiple q of a row has |q| <= top and makes entries of at most
top (top + 1), so it computes its exact bound from the entries it touches
only once top (top + 1) reaches 2^62; a gcd step always does.  If entries
could reach 2^62, the whole computation restarts on Python ints.
smith_normal_form verifies D == U*M*V exactly and the divisibility chain,
and refuses, with ResourceLimitExceeded, an m x n matrix whose U and V
would hold more than MAX_TRANSFORM_CELLS = 2^24 cells (m^2 + n^2), before
it allocates them.

invariant_factors runs one full elimination, the unit split: sparse steps
on +-1 pivots (_sparse_pivots over Z, after Dumas, Saunders and Villard,
"On efficient sparse integer matrix Smith normal form computations", 2001).
Step k takes the sparsest row that holds a +-1, the lowest on ties, and the
first +-1 in it, as the pivot (r_k, c_k); no column count enters the
choice, and the rows that meet c_k are read off column c_k itself.  It
freezes that row as F_k, and uses it only in that form: each live row i
that meets c_k loses f_ik F_k.  So M = (I + G) F exactly, with G[i, r_k] =
f_ik, and F the frozen rows at the r_k and the final remainder rows
elsewhere.  The split runs in place, in the one array that holds M
(_factors_in_place), so that no second dense copy of M is alive beside it;
M's nonzeros are recorded first as flat coordinates and values.
_check_split checks the record, with no loop over pivots:

  (1) the r_k are distinct, and the c_k are distinct;
  (2) |F_k[c_k]| = 1, and F_k[c_j] = 0 for j < k;
  (3) the remainder rows are 0 on every pivot column;
  (4) G[r_j, r_k] != 0 only for k < j;
  (5) F + G*F - M == 0 at every entry: the array becomes F, then takes one
      sparse product over the nonzeros of the frozen rows, in int64 under a
      bound that keeps every partial sum below 2^62 (past it, _NeedExact),
      and then loses the recorded entries of M; every entry must be left 0.

G is nonzero only in the columns r_k.  With the rows ordered r_1..r_u and
then the rest, (4) makes I + G unit lower triangular, so unimodular, and
(5) makes M equivalent to F.  With the columns ordered c_1..c_u and then
the rest, (2) and (3) give F = [[P, X], [0, B]] with P upper triangular
with +-1 on its diagonal, so unimodular, and [[P, X], [0, B]] times
[[P^-1, -P^-1 X], [0, I]] is I_u + B.  So the invariant factors of M are u
ones and those of B, the remainder with its zero rows and columns dropped,
which has no +-1 entry and is usually empty or small.  Rows of B that are
multiples of one primitive row p, a p and b p, span the lattice of
gcd(a, b) p, and one unimodular pair of column steps turns two such
columns into gcd(a, b) p and 0; so B's columns and then its rows are
merged that way, which keeps its factors, and its rows are ordered by
their largest |entry|, which is what the dense core's pivots and the
minor below meet first.  Both computations below read the merged B, so
the tests check the merge against smith_normal_form.  B's factors are
computed twice, by the dense core and by code that shares nothing with it
(_remainder_factors): a fraction-free elimination gives the rank and a
nonsingular minor D, whose primes are the only ones the factors can have,
and an elimination over Z/q^k for each prime q of D gives the q-adic
valuations.  The two must agree.  An int64 step here that cannot stay
exact or decide (an entry or step at 2^62, a prime of D past trial
division, a valuation past a modulus below 2^31) raises _NeedExact, and
then smith_normal_form(M), with its exact check of U*M*V, decides instead,
or refuses M past MAX_TRANSFORM_CELLS.

kernel_lattice builds no U and multiplies by none.  Let d be the core's
diagonal for M (n columns), r the number of nonzero d_j, and d_j = 0 for
j >= r.  Two of three checks rest on invariant_factors:

  (a) the nonzero d_j equal invariant_factors(M): they are the invariant
      factors of M, so r is its rank;
  (b) invariant_factors(K) == (1,)*k for the k columns K that are read,
      V[:, r:] over Z and all of V over Z_m: K has rank k and spans a primitive
      sublattice (one whose quotient of Z^n is torsion-free), so over Z_m,
      where k = n, V is unimodular;
  (c) column j of M*K is divisible by d_j, which for d_j = 0 means zero.

Over Z, (c) puts the n - r columns of V[:, r:] in ker M, which has rank
n - r by (a).  As span K has rank n - r too, ker M / span K is torsion; it
lies in Z^n / span K, which (b) makes torsion-free, so span K = ker M.
Over Z_m, let L = {x : M x = 0 (mod m)} and s_j = m / gcd(d_j, m).  Column
j of the result is s_j v_j, and M s_j v_j is divisible by s_j d_j, a
multiple of m, or is zero when d_j = 0 (c); so every column lies in L.
Writing M = P D Q with P and Q unimodular (any Smith decomposition) shows
that L = Q^-1 {y : d_j y_j = 0 (mod m) for all j} has index prod_j s_j in
Z^n, a number fixed by the factors that (a) certified.  By (b) the columns
span a lattice of index |det V| prod_j s_j = prod_j s_j.  A sublattice of
L with the same index is L.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import InputError, ResourceLimitExceeded, check_integers

# smith_normal_form refuses an m x n matrix when m^2 + n^2, the cells of U
# and V, is above this
MAX_TRANSFORM_CELLS = 1 << 24
_INT64_SAFE = 2**62
_INT64_MAX = np.iinfo(np.int64).max


def _exact(values, top):
    """values in int64 when top, a bound on what is made of them, is below
    2^63; in Python ints otherwise."""
    return values.astype(np.int64 if top <= _INT64_MAX else object, copy=False)


class _NeedExact(Exception):
    """Raised by an int64 step that cannot stay exact or cannot decide."""


def _xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) = a*x + b*y."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


class IntegerMatrix:
    """A dense integer matrix held as one 2-D numpy array, `array`.

    The array is int64 while every |entry| is below 2^62 (_INT64_SAFE), and
    an object array of Python ints otherwise, so it is always exact.  Code
    that writes into `array` must keep that rule.  `data` and `columns`
    read Python ints; `data` is a tuple snapshot, not a view.
    Multiplication uses int64 when a product bound rules out overflow and
    Python ints otherwise.  The matrix is built from integers only, in rows
    of one length: a float, a string or ragged data is an InputError.
    """

    __slots__ = ("array",)

    def __init__(self, data, rows=None, cols=None):
        try:
            a = np.asarray(data)
        except ValueError:  # rows of unequal length
            raise InputError("ragged or mis-shaped matrix data") from None
        if a.dtype.kind not in "iub":
            # floats, strings, or Python ints that numpy read as floats
            a = np.array(data, dtype=object)
        if a.shape == (0,):
            a = a.reshape(0, cols or 0)
        if a.ndim != 2 or rows not in (None, a.shape[0]) or cols not in (None, a.shape[1]):
            raise InputError("ragged or mis-shaped matrix data")
        if a.dtype.kind in "Ou":  # Python ints, so no uint64 entry past 2^63 wraps
            a = np.array(check_integers("matrix entries", a.flat), dtype=object).reshape(a.shape)
        self.array = a.astype(object if _extent(a) >= _INT64_SAFE else np.int64, copy=False)

    @classmethod
    def _of(cls, a):
        # wrap an exact array, keeping object dtype only where it is needed
        if a.dtype == object and _extent(a) < _INT64_SAFE:
            a = a.astype(np.int64)
        m = cls.__new__(cls)
        m.array = a
        return m

    @property
    def rows(self):
        return self.array.shape[0]

    @property
    def cols(self):
        return self.array.shape[1]

    @property
    def data(self):
        return tuple(map(tuple, self.array.tolist()))

    def columns(self):
        return self.array.T.tolist()

    def transpose(self):
        return IntegerMatrix._of(self.array.T.copy())

    def is_zero(self):
        return not self.array.any()

    def __eq__(self, other):
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return np.array_equal(self.array, other.array)

    def __matmul__(self, other):
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        a, b = self.array, other.array
        if self.cols * max(_extent(a), 1) * max(_extent(b), 1) >= _INT64_SAFE:
            a, b = a.astype(object), b.astype(object)
        return IntegerMatrix._of(a @ b)

    def __repr__(self):
        return f"IntegerMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class SmithDecomposition:
    """Smith normal form of an integer matrix M: D = U * M * V.

    d holds the diagonal of D (nonnegative, each entry dividing the next),
    and U and V are unimodular.
    """

    shape: tuple[int, int]
    d: tuple[int, ...]
    u: IntegerMatrix
    v: IntegerMatrix

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(x for x in self.d if x != 0)

    def diagonal_matrix(self) -> IntegerMatrix:
        huge = any(x >= _INT64_SAFE for x in self.d)
        a = np.zeros(self.shape, dtype=object if huge else np.int64)
        np.fill_diagonal(a, self.d)
        return IntegerMatrix._of(a)


def _eliminate(M, dtype, transforms):
    """The elimination core: diagonalize M by unimodular row and column steps.

    transforms names the transforms carried: "" for none, "V" for the column
    transform alone, "UV" for both.  Returns (A, U, V) with A the diagonal
    result and A = U * M * V, and None for a transform not carried; on int64,
    _NeedExact once an entry could reach 2^62 (the module docstring).
    """
    A = np.array(M, dtype=dtype)
    m, n = A.shape
    U = np.eye(m, dtype=dtype) if "U" in transforms else None
    V = np.eye(n, dtype=dtype) if "V" in transforms else None
    rows = [A] if U is None else [A, U]
    cols = [A.T] if V is None else [A.T, V.T]
    guarded = dtype == np.int64
    top = max(_extent(A), 1) if guarded else None  # bounds all of A, U and V

    def check(bound):  # the entries a step makes are at most bound
        nonlocal top
        if bound >= _INT64_SAFE:
            raise _NeedExact
        top = max(top, bound)

    def add(views, targets, j, q):
        # rows targets += q * row j, on the columns where row j is nonzero; |q| <= top,
        # so the step needs its exact bound only once top * (top + 1) reaches 2^62
        targets = targets[:, None]
        for Y in views:
            source = Y[j]
            support = source.nonzero()[0]
            source = source[support]
            block = Y[targets, support]
            if guarded and top * (top + 1) >= _INT64_SAFE:
                check(_extent(block) + _extent(q) * _extent(source))
            block += np.outer(q, source)
            if guarded:
                check(_extent(block))
            Y[targets, support] = block

    def combine(views, i, j, x, y, xj, yj):
        # rows i, j <- (x*row_i + y*row_j, xj*row_i + yj*row_j); det must be +-1
        for Y in views:
            if guarded:
                check((abs(x) + abs(y) + abs(xj) + abs(yj))
                      * max(_extent(Y[i]), _extent(Y[j])))
            Y[[i, j]] = np.stack([x * Y[i] + y * Y[j], xj * Y[i] + yj * Y[j]])

    def swap(views, i, j):
        if i == j:
            return
        for Y in views:
            Y[[i, j]] = Y[[j, i]]

    def clear(views, t):
        # zero column t of views[0] below the pivot, in row order: the rows up
        # to the first one the pivot does not divide take one Schur step, that
        # row a gcd step, and so on; True when a gcd step ran
        X = views[0]
        combined = False
        while True:
            below = X[t + 1:, t].nonzero()[0] + (t + 1)
            if not len(below):
                return combined
            p = X[t, t]
            a = X[below, t]
            bad = (a % p).nonzero()[0]
            k = int(bad[0]) if len(bad) else len(below)
            if k:
                add(views, below[:k], t, -(a[:k] // p))
            if k == len(below):
                return combined
            p, ai = int(p), int(a[k])
            g, x, y = _xgcd(p, ai)
            combine(views, t, int(below[k]), x, y, -(ai // g), p // g)
            combined = True

    t = 0
    limit = min(m, n)
    while t < limit:
        pivot = _first_least_entry(A[t:, t:])
        if pivot is None:
            break
        swap(rows, t, t + pivot[0])
        swap(cols, t, t + pivot[1])
        while True:
            clear(rows, t)
            if clear(cols, t) and A[t + 1:, t].any():
                continue  # column gcd steps refilled the pivot column
            # force the divisibility chain: pivot must divide the rest
            p = A[t, t]
            if abs(p) == 1:
                break
            bad = np.nonzero(A[t + 1:, t + 1:] % p)
            if len(bad[0]) == 0:
                break
            add(rows, np.array([t]), t + 1 + int(bad[0][0]), np.ones(1, dtype=A.dtype))
        if A[t, t] < 0:
            for Y in rows:
                Y[t] = -Y[t]
        t += 1
    return A, U, V


def _first_least_entry(S):
    """(i, j) of the first entry of least |value| in row-major order, or None
    when S is zero.  A +-1 is looked for first, in growing row blocks, so the
    usual unit pivot costs a scan of the first rows only."""
    start, size = 0, 32
    while start < S.shape[0]:
        block = S[start:start + size]
        unit = (block == 1) | (block == -1)
        hit = np.flatnonzero(unit.any(axis=1))
        if len(hit):
            i = int(hit[0])
            return start + i, int(np.argmax(unit[i]))
        start += size
        size *= 2
    nz = np.nonzero(S)
    if len(nz[0]) == 0:
        return None
    k = int(np.argmin(np.abs(S[nz])))
    return int(nz[0][k]), int(nz[1][k])


def _run_core(a, transforms):
    try:
        # int64 runs guarded; an object array already needs Python ints
        return _eliminate(a, a.dtype, transforms)
    except _NeedExact:
        return _eliminate(a, object, transforms)


def smith_normal_form(M) -> SmithDecomposition:
    """Smith normal form with transforms: D = U * M * V.

    M may be an IntegerMatrix or any nested sequence of integers.  The
    returned diagonal is nonnegative and satisfies d[i] | d[i+1]; U, V are
    unimodular.  The exact product U * M * V == D is checked before return.
    ResourceLimitExceeded, before U and V are allocated, when m^2 + n^2 is
    above MAX_TRANSFORM_CELLS.
    """
    if not isinstance(M, IntegerMatrix):
        M = IntegerMatrix(M)
    m, n = M.rows, M.cols
    if m * m + n * n > MAX_TRANSFORM_CELLS:
        raise ResourceLimitExceeded(f"Smith form transform pair for a {m}x{n} matrix",
                                    m * m + n * n, MAX_TRANSFORM_CELLS,
                                    fixed="linalg.MAX_TRANSFORM_CELLS")
    A, U, V = _run_core(M.array, "UV")
    snf = SmithDecomposition((m, n), tuple(int(x) for x in A.diagonal()),
                             IntegerMatrix._of(U), IntegerMatrix._of(V))
    _check_chain(snf.d)
    if (snf.u @ M) @ snf.v != snf.diagonal_matrix():
        raise AssertionError("Smith decomposition does not reproduce the matrix")
    return snf


def _check_chain(d):
    if any(x < 0 for x in d):
        raise AssertionError("negative diagonal in Smith form")
    for a, b in zip(d, d[1:]):
        if a == 0 and b != 0:
            raise AssertionError("zero before nonzero in Smith diagonal")
        if a != 0 and b % a != 0:
            raise AssertionError("divisibility chain broken in Smith form")


def invariant_factors(M) -> tuple[int, ...]:
    """The nonzero diagonal entries of M's Smith form, in divisibility order.

    Equal to smith_normal_form(M).invariant_factors, from one sparse
    elimination on +-1 pivots with no transforms, certified as the module
    docstring says; the dense core runs only on the remainder.  M is copied
    once, and _factors_in_place eliminates the copy.
    """
    if not isinstance(M, IntegerMatrix):
        M = IntegerMatrix(M)
    return _factors_in_place(M.array.copy())[0]


_NO_PIVOTS = np.zeros(0, dtype=np.intp)


def _factors_in_place(A) -> tuple[tuple[int, ...], np.ndarray]:
    """(invariant_factors of the C-ordered array A, which it overwrites, and
    the pivot rows r_k of its checked unit split).

    The nonzeros of M, the matrix A holds, are recorded as flat coordinates
    and values; the unit split leaves the remainder in A, whose merged copy
    B (_remainder) has no +-1 entry; _check_split checks the record against
    the nonzeros, so M ~ I_u + B.  If an int64 step or the check could reach
    2^62, A is rebuilt from the record for smith_normal_form, with no r_k.
    """
    if not A.size:
        return (), _NO_PIVOTS
    if A.dtype != object:
        cells = np.flatnonzero(A)
        values = A.reshape(-1)[cells]
        try:
            steps = _sparse_pivots(A, cells, _unit_weight, lambda a, p: a * p)
            B = _remainder(A)
            pivots = _check_split(A, steps, cells, values)
            factors = ()
            if B.size:
                factors = _diagonal_factors(_run_core(B, "")[0])
                if factors != _remainder_factors(B):
                    raise AssertionError("invariant factors differ from an independent computation")
            return (1,) * len(pivots) + factors, pivots
        except _NeedExact:
            A.fill(0)
            A.reshape(-1)[cells] = values
    return smith_normal_form(IntegerMatrix._of(A)).invariant_factors, _NO_PIVOTS


def _diagonal_factors(A):
    """The nonzero diagonal of the core's result A, once A is checked to be
    diagonal with a divisibility chain."""
    d = [int(x) for x in A.diagonal()]
    if np.count_nonzero(A) != np.count_nonzero(d):
        raise AssertionError("the elimination left a nonzero entry off the diagonal")
    _check_chain(d)
    return tuple(x for x in d if x)


# -- the factor engine: sparse pivots, and what checks them -----------------
# None of this shares code with the elimination core above.

# moduli stay below 2^31, so a product of two residues stays below 2^62
_MODULUS_LIMIT = 2**31
# pairs (multiplier, frozen entry) expanded at once by the split's check
_CHUNK = 1 << 13
_HELD = 1 << 32  # weight of a pivotal entry in _sparse_pivots
_UNIT_WEIGHT = np.array([0, 1 + _HELD, 1])  # of |x| = 0, 1 and >= 2 in the unit split


def _remainder(A):
    """The copy B of the remainder in A: its nonzero rows on its nonzero
    columns, the columns and then the rows merged by _merge_rows, and the
    rows in the order of their largest |entry|."""
    B = A[np.ix_(A.any(axis=1).nonzero()[0], A.any(axis=0).nonzero()[0])]
    if not B.size:
        return B
    B = _merge_rows(_merge_rows(B.T).T)
    return B[np.argsort(np.abs(B).max(axis=1), kind="stable")]


def _merge_rows(B):
    """B, whose rows are nonzero, with the rows a p, b p, ... that are
    multiples of one primitive row p (first nonzero entry positive) merged
    into the one row gcd(a, b, ...) p.  The module docstring says why the
    factors do not change."""
    g = np.gcd.reduce(B, axis=1)
    P = np.ascontiguousarray(B // g[:, None])
    P *= np.sign(P[np.arange(len(P)), (P != 0).argmax(axis=1)])[:, None]
    rows = P.view(np.dtype((np.void, P.itemsize * P.shape[1]))).reshape(-1)
    _, first, merged = np.unique(rows, return_index=True, return_inverse=True)
    multiplier = np.zeros(len(first), dtype=B.dtype)
    np.gcd.at(multiplier, merged, g)
    return P[first] * multiplier[:, None]


def _unit_weight(a):
    return _UNIT_WEIGHT[np.minimum(a, 2)]


def _extent(a):
    # max |entry| with no temporary the size of a
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def _check_split(F, steps, cells, values):
    """Check, with no loop over pivots, that the record of _sparse_pivots
    over Z gives M = (I + G) F with F unit upper triangular on the pivots.
    M is the matrix whose nonzeros are values at the flat coordinates
    cells.  F enters as the C-ordered remainder and, in place, becomes the
    full F, then F + G F, then F + G F - M, which must be zero at every
    entry.  Returns the r_k; _NeedExact if the product could reach 2^62."""
    m, n = F.shape
    u = len(steps)
    if not u:
        return _NO_PIVOTS
    rows, cols, supports, frozen, others, f = (list(x) for x in zip(*steps))
    rows, cols = np.array(rows, dtype=np.intp), np.array(cols)
    if np.bincount(rows, minlength=m).max() > 1 or np.bincount(cols, minlength=n).max() > 1:
        raise AssertionError("the unit split takes a pivot row or column twice")
    sizes = np.array([len(s) for s in supports])
    starts = np.cumsum(sizes) - sizes
    fcol, fval = np.concatenate(supports), np.concatenate(frozen)
    step = np.repeat(np.arange(u), sizes)  # of each frozen entry
    # the step at which each column was a pivot, and u for the others
    order = np.full(n, u)
    order[cols] = np.arange(u)
    at = order[fcol]
    if (at < step).any():
        raise AssertionError("a frozen row is nonzero on an earlier pivot column")
    on_pivot = at == step
    if (np.bincount(step[on_pivot], minlength=u) != 1).any() or (
            np.abs(fval[on_pivot]) != 1).any():
        raise AssertionError("a pivot of the unit split is not +-1")
    if F.any(axis=0)[cols].any():
        raise AssertionError("the remainder is nonzero on a pivot column")
    gi, gf = np.concatenate(others), np.concatenate(f)
    gsizes = np.array([len(x) for x in others])
    gk = np.repeat(np.arange(u), gsizes)
    # a pivot row is changed only before it is frozen: I + G is unit lower
    # triangular in the order of the steps, so unimodular
    order = np.full(m, u)
    order[rows] = np.arange(u)
    if (order[gi] <= gk).any():
        raise AssertionError("a pivot row changes after it is frozen")
    # int64 is exact while every partial sum of F + G F stays below 2^62:
    # (1 + the row sums of |G|) max |F| bounds them, with room for the
    # rounding of those sums
    top = max(_extent(F), _extent(fval))
    weight = np.bincount(gi, weights=np.abs(gf.astype(float)), minlength=m)
    if (weight.max(initial=0) + 1) * top >= _INT64_SAFE / 2:
        raise _NeedExact
    np.add.at(F, (rows[step], fcol), fval)
    flat = F.reshape(-1)
    counts = sizes[gk]
    ends = np.cumsum(counts)
    start = 0
    while start < len(gi):
        stop = max(int(np.searchsorted(ends, ends[start] - counts[start] + _CHUNK, "right")),
                   start + 1)
        c = counts[start:stop]
        # src runs through the frozen entries of each multiplier's row
        src = np.repeat(starts[gk[start:stop]] - (np.cumsum(c) - c), c)
        src += np.arange(len(src))
        targets = np.repeat(gi[start:stop] * n, c)
        targets += fcol[src]
        terms = np.repeat(gf[start:stop], c)
        terms *= fval[src]
        np.add.at(flat, targets, terms)
        start = stop
    # |F + G F| < 2^61 and |M| < 2^62, so the difference stays in int64
    flat[cells] -= values
    if F.any():
        raise AssertionError("the unit split does not reproduce the matrix")
    return rows


def _remainder_factors(B):
    """The invariant factors of an int64 matrix B, from its rank, one minor,
    and its valuations at the primes of that minor.

    Every factor divides the determinant D of a nonsingular rank x rank
    minor, so the primes q of D are all the primes that occur, and an
    elimination over Z/q^k gives how many factors have each q-adic valuation
    below k.  _NeedExact when D has a prime part that trial division cannot
    find below 2^31, or a valuation reaches k.
    """
    rank, minor = _rank_and_minor(B)
    factors = [1] * rank
    for q in _primes_of(minor):
        counts = _valuation_pivots(B, q)
        if sum(counts) != rank:
            raise _NeedExact
        valuations = [v for v, n in enumerate(counts) for _ in range(n)]
        for i, v in enumerate(valuations):
            factors[i] *= q ** v
    return tuple(factors)


def _rank_and_minor(B):
    """(r, |D|): the rank r of B over Q and the determinant D of a
    nonsingular r x r minor, by fraction-free (Bareiss) elimination in
    Python ints.  After each step every entry left is a minor of B, so the
    last pivot is one of size r."""
    A = B.astype(object)
    m, n = A.shape
    rank, last = 0, 1
    for c in range(n):
        if rank == m:
            break
        below = A[rank:, c].nonzero()[0]
        if not len(below):
            continue
        i = rank + int(below[0])
        A[[rank, i]] = A[[i, rank]]
        p = A[rank, c]
        A[rank + 1:, c + 1:] = (p * A[rank + 1:, c + 1:]
                                - np.outer(A[rank + 1:, c], A[rank, c + 1:])) // last
        A[rank + 1:, c] = 0
        rank, last = rank + 1, p
    return rank, abs(last)


def _primes_of(D):
    """The primes dividing D > 0, by trial division; _NeedExact when D has a
    prime factor that trial division below sqrt(2^31) cannot find and that
    is not itself a prime below 2^31."""
    primes, f = [], 2
    while f * f <= D:
        if f * f >= _MODULUS_LIMIT:
            raise _NeedExact
        if D % f == 0:
            primes.append(f)
            while D % f == 0:
                D //= f
        f += 1 if f == 2 else 2
    if D > 1:
        if D >= _MODULUS_LIMIT:
            raise _NeedExact
        primes.append(D)
    return primes


def _valuation_pivots(B, q):
    """Factor counts of B by q-adic valuation over Z/q^k, for the largest k
    with q^k < 2^31: entry v is the number of factors of valuation v.  The
    list stops once no entry is left, so a sum below B's rank means that
    some factor has valuation k or more.  Levels are taken in increasing
    order, so at level v every entry left is divisible by q^v, and the
    pivots are the entries of valuation v.
    """
    k = 1
    while q ** (k + 1) < _MODULUS_LIMIT:
        k += 1
    Q = q ** k
    A = B % Q
    counts = []
    for v in range(k):
        if not A.any():
            break
        low, step = q ** v, q ** (v + 1)
        counts.append(len(_sparse_pivots(
            A, np.flatnonzero(A), lambda a: (a != 0) + _HELD * (a % step != 0),
            lambda a, p: (a // low) * pow(int(p) // low, -1, Q) % Q, Q)))
    return counts


def _sparse_pivots(A, cells, weight, multipliers, modulus=None):
    """Eliminate, in place, on the pivotal entries of the nonempty C-ordered
    int64 matrix A, whose nonzeros lie at the flat coordinates cells, over Z
    when modulus is None, and return the record of the steps; _NeedExact
    over Z if a step could reach 2^62.

    weight maps |x| to [x != 0] + HELD [x is pivotal], HELD = 2^32, so each
    row keeps one exact code = nnz + HELD held, the sum of its weights: its
    counts of nonzeros and of pivotal entries.  Both are at most n, so the
    code, at most n (1 + HELD), is exact in int64 and nnz < HELD while
    n < 2^31, a row of 16 GiB.  Each pivot is the first pivotal entry of the
    row of least nnz with code >= HELD, the lowest such row on ties.  The
    pivot row is frozen and cleared, and each row meeting the pivot column
    loses f times it, f = multipliers(its entries in the pivot column, the
    pivot), which clears its entry there; its code moves by weight(new) -
    weight(old) over the entries changed.  Step k is recorded as (pivot
    row, pivot column, the frozen row's support and entries there, the rows
    changed, their multipliers).
    """
    m, n = A.shape
    flat = A.reshape(-1)
    values = np.abs(flat[cells])
    code = np.zeros(m, dtype=np.int64)  # bincount would sum in float64
    np.add.at(code, cells // n, weight(values))
    # top bounds every entry, so a step is safe while top * (top + 1) < 2^62
    top = int(values.max(initial=0))
    del cells, values
    aside = n + 1
    score = np.where(code >= _HELD, code & (_HELD - 1), aside)
    steps = []
    while True:
        r = int(score.argmin())
        if score[r] == aside:
            return steps
        support = A[r].nonzero()[0]
        frozen = A[r, support]
        i = weight(np.abs(frozen)).argmax()
        c = support[i]
        A[r] = 0
        score[r] = aside
        others = A[:, c].nonzero()[0]
        block = np.add.outer(others * n, support)
        old = flat.take(block)
        f = multipliers(old[:, i], frozen[i])
        steps.append((r, c, support, frozen, others, f))
        if top * (top + 1) >= _INT64_SAFE and (
                _extent(old) + _extent(f) * _extent(frozen) >= _INT64_SAFE):
            raise _NeedExact
        new = old - f[:, None] * frozen
        if modulus is not None:
            new %= modulus
        flat.put(block, new)
        top = max(top, int(np.abs(new, out=new).max(initial=0)))  # |new| < 2^62
        moved = code.take(others) + (weight(new) - weight(np.abs(old, out=old))).sum(axis=1)
        code.put(others, moved)
        score.put(others, np.where(moved >= _HELD, moved & (_HELD - 1), aside))


def kernel_lattice(M, modulus: int | None = None) -> IntegerMatrix:
    """The kernel of M as the columns of a matrix, certified.

    Over Z, a basis of {x : M x = 0}: the columns of V past the rank, where
    V is the column transform of one elimination of M.  Over Z_modulus, a
    basis of the full-rank lattice {x in Z^n : M x = 0 (mod modulus)}: every
    column j of V scaled by modulus / gcd(d_j, modulus), with d_j the j-th
    invariant factor and d_j = 0 past them.  M may be an IntegerMatrix or
    any nested sequence of integers.  One run of the core carries V alone;
    the checks (a), (b) and (c) of the module docstring certify the result,
    with no U and no product by it.
    """
    if modulus is not None:
        check_integers("modulus", (modulus,))
        if modulus <= 0:
            raise InputError("modulus must be positive")
    if not isinstance(M, IntegerMatrix):
        M = IntegerMatrix(M)
    n = M.cols
    A, _, V = _run_core(M.array, "V")
    factors = _diagonal_factors(A)
    del A  # before (a) makes its own copy of M
    if factors != invariant_factors(M):  # (a)
        raise AssertionError("invariant factors differ from an independent computation")
    r = len(factors)
    # the columns read, and the nonzero d_j of the first of them
    read, lead = (V[:, r:].copy(), ()) if modulus is None else (V, factors)
    cols = IntegerMatrix._of(read)
    if invariant_factors(cols) != (1,) * cols.cols:  # (b)
        raise AssertionError("invariant factors differ from 1 on the columns read")
    image = (M @ cols).array  # (c)
    k = len(lead)
    if image[:, k:].any() or (k and (
            image[:, :k] % _exact(np.array(lead, dtype=object), lead[-1])).any()):
        raise AssertionError("a kernel column fails the divisibility check")
    if modulus is None:
        return cols
    d = factors + (0,) * (n - r)
    # in Python ints, so the scaled columns cannot overflow
    scale = np.array([modulus // gcd(x, modulus) for x in d], dtype=object)
    return IntegerMatrix._of(cols.array * scale)
