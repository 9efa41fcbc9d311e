"""Exact linear algebra over the integers.

No floating point is used anywhere.  An IntegerMatrix is one 2-D numpy
array: int64 while every |entry| is below 2^62, and Python ints in an
object array otherwise, so matrices stay arrays from the boundary build
through the Smith form and its checks.  The Smith normal form routine keeps
the unimodular transforms U and V; kernel_lattice reads kernels and
kernels mod m off a given decomposition's V, and every group (homology,
cohomology, and reduced 2-cohomology) needs only the invariant factors.

Elimination uses one set of row primitives (add a multiple, combine two
rows by a gcd step, swap) for both sides: a column operation on A is the
same row operation on A.T, so each primitive acts on a pair of numpy
views, (A, U) for rows and (A.T, V.T) for columns.  On int64 a
conservative bound is checked before every arithmetic step; if entries
could reach 2^62 the whole computation restarts on Python ints.  The
result is verified (D == U*M*V, divisibility chain) before it is returned,
so a decomposition coming out of here is always exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import InputError

_INT64_SAFE = 2**62


class _NeedExact(Exception):
    """Raised internally when int64 headroom is about to run out."""


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
    that writes into `array` must keep that rule.  `data`, `column` and
    `columns` read Python ints; `data` is a tuple snapshot, not a view.
    Multiplication uses int64 when a product bound rules out overflow and
    Python ints otherwise.
    """

    __slots__ = ("array",)

    def __init__(self, data, rows=None, cols=None):
        try:
            a = np.asarray(data, dtype=np.int64)
        except OverflowError:  # an entry beyond int64
            a = np.array(data, dtype=object)
        if a.shape == (0,):
            a = a.reshape(0, cols or 0)
        if a.ndim != 2 or rows not in (None, a.shape[0]) or cols not in (None, a.shape[1]):
            raise ValueError("ragged or mis-shaped matrix data")
        if a.dtype == object:
            a = np.frompyfunc(int, 1, 1)(a)
        elif _huge(a):
            a = a.astype(object)
        self.array = a

    @classmethod
    def _of(cls, a):
        # wrap an exact array, keeping object dtype only where it is needed
        if a.dtype == object and not _huge(a):
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

    @classmethod
    def zeros(cls, rows, cols):
        return cls._of(np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, n):
        return cls._of(np.eye(n, dtype=np.int64))

    @classmethod
    def from_columns(cls, columns, rows):
        return cls(columns, len(columns), rows).transpose()

    def column(self, j):
        return self.array[:, j].tolist()

    def columns(self):
        return self.array.T.tolist()

    def transpose(self):
        return IntegerMatrix._of(self.array.T.copy())

    def max_abs(self):
        return int(np.abs(self.array).max(initial=0))

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
        if self.cols * max(self.max_abs(), 1) * max(other.max_abs(), 1) >= _INT64_SAFE:
            a, b = a.astype(object), b.astype(object)
        return IntegerMatrix._of(a @ b)

    def __repr__(self):
        return f"IntegerMatrix({self.rows}x{self.cols})"


def _huge(a) -> bool:
    """Whether some |entry| of a reaches _INT64_SAFE."""
    return a.size > 0 and (a.max() >= _INT64_SAFE or a.min() <= -_INT64_SAFE)


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
    def rank(self) -> int:
        return sum(1 for x in self.d if x != 0)

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(x for x in self.d if x != 0)

    def diagonal_matrix(self) -> IntegerMatrix:
        huge = any(x >= _INT64_SAFE for x in self.d)
        a = np.zeros(self.shape, dtype=object if huge else np.int64)
        np.fill_diagonal(a, self.d)
        return IntegerMatrix._of(a)


def _snf_eliminate(M, dtype):
    """Core elimination; returns (diag, U, V) with U, V as numpy arrays.

    Raises _NeedExact if dtype is int64 and the guard bound would be crossed.
    """
    A = np.array(M, dtype=dtype)
    m, n = A.shape
    U = np.eye(m, dtype=dtype)
    V = np.eye(n, dtype=dtype)
    guarded = dtype == np.int64
    # Each primitive is a row operation on views (X, T): X the matrix and T
    # the transform recording the operation.
    rows = (A, U)
    cols = (A.T, V.T)

    def check(views, i, j, factor):
        if guarded:
            big = int(max(np.abs(X[[i, j]]).max(initial=0) for X in views))
            if factor * big >= _INT64_SAFE:
                raise _NeedExact

    def add(views, i, j, q):
        # row i += q * row j
        if q == 0:
            return
        check(views, i, j, 1 + abs(q))
        for Y in views:
            Y[i] += q * Y[j]

    def combine(views, i, j, x, y, xj, yj):
        # rows i, j <- (x*row_i + y*row_j, xj*row_i + yj*row_j); det must be +-1
        check(views, i, j, abs(x) + abs(y) + abs(xj) + abs(yj))
        for Y in views:
            Y[[i, j]] = np.stack([x * Y[i] + y * Y[j], xj * Y[i] + yj * Y[j]])

    def swap(views, i, j):
        if i == j:
            return
        for Y in views:
            Y[[i, j]] = Y[[j, i]]

    def clear(views, t):
        # zero column t of X below the pivot; True when a gcd step ran
        X = views[0]
        combined = False
        for i in range(t + 1, X.shape[0]):
            a = int(X[i, t])
            if a == 0:
                continue
            p = int(X[t, t])
            if a % p == 0:
                add(views, i, t, -(a // p))
            else:
                g, x, y = _xgcd(p, a)
                combine(views, t, i, x, y, -(a // g), p // g)
                combined = True
        return combined

    t = 0
    limit = min(m, n)
    while t < limit:
        sub = A[t:, t:]
        nz = np.nonzero(sub)
        if len(nz[0]) == 0:
            break
        vals = np.abs(sub[nz])
        k = int(np.argmin(vals))
        swap(rows, t, t + int(nz[0][k]))
        swap(cols, t, t + int(nz[1][k]))

        while True:
            clear(rows, t)
            if clear(cols, t) and np.any(A[t + 1:, t]):
                continue  # column gcd steps refilled the pivot column
            # force the divisibility chain: pivot must divide the rest
            p = int(A[t, t])
            rest = A[t + 1:, t + 1:]
            bad = np.nonzero(rest % p)
            if len(bad[0]) == 0:
                break
            add(rows, t, t + 1 + int(bad[0][0]), 1)
        if int(A[t, t]) < 0:
            for Y in rows:
                Y[t] = -Y[t]
        t += 1

    diag = [int(A[i, i]) for i in range(limit)]
    return diag, U, V


def smith_normal_form(M) -> SmithDecomposition:
    """Smith normal form with transforms: D = U * M * V.

    M may be an IntegerMatrix or any nested sequence of integers.  The
    returned diagonal is nonnegative and satisfies d[i] | d[i+1]; U, V are
    unimodular.
    """
    if not isinstance(M, IntegerMatrix):
        M = IntegerMatrix(M)
    m, n = M.rows, M.cols
    if m == 0 or n == 0:
        return SmithDecomposition(
            (m, n), (), IntegerMatrix.identity(m), IntegerMatrix.identity(n))
    try:
        # int64 runs guarded; an object array already needs Python ints
        diag, U, V = _snf_eliminate(M.array, M.array.dtype)
    except (_NeedExact, OverflowError):
        diag, U, V = _snf_eliminate(M.array, object)
    snf = SmithDecomposition(
        (m, n), tuple(diag), IntegerMatrix._of(U), IntegerMatrix._of(V))
    _validate_snf(snf, M)
    return snf


def _validate_snf(snf: SmithDecomposition, M: IntegerMatrix):
    d = snf.d
    if any(x < 0 for x in d):
        raise AssertionError("negative diagonal in Smith form")
    for a, b in zip(d, d[1:]):
        if a == 0 and b != 0:
            raise AssertionError("zero before nonzero in Smith diagonal")
        if a != 0 and b % a != 0:
            raise AssertionError("divisibility chain broken in Smith form")
    if (snf.u @ M) @ snf.v != snf.diagonal_matrix():
        raise AssertionError("Smith decomposition does not reproduce the matrix")


def kernel_lattice(snf: SmithDecomposition, modulus: int | None = None) -> IntegerMatrix:
    """The kernel of M as the columns of a matrix, read off its Smith form.

    Over Z, columns rank.. of V: the zero diagonal entries come last, so
    they are a basis of {x : M x = 0}.  Over Z_modulus, every column j of V
    scaled by modulus / gcd(d_j, modulus), with d_j = 0 past the diagonal: a
    basis of the full-rank lattice {x in Z^n : M x = 0 (mod modulus)}.
    """
    if modulus is None:
        return IntegerMatrix._of(snf.v.array[:, snf.rank:].copy())
    if modulus <= 0:
        raise InputError("modulus must be positive")
    d = snf.d + (0,) * (snf.shape[1] - len(snf.d))
    # in Python ints, so the scaled columns cannot overflow
    scale = np.array([modulus // gcd(x, modulus) for x in d], dtype=object)
    return IntegerMatrix._of(snf.v.array * scale)
