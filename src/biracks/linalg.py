"""Exact linear algebra over the integers.

Everything in this module computes with arbitrary-precision integers; no
floating point is used anywhere.  The Smith normal form routine keeps the
unimodular transforms U and V; the reduced-cocycle code reads kernels and
kernels mod m off V, and every group (homology, cohomology, and reduced
2-cohomology) needs only the invariant factors.

Elimination uses one set of row primitives (add a multiple, combine two
rows by a gcd step, swap) for both sides: a column operation on A is the
same row operation on A.T, so each primitive acts on a pair of numpy
views, (A, U) for rows and (A.T, V.T) for columns.  It runs
on int64 arrays for speed, with a conservative bound checked before every
arithmetic step; if entries could approach the int64 range the whole
computation restarts on an object-dtype array holding Python ints.  The
result is verified (D == U*M*V, divisibility chain) before it is returned,
so a decomposition coming out of here is always exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

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
    """A dense integer matrix stored as a list of row lists.

    Multiplication is exact: it uses numpy int64 when a product bound
    guarantees no overflow and falls back to Python integers otherwise.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, rows=None, cols=None):
        data = [[int(v) for v in row] for row in data]
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ValueError("ragged or mis-shaped matrix data")
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def identity(cls, n):
        m = cls.zeros(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @classmethod
    def from_columns(cls, columns, rows):
        m = cls.zeros(rows, len(columns))
        for j, col in enumerate(columns):
            if len(col) != rows:
                raise ValueError("column of wrong length")
            for i, v in enumerate(col):
                m.data[i][j] = int(v)
        return m

    def column(self, j):
        return [row[j] for row in self.data]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def transpose(self):
        return IntegerMatrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            self.cols,
            self.rows,
        )

    def max_abs(self):
        best = 0
        for row in self.data:
            for v in row:
                a = -v if v < 0 else v
                if a > best:
                    best = a
        return best

    def is_zero(self):
        return all(v == 0 for row in self.data for v in row)

    def __eq__(self, other):
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __matmul__(self, other):
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        return _matmul(self, other)

    def __repr__(self):
        return f"IntegerMatrix({self.rows}x{self.cols})"


def _matmul(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    m, k, n = a.rows, a.cols, b.cols
    if m == 0 or n == 0 or k == 0:
        return IntegerMatrix.zeros(m, n)
    bound = k * max(a.max_abs(), 1) * max(b.max_abs(), 1)
    if bound < _INT64_SAFE:
        out = np.asarray(a.data, dtype=np.int64) @ np.asarray(b.data, dtype=np.int64)
        return IntegerMatrix(out.tolist(), m, n)
    bt = b.transpose().data
    data = [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a.data]
    return IntegerMatrix(data, m, n)


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
        rows, cols = self.shape
        m = IntegerMatrix.zeros(rows, cols)
        for i, x in enumerate(self.d):
            m.data[i][i] = x
        return m


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
        if M.max_abs() >= _INT64_SAFE:
            raise _NeedExact
        diag, U, V = _snf_eliminate(M.data, np.int64)
    except (_NeedExact, OverflowError):
        diag, U, V = _snf_eliminate(
            [[int(v) for v in row] for row in M.data], object)
    snf = SmithDecomposition(
        (m, n),
        tuple(int(x) for x in diag),
        IntegerMatrix(U.tolist(), m, m),
        IntegerMatrix(V.tolist(), n, n),
    )
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


def kernel_basis(M) -> list[list[int]]:
    """A basis (as columns) of the integer kernel {x : M x = 0}."""
    if not isinstance(M, IntegerMatrix):
        M = IntegerMatrix(M)
    snf = smith_normal_form(M)
    n = M.cols
    cols = []
    for j in range(n):
        dj = snf.d[j] if j < len(snf.d) else 0
        if dj == 0:
            cols.append(snf.v.column(j))
    return cols


def kernel_lattice_mod(M: IntegerMatrix, modulus: int) -> IntegerMatrix:
    """Basis of the full-rank lattice {x in Z^n : M x = 0 (mod modulus)}."""
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    snf = smith_normal_form(M)
    n = M.cols
    scaled = IntegerMatrix.zeros(n, n)
    for j in range(n):
        dj = snf.d[j] if j < len(snf.d) else 0
        scale = modulus // gcd(dj, modulus) if dj else 1
        for i in range(n):
            scaled.data[i][j] = snf.v.data[i][j] * scale
    return scaled
