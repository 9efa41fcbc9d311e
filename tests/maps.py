"""Maps that only the tests need, computed from public fields: the
permutation inverses, the inverse sideways map and the birack map of a
birack, the value of a Laurent polynomial, and the zero matrix, the
identity matrix, the matrix of given columns and one column of an
IntegerMatrix."""

import numpy as np

from biracks import IntegerMatrix


def inverses(tables):
    """The permutation inverse of each 1-based map in tables: inverses(b.beta)
    lists the maps beta_x^-1, which differ from beta_bar_x in general."""
    out = []
    for p in tables:
        inv = [0] * len(p)
        for i, v in enumerate(p, start=1):
            inv[v - 1] = i
        out.append(tuple(inv))
    return tuple(out)


def sideways_inverse(b, u, v):
    """S^-1(u, v) = (beta_bar_u(v), alpha_bar_v(u))."""
    return b.beta_bar[u - 1][v - 1], b.alpha_bar[v - 1][u - 1]


def birack_map(b, x, y):
    """B(x, y) = (beta_x^-1(y), alpha_{beta_x^-1(y)}(x))."""
    w = inverses(b.beta)[x - 1][y - 1]
    return w, b.alpha[w - 1][x - 1]


def evaluate(poly, u=1):
    """The Laurent polynomial poly at u."""
    return sum(c * u**e for e, c in poly.pairs())


def zeros(rows, cols):
    return IntegerMatrix(np.zeros((rows, cols), dtype=np.int64))


def identity(n):
    return IntegerMatrix(np.eye(n, dtype=np.int64))


def from_columns(columns, rows):
    """The rows x len(columns) matrix whose columns are columns."""
    return IntegerMatrix(columns, len(columns), rows).transpose()


def column(M, j):
    """Column j of M as a list of Python ints."""
    return M.array[:, j].tolist()
