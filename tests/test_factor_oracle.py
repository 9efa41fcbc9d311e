"""invariant_factors against oracles that share no code with it.

On random products of unimodular and diagonal factors the reference is
smith_normal_form, which checks the exact product U M V == D.  For
H_5(ab4) = Z^16 + Z/2, whose d_6 is 1024 x 4096, the references are ranks
computed here: over Q from the eigenvalues of the Gram matrix d d^T in
floating point, where a wide gap separates zero from the rest, and over
GF(2) by an elimination on rows packed into bits.
"""

import tracemalloc

import numpy as np
import pytest

from biracks import (
    IntegerMatrix,
    cohomology_group,
    from_tables,
    homology,
    homology_group,
    linalg,
    smith_normal_form,
)
from biracks.homology import boundary_matrix
from biracks.linalg import invariant_factors
from conftest import AB4_ALPHA, AB4_BETA

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def factored_matrices(draw):
    """L D R for a drawn diagonal D up to 6 x 6, empty shapes included, and
    L, R products of drawn shears; large diagonals and shear factors take
    entries past 2^62."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    k = min(rows, cols)
    diagonal = draw(st.lists(st.sampled_from((0, 1, 1, 1, 2, 3, 4, 6, 9, 2**63)),
                             min_size=k, max_size=k))
    M = [[diagonal[i] if i == j else 0 for j in range(cols)] for i in range(rows)]
    scale = draw(st.sampled_from((1, 2, 5, 2**40)))
    for _ in range(draw(st.integers(0, 10))):
        left = draw(st.booleans())
        size = rows if left else cols
        if size < 2:
            continue
        i, j = draw(st.permutations(range(size)))[:2]
        q = scale * draw(st.integers(-2, 2))
        if left:  # row i += q row j, a unimodular factor on the left
            M[i] = [a + q * b for a, b in zip(M[i], M[j])]
        else:  # column i += q column j, one on the right
            for row in M:
                row[i] += q * row[j]
    return IntegerMatrix(M, rows, cols)


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None, database=None)
@hypothesis.given(M=factored_matrices())
@hypothesis.example(M=IntegerMatrix([[2**63, 1], [0, 2**63]]))
@hypothesis.example(M=IntegerMatrix([], 0, 4))
@hypothesis.example(M=IntegerMatrix([[], []], 2, 0))
def test_invariant_factors_match_the_smith_form_on_random_products(M):
    assert invariant_factors(M) == smith_normal_form(M).invariant_factors


def rational_rank(d):
    """The rank of d over Q: d d^T is exact in floating point here, and its
    eigenvalues are near 0 or far above it."""
    gram = d.astype(float) @ d.T.astype(float)
    assert np.abs(gram).max() < 2**52
    values = np.linalg.eigvalsh(gram)
    assert not ((values > 1e-6) & (values < 0.5)).any()
    return int((values >= 0.5).sum())


def gf2_rank(d):
    """The rank of d over GF(2), by elimination on rows packed into bytes."""
    rows = np.packbits(d % 2 != 0, axis=1)
    rank = 0
    for c in range(d.shape[1]):
        hit = np.flatnonzero(rows[:, c // 8] & (0x80 >> c % 8))
        if len(hit):
            rows[hit[1:]] ^= rows[hit[0]]
            rows = np.delete(rows, hit[0], axis=0)
            rank += 1
    return rank


def test_h5_of_ab4(monkeypatch):
    ab4 = from_tables(AB4_ALPHA, AB4_BETA)
    cores = []
    real = linalg._eliminate

    def core(M, dtype, transforms):
        cores.append(bool(((M == 1) | (M == -1)).any()))
        return real(M, dtype, transforms)

    built = []
    boundary = homology._boundary

    def recorded(b, degree, drop=()):
        d = boundary(b, degree, drop)
        built.append((degree, d.shape))
        return d

    d5, d6 = boundary_matrix(ab4, 5).array, boundary_matrix(ab4, 6).array
    assert d6.shape == (1024, 4096)
    assert (rational_rank(d5), rational_rank(d6), gf2_rank(d6)) == (199, 809, 808)
    del d5, d6
    monkeypatch.setattr(linalg, "_eliminate", core)
    monkeypatch.setattr(homology, "_boundary", recorded)
    tracemalloc.start()
    try:
        group = homology_group(ab4, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 1024 - 199 - 809 free generators, and the one factor of d_6 that 2
    # divides, as the rank drop over GF(2) says
    assert group.describe() == "Z^16 + Z/2"
    # the dense core sees only the remainder of d_6, which has no +-1 entry
    assert cores == [False]
    # the group builds d_5^T, then d_6^T without the columns of the 5-cells
    # that were unit pivots of d_5^T, and no other boundary
    assert [degree for degree, _ in built] == [5, 6]
    rows, cols = built[1][1]
    assert rows == 4**6 and cols < 4**5
    # d_6^T, 32 MiB in int64, is the one dense copy of d_6: it is built in
    # place and the split eliminates it there
    assert peak < 2 * 4096 * 1024 * 8
    assert cohomology_group(ab4, 4).describe() == "Z^8 + Z/2"
