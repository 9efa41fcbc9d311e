"""The factor pair of a group: d_n^T, then d_(n+1)^T without the n-cells S
that were pivot rows of d_n^T's unit split.

The reduced d_(n+1)^T must have the factors of the full one (and of the
Smith form of d_(n+1), where that is small enough to compute), which rests
on d_n d_(n+1) = 0; the boundary build must leave out exactly the columns
S; and both group functions must refuse an oversized degree before any
elimination, each naming the degree it was asked for.
"""

import numpy as np
import pytest

from biracks import cohomology_group, homology, homology_group, smith_normal_form
from biracks.errors import ResourceLimitExceeded
from biracks.homology import boundary_matrix
from biracks.linalg import _factors_in_place

# matrices up to this many cells also meet smith_normal_form
SMITH_CELLS = 2**13


def degrees(b, top=4):
    """The degrees n <= top whose d_(n+1) the default cell guard admits."""
    return [n for n in range(top + 1) if b.size ** (n + 1) <= homology.DEFAULT_MAX_CELLS]


def check_pair(b, n):
    pivots = _factors_in_place(homology._boundary(b, n))[1]
    assert len(set(pivots.tolist())) == len(pivots) <= b.size ** n
    reduced = homology._boundary(b, n + 1, drop=pivots)
    full = homology._boundary(b, n + 1)
    assert np.array_equal(reduced, np.delete(full, pivots, axis=1))
    high = _factors_in_place(reduced)[0]
    assert high == _factors_in_place(full)[0]
    if full.size <= SMITH_CELLS:
        assert high == smith_normal_form(boundary_matrix(b, n + 1)).invariant_factors


def test_the_reduced_map_keeps_the_factors(ab4, ab5, dih3, random_biracks):
    for b in (ab5, dih3, *random_biracks):
        for n in degrees(b):
            check_pair(b, n)
    for n in degrees(ab4, top=5):
        check_pair(ab4, n)


@pytest.mark.parametrize("drop", [[0], [15], [15, 0, 7], list(range(16))])
def test_dropped_faces_leave_their_rows_out(ab4, drop):
    full = boundary_matrix(ab4, 3).array
    for faces in (drop, np.array(drop)):
        assert np.array_equal(homology._boundary(ab4, 3, drop=faces),
                              np.delete(full, drop, axis=0).T)


def test_the_pair_drops_cells_on_ab4(ab4):
    # the pivot rows of d_4^T(ab4) take 48 of the 256 columns of d_5^T away
    low, pivots = _factors_in_place(homology._boundary(ab4, 4))
    assert len(pivots) == 48 and low == (1,) * 48 + (2,)
    assert homology._boundary(ab4, 5, drop=pivots).shape == (1024, 208)


def sparse_boundary(b, degree):
    """(rows, columns, signs) of every face of d_degree, repeats not summed,
    face by face: entry k * N + j is face k of the j-th tuple."""
    n = b.size
    tuples = np.indices((n,) * degree).reshape(degree, -1)
    places = n ** np.arange(degree - 2, -1, -1)
    columns = np.arange(tuples.shape[1])
    parts = [(places @ face, columns, np.full(len(columns), sign))
             for sign, face in homology._faces(b, tuples)]
    return [np.concatenate(x) for x in zip(*parts)]


def boundary_of_boundary(b, degree):
    """The nonzero entries of d_(degree-1) d_degree, from the faces of the
    faces, with no dense matrix of either degree."""
    rows, columns, signs = sparse_boundary(b, degree)
    lower_rows, _, lower_signs = sparse_boundary(b, degree - 1)
    faces = 2 * (degree - 1)  # of each (degree-1)-tuple, in sparse_boundary's order
    lower_rows = lower_rows.reshape(faces, -1)[:, rows]
    lower_signs = lower_signs.reshape(faces, -1)[:, rows]
    keys = lower_rows * b.size ** degree + columns
    cells, at = np.unique(keys, return_inverse=True)
    sums = np.zeros(len(cells), dtype=np.int64)
    np.add.at(sums, at.reshape(-1), (lower_signs * signs).reshape(-1))
    return sums[sums != 0]


@pytest.mark.parametrize("name, degree", [("ab4", 6), ("ab5", 5)])
def test_boundary_squares_to_zero_where_the_pair_reads_it(name, degree, request):
    # beyond acceptance 7's degrees 2-4: H_5(ab4) reads d_5 d_6 = 0 and
    # H_4(ab5) reads d_4 d_5 = 0
    assert len(boundary_of_boundary(request.getfixturevalue(name), degree)) == 0


def test_boundary_of_boundary_sees_a_wrong_face(ab4, monkeypatch):
    real = homology._faces

    def swapped(b, tuples):
        faces = real(b, tuples)
        if len(tuples) == 4:  # one face of d_4 with the wrong sign
            faces[0] = (-faces[0][0], faces[0][1])
        return faces

    monkeypatch.setattr(homology, "_faces", swapped)
    assert len(boundary_of_boundary(ab4, 4)) > 0


@pytest.mark.parametrize("group", [homology_group, cohomology_group],
                         ids=["homology", "cohomology"])
def test_refusal_names_the_same_degree_before_any_elimination(ab4, monkeypatch, group):
    # both check d_n's guard and then d_(n+1)'s before a boundary is factored
    factored = []
    monkeypatch.delenv("BIRACKS_MAX_CELLS", raising=False)
    monkeypatch.setattr(homology, "_factors_in_place", factored.append)
    with pytest.raises(ResourceLimitExceeded,
                       match="degree-8 chain basis on 4 elements needs 65536 cells"):
        group(ab4, 8)
    assert factored == []
