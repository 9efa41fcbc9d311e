"""kernel_lattice, certified without U, against the Smith-form reader.

The reference is snf_kernel_lattice on smith_normal_form(M), which carries
U and V and checks the exact product U M V == D.  Both read the same V, so
the columns must be equal, not merely span the same lattice, for every
modulus tried: Z, Z_2, Z_4 and Z_6.
"""

import numpy as np
import pytest

from biracks import (
    IntegerMatrix,
    kernel_lattice,
    reduced_cocycle_constraints,
    smith_normal_form,
)
from test_homology import valid_tsr_biracks
from test_linalg import snf_kernel_lattice

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

MODULI = (None, 2, 4, 6)


def assert_matches_oracle(M):
    snf = smith_normal_form(M)
    for modulus in MODULI:
        assert kernel_lattice(M, modulus) == snf_kernel_lattice(snf, modulus), modulus


@st.composite
def matrices(draw):
    """Integer matrices up to 6 x 6, empty shapes included; a product through
    an inner dimension below both sides is rank deficient."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    inner = draw(st.integers(1, 6))
    entries = st.integers(-5, 5)
    left = draw(st.lists(st.lists(entries, min_size=inner, max_size=inner),
                         min_size=rows, max_size=rows))
    right = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                          min_size=inner, max_size=inner))
    product = np.array(left, dtype=np.int64).reshape(rows, inner) @ np.array(
        right, dtype=np.int64).reshape(inner, cols)
    return IntegerMatrix(product)


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None, database=None)
@hypothesis.given(M=matrices())
# entries past 2^62 run the core on Python ints and certify by the fallback
@hypothesis.example(M=IntegerMatrix([[2**70, 2**70 + 1, 0], [2**70 - 1, 2**70, 2]]))
def test_kernel_lattice_matches_the_smith_form_on_random_matrices(M):
    assert_matches_oracle(M)


def test_kernel_lattice_matches_the_smith_form_on_constraint_matrices(ab4, ab5):
    for b in (ab4, ab5, *valid_tsr_biracks(5)):
        assert_matches_oracle(reduced_cocycle_constraints(b))
