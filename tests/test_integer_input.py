"""Outside input that is not made of integers is refused, not truncated.

Each entry point below once converted its input with int(), and so answered
for another input: 2.9 read as 2, the string '3' as 3.  They now refuse
anything that is not a Python or numpy integer with an InputError that
names the input.  Integer input of every numpy kind still reads exactly.
Integer arguments out of their range (a negative degree or size) and a
diagram that a Gauss code cannot describe are refused the same way.
Last, the exact value of each small method that no other test runs.
"""

import numpy as np
import pytest

from biracks import (
    Cochain2,
    IntegerMatrix,
    LaurentPolynomial,
    add_positive_kink,
    boundary_matrix,
    check_axioms,
    degenerate_generators,
    from_crossings,
    from_matrix,
    from_tables,
    framed_invariants,
    homology_group,
    is_reduced_2_cocycle,
    kernel_lattice,
    load_cochain,
    load_diagram,
    render_gauss,
    reverse_component,
    smith_normal_form,
    tsr_birack,
    tuple_basis,
)
from biracks.errors import InputError
from biracks.homology import Cochain1, HomologyGroup, evaluate_coboundary
from biracks.linalg import invariant_factors
from conftest import AB4_ALPHA, AB4_BETA, PHI4_PAIRS

AB4 = from_tables(AB4_ALPHA, AB4_BETA)
PHI4 = Cochain2.from_pairs(4, PHI4_PAIRS)
# ab4 with one alpha entry 1 written as 1.5, which int() would truncate back
ALPHA_WITH_FLOAT = ((2, 4, 1.5, 3), *AB4_ALPHA[1:])


@pytest.mark.parametrize("call, message", [
    (lambda: invariant_factors([[2.9]]), "matrix entries must be integers, got 2.9"),
    (lambda: smith_normal_form([[2.9]]), "matrix entries must be integers, got 2.9"),
    (lambda: kernel_lattice([[2.5, 1]]), "matrix entries must be integers, got 2.5"),
    (lambda: IntegerMatrix([["3", 4]]), "matrix entries must be integers, got '3'"),
    (lambda: from_tables(ALPHA_WITH_FLOAT, AB4_BETA), "alpha entries must be integers"),
    (lambda: from_matrix([[1.0, 2], [2, 1], [1, 2], [2, 1]]),
     "matrix entries must be integers, got 1.0"),
    (lambda: from_crossings([(1, 0.7, 1.2, 1.9, 0.1)]), "crossing entries must be integers"),
    (lambda: from_crossings([(1, 0, 1, 1, 0)], free_loops=[2.0]),
     "free loop ids must be integers"),
    (lambda: framed_invariants(load_diagram("l2a1"), AB4, None, (1.9, 1.2)),
     "framing coordinates must be integers, got 1.9"),
    (lambda: Cochain2.from_vector(2, [1.7, 0, 0, 0]), "cochain values must be integers"),
    (lambda: Cochain2.from_pairs(2, [(1, 2, 1.5)]), "cochain pair entries must be integers"),
    (lambda: Cochain2.from_pairs(2, [("1", 2)]), "cochain pair entries must be integers"),
    (lambda: tsr_birack(5.5, 1, 0, 2), "tsr_birack parameters must be integers, got 5.5"),
    (lambda: Cochain1.chi(2, 1, 1.5), "cochain values must be integers, got 1.5"),
    (lambda: Cochain2(((1.5, 0), (0, 0))), "cochain values must be integers, got 1.5"),
    (lambda: LaurentPolynomial.from_pairs([(1.5, 2.7)]),
     "polynomial exponents must be integers, got 1.5"),
    (lambda: LaurentPolynomial({1: 2.7}), "polynomial coefficients must be integers, got 2.7"),
    (lambda: homology_group(AB4, 2, modulus=2.5),
     "degree and modulus must be integers, got 2.5"),
    (lambda: homology_group(AB4, 2.0), "degree must be integers, got 2.0"),
    (lambda: is_reduced_2_cocycle(AB4, PHI4, modulus=2.5),
     "degree and modulus must be integers, got 2.5"),
    (lambda: boundary_matrix(AB4, 2.0), "degree must be integers, got 2.0"),
    (lambda: degenerate_generators(AB4, 2.0), "degree must be integers, got 2.0"),
    (lambda: tuple_basis(2, 2.0), "degree must be integers, got 2.0"),
    (lambda: Cochain1.chi(2, 1.5), "cochain size and index must be integers, got 1.5"),
    (lambda: Cochain1.chi(2.5, 1), "cochain size and index must be integers, got 2.5"),
    (lambda: kernel_lattice([[2, 1]], 2.5), "modulus must be integers, got 2.5"),
    (lambda: kernel_lattice([[2, 1]], "3"), "modulus must be integers, got '3'"),
    (lambda: reverse_component(load_diagram("l2a1"), 1.5),
     "component must be integers, got 1.5"),
    (lambda: add_positive_kink(load_diagram("l2a1"), 1.5),
     "component must be integers, got 1.5"),
    (lambda: degenerate_generators(AB4, -1), "degree must be nonnegative"),
    (lambda: tuple_basis(2.5, 2), "size must be integers, got 2.5"),
    (lambda: tuple_basis(-1, 2), "size must be a positive integer"),
    (lambda: render_gauss(load_diagram("unknot")),
     "Gauss codes cannot describe zero-crossing components"),
], ids=["invariant_factors", "smith_normal_form", "kernel_lattice", "IntegerMatrix",
        "from_tables", "from_matrix", "from_crossings", "free_loops", "framed_invariants",
        "from_vector", "from_pairs", "from_pairs_string", "tsr_birack", "Cochain1.chi",
        "Cochain2", "LaurentPolynomial.from_pairs", "LaurentPolynomial",
        "homology_group_modulus", "homology_group_degree", "is_reduced_2_cocycle",
        "boundary_matrix", "degenerate_generators", "tuple_basis", "Cochain1.chi_index",
        "Cochain1.chi_size", "kernel_lattice_modulus", "kernel_lattice_modulus_string",
        "reverse_component", "add_positive_kink", "degenerate_generators_negative",
        "tuple_basis_size", "tuple_basis_negative_size", "render_gauss_free_loop"])
def test_non_integer_input_is_refused(call, message):
    with pytest.raises(InputError, match=message):
        call()


@pytest.mark.parametrize("call, text", [
    (lambda: IntegerMatrix([1, 2, 3]), "ragged or mis-shaped matrix data"),
    (lambda: IntegerMatrix([[1, 2]], rows=2), "ragged or mis-shaped matrix data"),
    (lambda: IntegerMatrix([[1, 2], [3]]), "ragged or mis-shaped matrix data"),
    (lambda: from_tables([], []), "alpha and beta must be nonempty tables of equal size"),
    (lambda: AB4.a(0, 1), "element 0 out of range 1..4"),
    (lambda: from_matrix([[1, 2, 3]]), "matrix must have 2n rows"),
    (lambda: from_matrix([[1], [1, 2]]), "matrix must have 1 columns to match its 2n rows"),
    (lambda: tsr_birack(0, 1, 0, 1), "modulus must be positive"),
    (lambda: Cochain1.chi(3, 4), "index 4 out of range 1..3"),
    (lambda: Cochain2.from_vector(2, [1, 2, 3]), "vector length must be n^2"),
    (lambda: evaluate_coboundary(AB4, Cochain1((1, 2, 3))),
     "cochain size does not match the birack"),
    (lambda: LaurentPolynomial({1: -1, 0: 2}), "2-u"),
    (lambda: LaurentPolynomial({-2: -1}), "-u^-2"),
], ids=["IntegerMatrix_one_level", "IntegerMatrix_rows", "IntegerMatrix_ragged",
        "from_tables_empty", "a_out_of_range", "from_matrix_odd_rows",
        "from_matrix_columns", "tsr_birack_modulus", "Cochain1.chi_range",
        "from_vector_length", "evaluate_coboundary_size", "polynomial_minus_u",
        "polynomial_minus_u_power"])
def test_each_refusal_and_rendering_reads_exactly(call, text):
    """The text of a refusal, an InputError, or of a value rendered."""
    try:
        result = call()
    except InputError as e:
        result = e
    assert str(result) == text


def test_integer_input_of_every_kind_reads_exactly():
    # numpy integers of any width, bools, and uint64 past 2^63, which must
    # not wrap to a negative int64
    big = np.array([[2**64 - 1, 1]], dtype=np.uint64)
    assert IntegerMatrix(big).data == ((2**64 - 1, 1),)
    assert IntegerMatrix(big).array.dtype == object
    assert invariant_factors(big) == (1,)
    small = np.array([[3, 0], [0, 6]], dtype=np.uint8)
    assert IntegerMatrix(small).array.dtype == np.int64
    assert invariant_factors(small) == (3, 6)
    assert IntegerMatrix(np.array([[True, False]])).data == ((1, 0),)
    # Python ints past 2^63 mixed with negative ones, which numpy reads as floats
    assert IntegerMatrix([[2**63, -1]]).data == ((2**63, -1),)
    assert IntegerMatrix(np.array([[np.int32(3), 2**70]], dtype=object)).data == ((3, 2**70),)
    assert IntegerMatrix([]).array.dtype == np.int64
    phi = Cochain2.from_vector(2, np.array([1, 0, 0, -2], dtype=np.int16))
    assert phi.values == ((1, 0), (0, -2)) and type(phi.values[1][1]) is int
    assert tsr_birack(np.int64(3), 1, 2, 2) == tsr_birack(3, 1, 2, 2)


@pytest.mark.parametrize("call, value", [
    (lambda: Cochain2.from_pairs(4, []).is_zero(), True),
    (lambda: load_cochain("ab4_phi", 4).is_zero(), False),
    (lambda: str(Cochain2.from_pairs(4, [])), "0"),
    (lambda: str(HomologyGroup(2, (2,))), "Z^2 + Z/2"),
    (lambda: repr(AB4), "AugmentedBirack(size=4, pi=(1 4)(2 3), N=2)"),
    (lambda: repr(load_diagram("l2a1")),
     "LinkDiagram(2 crossings, 2 components, framing=(0, 0))"),
    (lambda: repr(LaurentPolynomial({0: 8, 1: 8})), "LaurentPolynomial(8+8u)"),
    (lambda: hash(LaurentPolynomial({1: 8, 0: 8})) == hash(LaurentPolynomial({0: 8, 1: 8})),
     True),
    (lambda: bool(LaurentPolynomial()), False),
    (lambda: bool(check_axioms(AB4_ALPHA, AB4_BETA).axiom_i), True),
    (lambda: PHI4.__add__(1), NotImplemented),
    (lambda: PHI4.__add__(Cochain2.from_pairs(2, [])), NotImplemented),
    (lambda: LaurentPolynomial().__add__(1), NotImplemented),
    (lambda: LaurentPolynomial().__eq__("0"), NotImplemented),
    (lambda: IntegerMatrix([[1]]).__eq__([[1]]), NotImplemented),
    (lambda: IntegerMatrix([[1]]).__matmul__([[1]]), NotImplemented),
], ids=["Cochain2.is_zero_zero", "Cochain2.is_zero_phi", "Cochain2.str_zero",
        "HomologyGroup.str", "AugmentedBirack.repr", "LinkDiagram.repr",
        "LaurentPolynomial.repr", "LaurentPolynomial.hash", "LaurentPolynomial.bool",
        "AxiomCheck.bool", "Cochain2.add_int", "Cochain2.add_size",
        "LaurentPolynomial.add", "LaurentPolynomial.eq", "IntegerMatrix.eq",
        "IntegerMatrix.matmul"])
def test_each_small_method_returns_exactly(call, value):
    result = call()
    assert type(result) is type(value) and result == value
