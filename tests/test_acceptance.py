"""Acceptance criteria, one test per criterion.

Each test is named test_criterion_NN; the conftest hook turns their outcomes
into the ACCEPTANCE summary lines printed after the run.
"""

from itertools import product

from biracks import (
    Cochain2,
    LaurentPolynomial,
    boundary_matrix,
    check_axioms,
    cocycle_invariant,
    counting_invariant,
    cycle_notation,
    degenerate_generators,
    evaluate_coboundary,
    framed_invariants,
    is_reduced_2_cocycle,
    load_diagram,
    reverse_component,
    smith_normal_form,
    tuple_basis,
)
from biracks.data import available_diagrams
from biracks.homology import Cochain1
from conftest import AB4_ALPHA, AB4_BETA, PHI4_PAIRS, PHI5_PAIRS
from labeling_oracles import (
    boltzmann_weight,
    brute_force_labelings,
    enumerate_labelings,
    kinked_labelings,
    tile,
)
from maps import from_columns
from test_homology import boundary_of_chain, chain_vector
from test_linalg import assert_valid_decomposition, solve


def P(pairs):
    return LaurentPolynomial.from_pairs(pairs)


# criterion 7 computes the boundary matrices; criterion 12 validates the same ones
_boundary_matrix_pool = []


def _fill_matrix_pool(biracks):
    if not _boundary_matrix_pool:
        for b in biracks:
            mats = {n: boundary_matrix(b, n) for n in range(1, 5)}
            _boundary_matrix_pool.append((b, mats))
    return _boundary_matrix_pool


def test_criterion_01_axioms_and_kink_map():
    report = check_axioms(AB4_ALPHA, AB4_BETA)
    assert report.ok
    assert cycle_notation(report.pi) == "(1 4)(2 3)"
    assert report.characteristic == 2


def test_criterion_02_hopf_counting(ab4):
    r = counting_invariant(load_diagram("l2a1"), ab4)
    assert r.per_framing == (
        ((0, 0), 0),
        ((0, 1), 0),
        ((1, 0), 0),
        ((1, 1), 16),
    )
    assert r.phi_z == 16


def test_criterion_03_reduced_cocycle_enhancement(ab4):
    phi = Cochain2.from_pairs(4, PHI4_PAIRS)
    assert is_reduced_2_cocycle(ab4, phi)
    assert cocycle_invariant(load_diagram("l2a1"), ab4, phi).poly == P([(0, 8), (1, 8)])
    assert cocycle_invariant(load_diagram("l0a1"), ab4, phi).poly == P([(0, 16)])
    assert cocycle_invariant(load_diagram("l4a1"), ab4, phi).poly == P([(0, 8), (2, 8)])


def test_criterion_04_classical_link_table(ab5):
    phi = Cochain2.from_pairs(5, PHI5_PAIRS)
    expected = {
        "l2a1": P([(0, 7), (1, 6)]),
        "l4a1": P([(0, 19), (2, 6)]),
        "l5a1": P([(0, 25)]),
        "l6a4": P([(0, 125)]),
        "l6a2": P([(0, 7), (3, 6)]),
        "l6a5": P([(0, 29), (1, 36), (2, 18), (3, 6)]),
    }
    for name, want in expected.items():
        assert cocycle_invariant(load_diagram(name), ab5, phi).poly == want


def test_criterion_05_virtual_knot_table(ab5, phi5):
    expected = {
        "v2_1": P([(0, 2), (1, 3)]),
        "v3_1": P([(0, 5)]),
        "v3_2": P([(-1, 3), (0, 2)]),
        "k3_1": P([(0, 5)]),
        "k4_1": P([(0, 5)]),
    }
    for name, want in expected.items():
        assert cocycle_invariant(load_diagram(name), ab5, phi5).poly == want


def test_criterion_06_orientation_sensitivity(ab5, phi5):
    hopf = load_diagram("l2a1")
    assert cocycle_invariant(hopf, ab5, phi5).poly == P([(0, 7), (1, 6)])
    reversed_hopf = reverse_component(hopf, 0)
    assert cocycle_invariant(reversed_hopf, ab5, phi5).poly == P([(-1, 6), (0, 7)])


def test_criterion_07_boundary_squares_to_zero(ab4, ab5, tsr3, random_biracks):
    assert len(random_biracks) >= 20
    assert all(b.size <= 4 for b in random_biracks)
    pool = _fill_matrix_pool([ab4, ab5, tsr3, *random_biracks])
    for _, mats in pool:
        for n in (2, 3, 4):
            assert (mats[n - 1] @ mats[n]).is_zero()


def test_criterion_08_degenerate_boundaries(ab4, ab5, tsr3, random_biracks):
    # the hand check: boundary of (4,1) + (1,4) cancels term by term
    assert ab4.a(4, 1) == ab4.b(1, 4) == 2
    assert ab4.a(1, 4) == ab4.b(4, 1) == 3
    assert boundary_of_chain(ab4, {(4, 1): 1, (1, 4): 1}) == {}

    for b in (ab4, ab5, tsr3, *random_biracks[:5]):
        # degree 2: no lower-degree degenerate generators exist, so the
        # boundary must be zero outright
        for g in degenerate_generators(b, 2):
            assert boundary_of_chain(b, g) == {}
        index = {t: i for i, t in enumerate(tuple_basis(b.size, 2))}
        gens2 = degenerate_generators(b, 2)
        span = from_columns(
            [chain_vector(g, index) for g in gens2], len(index)
        )
        snf = smith_normal_form(span)
        for g in degenerate_generators(b, 3):
            vec = chain_vector(boundary_of_chain(b, g), index)
            assert solve(span, vec, snf=snf) is not None


def _tile_labelings(d, b):
    """Every (kinked diagram, labeling) pair the tile sum ranges over."""
    return [(kd, f) for kd, found in kinked_labelings(d, b, tile(d, b))
            for f in found]


def test_criterion_09_cohomologous_invariance(ab4, ab5, phi4, phi5, kinked_unknot):
    setups = ((ab4, phi4), (ab5, phi5))

    # coboundary weights vanish labeling by labeling
    for b, _ in setups:
        deltas = [
            evaluate_coboundary(b, Cochain1.chi(b.size, i))
            for i in range(1, b.size + 1)
        ]
        for d in (load_diagram("l2a1"), kinked_unknot):
            for kd, f in _tile_labelings(d, b):
                for delta in deltas:
                    assert boltzmann_weight(kd, f, delta) == 0

    # shifting by any coboundary leaves the invariant alone, on every diagram
    for b, phi in setups:
        shifted = [
            phi + evaluate_coboundary(b, Cochain1.chi(b.size, i))
            for i in range(1, b.size + 1)
        ]
        for name in available_diagrams():
            d = load_diagram(name)
            pairs = _tile_labelings(d, b)
            base = P((boltzmann_weight(kd, f, phi), 1) for kd, f in pairs)
            for other in shifted:
                moved = P((boltzmann_weight(kd, f, other), 1) for kd, f in pairs)
                assert moved == base

    # and the full pipeline agrees with itself on a few diagrams
    for b, phi in setups:
        for name in ("l2a1", "v2_1", "k3_1"):
            d = load_diagram(name)
            base = cocycle_invariant(d, b, phi).poly
            for i in range(1, b.size + 1):
                other = phi + evaluate_coboundary(b, Cochain1.chi(b.size, i))
                assert cocycle_invariant(d, b, other).poly == base


def test_criterion_10_framing_periodicity(ab4, ab5):
    l2a1 = load_diagram("l2a1")
    unknot = load_diagram("unknot")
    for b in (ab4, ab5):
        n = b.characteristic
        for w in product(range(2), repeat=2):
            base = framed_invariants(l2a1, b, framing=w).per_framing[0][1]
            for i in range(2):
                shifted = list(w)
                shifted[i] += n
                r = framed_invariants(l2a1, b, framing=tuple(shifted))
                assert r.per_framing[0][1] == base
        for w in (0, 1, 2):
            base = framed_invariants(unknot, b, framing=(w,)).per_framing[0][1]
            r = framed_invariants(unknot, b, framing=(w + n,))
            assert r.per_framing[0][1] == base


def test_criterion_11_brute_force_equivalence(
    ab4, tsr3, dih3, one_element, random_biracks, kinked_unknot
):
    small = [
        load_diagram(name)
        for name in available_diagrams()
        if load_diagram(name).semiarc_count <= 6
    ]
    small.append(kinked_unknot)
    assert len(small) >= 5
    biracks = [ab4, tsr3, dih3, one_element] + [
        b for b in random_biracks if b.size <= 4
    ][:2]
    for d in small:
        for b in biracks:
            slow = brute_force_labelings(d, b)
            assert sorted(enumerate_labelings(d, b)) == sorted(slow)
            assert framed_invariants(d, b).per_framing[0][1] == len(slow)


def test_criterion_12_smith_decompositions(ab4, ab5, tsr3, random_biracks):
    pool = _fill_matrix_pool([ab4, ab5, tsr3, *random_biracks])
    checked = 0
    for _, mats in pool:
        for M in mats.values():
            assert_valid_decomposition(M, smith_normal_form(M))
            checked += 1
    assert checked == 4 * len(pool)
