"""Birack chain complex, degenerate subcomplex, and reduced 2-cocycles."""

import random
from fractions import Fraction
from itertools import product
from math import prod

import numpy as np
import pytest

from biracks import (
    Cochain2,
    IntegerMatrix,
    boundary_matrix,
    boundary_of_tuple,
    cocycle_invariant,
    cohomology_group,
    degenerate_generators,
    evaluate_coboundary,
    homology_group,
    is_reduced_2_cocycle,
    load_diagram,
    reduced_2_cocycles,
    reduced_2_cohomology,
    reduced_cocycle_constraints,
    smith_normal_form,
    tsr_birack,
    tuple_basis,
)
from biracks.errors import BirackError, InputError, ResourceLimitExceeded
from biracks.homology import Cochain1
from biracks.linalg import invariant_factors
import chain_oracles
from chain_oracles import partial_dprime, partial_prime
from maps import from_columns, zeros
from test_linalg import column_span_contains, quotient_invariants, snf_kernel_lattice


def boundary_of_chain(b, chain):
    """Boundary of a {tuple: coefficient} chain, zero terms dropped."""
    out = {}
    for tup, c in chain.items():
        for t, e in boundary_of_tuple(b, tup).items():
            out[t] = out.get(t, 0) + c * e
    return {t: c for t, c in out.items() if c}


def chain_vector(chain, index):
    """Coefficient vector of a chain in the basis with the given tuple index."""
    vec = [0] * len(index)
    for tup, c in chain.items():
        vec[index[tup]] = c
    return vec


def rank_rational(rows):
    """Row-reduction rank over Q, independent of the Smith machinery."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for j in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][j]
        m[rank] = [v * inv for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][j]:
                f = m[i][j]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def rank_mod_p(rows, p):
    m = [[v % p for v in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for j in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][j], -1, p)
        m[rank] = [(v * inv) % p for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][j]:
                f = m[i][j]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_tuple_basis():
    assert tuple_basis(2, 0) == [()]
    assert tuple_basis(2, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    with pytest.raises(ValueError):
        tuple_basis(2, -1)


def test_partial_prime_deletes():
    assert partial_prime(1, (1, 2, 3)) == (2, 3)
    assert partial_prime(2, (1, 2, 3)) == (1, 3)
    assert partial_prime(3, (1, 2, 3)) == (1, 2)
    with pytest.raises(IndexError):
        partial_prime(4, (1, 2, 3))


def test_partial_dprime_last_face_uses_beta(tsr3):
    # deleting the last entry pushes beta_z through everything before it
    for x in range(1, 4):
        for y in range(1, 4):
            for z in range(1, 4):
                assert partial_dprime(tsr3, 3, (x, y, z)) == (
                    tsr3.b(z, x),
                    tsr3.b(z, y),
                )


def test_partial_dprime_first_face_uses_alpha(ab4):
    assert partial_dprime(ab4, 1, (1, 1)) == (2,)
    for x in range(1, 5):
        for y in range(1, 5):
            assert partial_dprime(ab4, 1, (x, y)) == (ab4.a(x, y),)
            assert partial_dprime(ab4, 2, (x, y)) == (ab4.b(y, x),)


def test_boundary_of_tuple_examples(ab4):
    assert boundary_of_tuple(ab4, (1, 1)) == {(2,): 1, (3,): -1}
    # by hand: -(2) + (alpha_1(2)) + (1) - (beta_2(1)) = (1) - 2(2) + (4)
    assert boundary_of_tuple(ab4, (1, 2)) == {(1,): 1, (2,): -2, (4,): 1}


@pytest.mark.parametrize("tup", [(0, 1), (5, 1), (1, -1), (1.5, 1), ("1", 2)])
def test_boundary_of_tuple_rejects_bad_entries(ab4, tup):
    # 0 and -1 would wrap to the last element, 5 would index past the table,
    # and 1.5 would be truncated to 1
    with pytest.raises(InputError, match=r"tuple entries must be integers in 1\.\.4"):
        boundary_of_tuple(ab4, tup)


def test_degree_one_boundary_vanishes(ab4, ab5, tsr3):
    for b in (ab4, ab5, tsr3):
        assert boundary_matrix(b, 1).is_zero()
        for x in range(1, b.size + 1):
            assert boundary_of_tuple(b, (x,)) == {}


def test_boundary_squares_to_zero(ab4, ab5, tsr3, dih3):
    for b in (ab4, ab5, tsr3, dih3):
        for degree in (2, 3, 4):
            lower = boundary_matrix(b, degree - 1)
            upper = boundary_matrix(b, degree)
            assert (lower @ upper).is_zero()


def _face_only_matrix(b, degree, twisted):
    """Alternating sum of just one face family; each squares to zero alone."""
    cols = tuple_basis(b.size, degree)
    rows = tuple_basis(b.size, degree - 1)
    row_index = {t: i for i, t in enumerate(rows)}
    m = zeros(len(rows), len(cols))
    for j, tup in enumerate(cols):
        for k in range(1, degree + 1):
            sign = -1 if k % 2 else 1
            t = partial_dprime(b, k, tup) if twisted else partial_prime(k, tup)
            m.array[row_index[t], j] += sign
    return m


def test_face_families_square_to_zero_alone(ab4, tsr3):
    for b in (ab4, tsr3):
        for degree in (2, 3):
            for twisted in (False, True):
                lower = _face_only_matrix(b, degree, twisted)
                upper = _face_only_matrix(b, degree + 1, twisted)
                assert (lower @ upper).is_zero()


def test_boundary_matrix_matches_the_per_tuple_oracle(ab4, ab5, tsr3, random_biracks):
    cases = [(b, degree) for b in (ab4, ab5, tsr3, *random_biracks)
             for degree in range(1, 5)]
    cases += [(ab4, 5), (ab5, 5), (tsr_birack(11, 1, 0, 2), 3)]
    for b, degree in cases:
        assert boundary_matrix(b, degree) == chain_oracles.boundary_matrix(b, degree)


def test_boundary_of_tuple_matches_the_oracle_in_order(ab4, ab5, tsr3):
    for b in (ab4, ab5, tsr3):
        for degree in range(4):
            for tup in tuple_basis(b.size, degree):
                assert (list(boundary_of_tuple(b, tup).items())
                        == list(chain_oracles.boundary_of_tuple(b, tup).items()))


def test_degenerate_generators_ab4(ab4):
    gens = degenerate_generators(ab4, 2)
    assert gens == [
        {(4, 1): 1, (1, 4): 1},
        {(3, 2): 1, (2, 3): 1},
    ]
    assert degenerate_generators(ab4, 1) == []


def test_degenerate_generators_biquandle_are_diagonal(ab5):
    gens = degenerate_generators(ab5, 2)
    assert gens == [{(x, x): 1} for x in range(1, 6)]


def test_degenerate_two_generators_are_cycles(ab4, ab5, tsr3):
    # lower degenerate span in degree 1 is empty, so these must be cycles
    for b in (ab4, ab5, tsr3):
        for g in degenerate_generators(b, 2):
            assert boundary_of_chain(b, g) == {}


def test_degenerate_three_boundaries_in_degenerate_span(ab4, ab5, tsr3):
    for b in (ab4, ab5, tsr3):
        basis_index = {t: i for i, t in enumerate(tuple_basis(b.size, 2))}
        gens2 = degenerate_generators(b, 2)
        span = from_columns(
            [chain_vector(g, basis_index) for g in gens2], len(basis_index)
        )
        for g in degenerate_generators(b, 3):
            bd = boundary_of_chain(b, g)
            assert column_span_contains(span, chain_vector(bd, basis_index))


def test_degenerate_generators_match_the_orbit_walk(ab4, ab5):
    for b in (ab4, ab5, *valid_tsr_biracks(5)):
        for degree in (2, 3):
            gens = degenerate_generators(b, degree)
            want = chain_oracles.degenerate_generators(b, degree)
            assert [list(g.items()) for g in gens] == [list(g.items()) for g in want]
        # the rows of C below d_3^T are the degree-2 generators as vectors
        index = {t: i for i, t in enumerate(tuple_basis(b.size, 2))}
        assert ([list(row) for row in reduced_cocycle_constraints(b).data[b.size**3:]]
                == [chain_vector(g, index)
                    for g in chain_oracles.degenerate_generators(b, 2)])
    # tsr_birack(3, 1, 0, 2) has N = 2 and a fixed point of pi, whose chain
    # repeats one pair N times
    gens = degenerate_generators(tsr_birack(3, 1, 0, 2), 2)
    fixed_point_weights = [c for g in gens if len(g) == 1 for c in g.values()]
    assert fixed_point_weights == [2]


def test_phi4_is_reduced_and_in_the_computed_basis(ab4, phi4):
    assert is_reduced_2_cocycle(ab4, phi4)
    basis = reduced_2_cocycles(ab4)
    assert len(basis) == 4
    for c in basis:
        assert is_reduced_2_cocycle(ab4, c)
    cols = [c.to_vector() for c in basis]
    span = from_columns(cols, len(cols[0]))
    assert column_span_contains(span, phi4.to_vector())


def test_phi5_is_reduced_and_in_the_computed_basis(ab5, phi5):
    assert is_reduced_2_cocycle(ab5, phi5)
    basis = reduced_2_cocycles(ab5)
    cols = [c.to_vector() for c in basis]
    span = from_columns(cols, len(cols[0]))
    assert column_span_contains(span, phi5.to_vector())


def test_zero_cochain_is_reduced_and_diagonal_is_not(ab4):
    assert is_reduced_2_cocycle(ab4, Cochain2.from_pairs(4, []))
    assert not is_reduced_2_cocycle(ab4, Cochain2.from_pairs(4, [(1, 1)]))


@pytest.mark.parametrize("values", [((0, 0, 0, 0, 1),) * 4, ((0, 0), (0,))],
                         ids=["four_rows_of_five", "ragged"])
def test_cochain_table_must_be_square(ab4, values):
    # a fifth column on four rows once passed as a 4-element cochain, and
    # cocycle_invariant valued l2a1 with it at 16 and no warning
    with pytest.raises(InputError, match="cochain table must be square"):
        Cochain2(values)
    with pytest.raises(InputError, match="cochain table must be square"):
        cocycle_invariant(load_diagram("l2a1"), ab4, Cochain2(values))


def test_cochain_of_another_size_is_not_a_reduced_cocycle(ab4, ab5):
    # the zero cochain on 5 or 3 elements is no cochain of the 4-element ab4
    for size in (3, 5):
        assert is_reduced_2_cocycle(ab4, Cochain2.from_pairs(size, [])) is False
    assert is_reduced_2_cocycle(ab5, Cochain2.from_pairs(4, [])) is False


def test_coboundary_matches_hand_formula(ab4, ab5, tsr3):
    for b in (ab4, ab5, tsr3):
        for i in range(1, b.size + 1):
            psi = Cochain1.chi(b.size, i)
            delta = evaluate_coboundary(b, psi)
            for x in range(1, b.size + 1):
                for y in range(1, b.size + 1):
                    expected = psi(x) - psi(y) + psi(b.a(x, y)) - psi(b.b(y, x))
                    assert delta(x, y) == expected
            # pairing with the boundary of the degenerate chains gives zero
            assert is_reduced_2_cocycle(b, delta)


def test_coboundary_pairs_with_boundary(ab4):
    psi = Cochain1((3, 1, 4, 1))
    delta = evaluate_coboundary(ab4, psi)
    for x in range(1, 5):
        for y in range(1, 5):
            chain = boundary_of_tuple(ab4, (x, y))
            paired = sum(c * psi(t[0]) for t, c in chain.items())
            assert delta(x, y) == paired


def test_rack_boundary_correspondence(dih3):
    # alpha is trivial here, so the complex must agree with the rack one
    def tri(x, y):
        return (2 * y - x - 1) % 3 + 1

    def rack_boundary_matrix(degree):
        cols = tuple_basis(3, degree)
        rows = tuple_basis(3, degree - 1)
        index = {t: i for i, t in enumerate(rows)}
        m = zeros(len(rows), len(cols))
        for j, tup in enumerate(cols):
            for k in range(1, degree + 1):
                sign = -1 if k % 2 else 1
                plain = tup[: k - 1] + tup[k:]
                acted = tuple(tri(v, tup[k - 1]) for v in tup[: k - 1]) + tup[k:]
                m.array[index[plain], j] += sign
                m.array[index[acted], j] -= sign
        return m

    for degree in (2, 3):
        assert boundary_matrix(dih3, degree) == rack_boundary_matrix(degree)


def test_free_rank_matches_rational_oracle(ab4, ab5, tsr3, dih3):
    for b in (ab4, ab5, tsr3, dih3):
        for degree in (1, 2, 3):
            upper = boundary_matrix(b, degree + 1)
            lower = boundary_matrix(b, degree)
            betti = lower.cols - rank_rational(lower.data) - rank_rational(upper.data)
            assert homology_group(b, degree).free_rank == betti


def test_one_element_homology(one_element):
    for degree in range(4):
        group = homology_group(one_element, degree)
        assert group.free_rank == 1
        assert group.torsion == ()
        assert group.describe() == "Z"


def test_known_groups(ab4):
    assert homology_group(ab4, 2).describe() == "Z^2"
    assert cohomology_group(ab4, 2).describe() == "Z^2 + Z/2"
    _, quotient = reduced_2_cohomology(ab4)
    assert (quotient.free_rank, tuple(quotient.torsion)) == (1, (2,))


def test_mod_p_dimensions_match_universal_coefficients(ab4, tsr3):
    for b in (ab4, tsr3):
        for degree in (1, 2, 3):
            for p in (2, 3):
                upper = boundary_matrix(b, degree + 1)
                lower = boundary_matrix(b, degree)
                dim = lower.cols - rank_mod_p(lower.data, p) - rank_mod_p(upper.data, p)
                group = homology_group(b, degree, modulus=p)
                assert group.free_rank == 0
                assert all(t == p for t in group.torsion)
                assert len(group.torsion) == dim
                # mod-p dimension also decomposes through the integral groups
                h_here = homology_group(b, degree)
                h_below = homology_group(b, degree - 1)
                t_here = sum(1 for t in h_here.torsion if t % p == 0)
                t_below = sum(1 for t in h_below.torsion if t % p == 0)
                assert dim == h_here.free_rank + t_here + t_below


def subgroup_order_mod(columns, m):
    """Order of the subgroup of (Z_m)^k generated by the columns, by listing it."""
    group = {tuple(0 for _ in columns[0])} if columns else {()}
    for col in columns:
        g = tuple(v % m for v in col)
        # |H + <g>| = |H| * k, where k is the least multiple with k*g in H
        multiples = [tuple(0 for _ in g)]
        while (step := tuple((a + b) % m for a, b in zip(multiples[-1], g))) not in group:
            multiples.append(step)
        if len(multiples) > 1:
            group = {tuple((a + b) % m for a, b in zip(h, c))
                     for h in group for c in multiples}
    return len(group)


def test_composite_moduli_match_brute_force_orders(tsr3, dih3, one_element, random_biracks):
    # tsr3 has mixed torsion over Z_6 (Z/3 + Z/6); tsr_birack(3, 1, 0, 2) has N = 2
    small = [b for b in random_biracks if 2 <= b.size <= 3]
    assert small
    for b in (tsr3, dih3, one_element, tsr_birack(3, 1, 0, 2), *small):
        for degree in (0, 1, 2):
            lower = boundary_matrix(b, degree)
            upper = boundary_matrix(b, degree + 1)
            for m in (4, 6):
                group = homology_group(b, degree, modulus=m)
                assert group == cohomology_group(b, degree, modulus=m)
                assert group.free_rank == 0
                assert all(t % s == 0 for s, t in zip(group.torsion, group.torsion[1:]))
                # |ker(d_n mod m)| = m^cols / |im(d_n mod m)|
                kernel, rest = divmod(m**lower.cols, subgroup_order_mod(lower.columns(), m))
                assert rest == 0
                image = subgroup_order_mod(upper.columns(), m)
                assert kernel % image == 0
                assert prod(group.torsion) == kernel // image


def test_reduced_cocycles_mod_two(ab4, phi4):
    basis = reduced_2_cocycles(ab4, modulus=2)
    assert len(basis) == 4
    for c in basis:
        assert is_reduced_2_cocycle(ab4, c, modulus=2)
    assert is_reduced_2_cocycle(ab4, phi4, modulus=2)


def reduced_by_the_chains(b, phi, modulus=None):
    """phi vanishes, in Python ints, on the boundary of every 3-tuple and
    on every degenerate 2-chain, reduced mod modulus when one is given."""
    chains = [chain_oracles.boundary_of_tuple(b, t) for t in tuple_basis(b.size, 3)]
    chains += chain_oracles.degenerate_generators(b, 2)
    values = (sum(c * phi(*t) for t, c in chain.items()) for chain in chains)
    return all((v % modulus if modulus else v) == 0 for v in values)


INT64_MAX = 2**63 - 1


def scaled(phi, k, shift=0):
    return Cochain2(tuple(tuple(k * v + shift for v in row) for row in phi.values))


def test_reduced_cocycle_check_past_int64(ab4):
    """The check's table is int64 while six values, or N of them, add
    below 2^63, and Python ints past that."""
    delta = evaluate_coboundary(ab4, Cochain1.chi(4, 2))
    top = max(abs(v) for row in delta.values for v in row)
    edge = INT64_MAX // (6 * top)
    ones = Cochain2(((1,) * 4,) * 4)
    cochains = [
        # the weights of test_weights_whose_sums_pass_int64
        Cochain2(tuple(tuple(2**62 + 4 * i + j for j in range(4)) for i in range(4))),
        scaled(delta, edge), scaled(delta, -edge), scaled(delta, edge + 1),
        scaled(delta, edge, 1), scaled(delta, edge + 1, 1),
        scaled(ones, INT64_MAX // 6), scaled(ones, INT64_MAX // 6 + 1),
    ]
    for phi in cochains:
        for modulus in (None, 2):
            assert (is_reduced_2_cocycle(ab4, phi, modulus)
                    == reduced_by_the_chains(ab4, phi, modulus))
    assert is_reduced_2_cocycle(ab4, scaled(delta, edge + 1))


def test_degenerate_sums_that_wrap_int64_are_not_zero():
    # N = 4 values of 2^62 add to 2^64, which int64 would wrap to 0
    b = tsr_birack(5, 1, 0, 2)
    assert b.characteristic == 4
    phi = Cochain2(((2**62,) * 5,) * 5)
    assert not reduced_by_the_chains(b, phi)
    assert not is_reduced_2_cocycle(b, phi)
    assert is_reduced_2_cocycle(b, phi, modulus=2) == reduced_by_the_chains(b, phi, 2)


def valid_tsr_biracks(max_n):
    out = []
    for n in range(1, max_n + 1):
        for t, s, r in product(range(n), repeat=3):
            try:
                out.append(tsr_birack(n, t, s, r))
            except BirackError:
                pass
    return out


def test_reduced_cocycle_check_agrees_with_the_constraints(ab4, ab5):
    # two independent formulations: the array check on the tables, and C * phi;
    # the kernel of d_3^T adds cocycles that fail only on the degenerate sums
    rng = random.Random(11)

    def combination(vectors, size):
        return [sum(rng.randint(-3, 3) * v[i] for v in vectors) for i in range(size)]

    kinds = set()
    # the last two have a fixed point of pi that counts N = 4 and N = 3 times
    for b in (ab4, ab5, *valid_tsr_biracks(4), tsr_birack(5, 1, 0, 2),
              tsr_birack(7, 1, 0, 2)):
        n2 = b.size * b.size
        constraints = reduced_cocycle_constraints(b).array
        d3t = constraints[:b.size**3]
        cocycles = snf_kernel_lattice(smith_normal_form(IntegerMatrix(d3t))).columns()
        for modulus in (None, 2, 3):
            lattice = [c.to_vector() for c in reduced_2_cocycles(b, modulus=modulus)]
            vectors = lattice + cocycles
            for _ in range(6):
                combo = combination(lattice, n2)
                shift = [0] * n2
                shift[rng.randrange(n2)] = 1
                vectors += [combo, [a + s for a, s in zip(combo, shift)],
                            combination(cocycles, n2),
                            [rng.randint(-5, 5) for _ in range(n2)]]
            for vec in vectors:
                image = constraints @ np.array(vec, dtype=np.int64)
                if modulus:
                    image %= modulus
                want = not image.any()
                phi = Cochain2.from_vector(b.size, vec)
                assert is_reduced_2_cocycle(b, phi, modulus=modulus) == want
                kinds.add((want, not image[:b.size**3].any()))
    assert kinds == {(True, True), (False, True), (False, False)}


def test_reduced_cohomology_matches_lattice_quotient(ab4, ab5, tsr3):
    # the lattice-quotient route: a kernel basis of the constraints, the
    # coboundaries of the characteristic 1-cochains, and the quotient of the
    # two lattices by solves and a third Smith form
    with_torsion = 0
    for b in (ab4, ab5, tsr3, *valid_tsr_biracks(5)):
        n2 = b.size * b.size
        cocycles = snf_kernel_lattice(smith_normal_form(reduced_cocycle_constraints(b)))
        cobs = from_columns(
            [evaluate_coboundary(b, Cochain1.chi(b.size, i)).to_vector()
             for i in range(1, b.size + 1)], n2)
        free, torsion = quotient_invariants(cocycles, cobs)
        basis, group = reduced_2_cohomology(b)
        assert (group.free_rank, list(group.torsion)) == (free, torsion)
        assert basis == reduced_2_cocycles(b)
        with_torsion += bool(torsion)
    assert with_torsion >= 2


def test_invariant_factors_match_the_smith_form(ab4, ab5):
    matrices = [reduced_cocycle_constraints(ab4), reduced_cocycle_constraints(ab5)]
    for b in (ab4, ab5, *valid_tsr_biracks(5)):
        for degree in (1, 2, 3):
            d = boundary_matrix(b, degree)
            matrices += [d, d.transpose()]
    for M in matrices:
        assert invariant_factors(M) == smith_normal_form(M).invariant_factors


def count_calls(monkeypatch):
    """Count constraint builds, builds of a d_n^T, Smith forms (with transforms), factor-only eliminations
    (the kernel's checks make two; every invariant_factors call and every
    group's d_n^T is one) and runs of the dense elimination core, which the
    factor elimination runs on a remainder only, from here on."""
    from biracks import homology, linalg

    counts = {"constraints": 0, "boundary": 0, "smith": 0, "factors": 0, "core": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(homology, "reduced_cocycle_constraints",
                        counting("constraints", homology.reduced_cocycle_constraints))
    monkeypatch.setattr(homology, "_boundary", counting("boundary", homology._boundary))
    monkeypatch.setattr(linalg, "smith_normal_form",
                        counting("smith", linalg.smith_normal_form))
    factors = counting("factors", linalg._factors_in_place)
    monkeypatch.setattr(homology, "_factors_in_place", factors)
    monkeypatch.setattr(linalg, "_factors_in_place", factors)
    monkeypatch.setattr(linalg, "_eliminate", counting("core", linalg._eliminate))
    return counts


def test_groups_need_no_transforms_and_no_products(ab4, monkeypatch):
    counts = count_calls(monkeypatch)
    products = []
    real = IntegerMatrix.__matmul__

    def counting(a, b):
        products.append((a.rows, a.cols, b.cols))
        return real(a, b)

    monkeypatch.setattr(IntegerMatrix, "__matmul__", counting)
    assert homology_group(ab4, 4).describe() == "Z^8"
    # the unit split leaves no remainder of d_5^T and one of d_4^T, with its Z/2
    assert counts == {"constraints": 0, "boundary": 2, "smith": 0, "factors": 2, "core": 1}
    assert products == []


def test_reduced_path_factors_the_constraints_once(ab4, monkeypatch):
    counts = count_calls(monkeypatch)
    # one elimination of C and no Smith form: the kernel is certified without
    # U, by the factors of C and of the columns read, which leave no remainder
    reduced_2_cocycles(ab4)
    assert counts == {"constraints": 1, "boundary": 1, "smith": 0, "factors": 2, "core": 1}
    reduced_2_cocycles(ab4, modulus=2)
    assert counts == {"constraints": 2, "boundary": 2, "smith": 0, "factors": 4, "core": 2}
    # the quotient adds d_2 and its factors, whose remainder meets the core,
    # and no second elimination of C
    reduced_2_cohomology(ab4)
    assert counts == {"constraints": 3, "boundary": 4, "smith": 0, "factors": 7, "core": 4}


def test_reduced_path_builds_no_row_transform(ab4, monkeypatch):
    from biracks import linalg

    rows = reduced_cocycle_constraints(ab4).rows
    products, cores = [], []
    real_product, real_core = IntegerMatrix.__matmul__, linalg._eliminate

    def product(a, b):
        products.append((a.rows, a.cols, b.cols))
        return real_product(a, b)

    def core(M, dtype, transforms):
        cores.append((M.shape, transforms))
        return real_core(M, dtype, transforms)

    monkeypatch.setattr(IntegerMatrix, "__matmul__", product)
    monkeypatch.setattr(linalg, "_eliminate", core)
    reduced_2_cocycles(ab4)
    reduced_2_cocycles(ab4, modulus=2)
    reduced_2_cohomology(ab4)
    # C * (kernel columns) three times, then C * d_2^T; a U of C would be
    # rows x rows and meet a product as an operand with `rows` columns
    assert products == [(rows, 16, 4), (rows, 16, 16), (rows, 16, 4), (rows, 16, 4)]
    # the last is the remainder of d_2^T (16 x 4) after its unit split, its
    # rows and columns merged into one entry, the Z/2 of the quotient
    assert cores == [((rows, 16), "V")] * 3 + [((1, 1), "")]


def test_reduced_cohomology_certificate_fires(ab4, monkeypatch):
    from biracks import cli, homology

    real = homology._boundary

    def corrupted(b, degree, drop=()):
        m = real(b, degree, drop)
        if degree == 2:
            m[1, 0] += 1
        return m

    monkeypatch.setattr(homology, "_boundary", corrupted)
    with pytest.raises(AssertionError, match="coboundary"):
        reduced_2_cohomology(ab4)
    # an internal fault is not a usage error: the CLI does not catch it
    with pytest.raises(AssertionError):
        cli.main(["homology", "ab4", "--reduced"])


def test_resource_guard(ab4):
    with pytest.raises(ResourceLimitExceeded):
        boundary_matrix(ab4, 9)
    with pytest.raises(ResourceLimitExceeded):
        homology_group(ab4, 2, max_cells=10)
    with pytest.raises(ResourceLimitExceeded):
        degenerate_generators(ab4, 3, max_cells=10)


def test_a_group_past_the_transform_bound_is_refused():
    # the split of the reduced d_5^T (7776 x 1123) leaves int64, so the exact
    # fallback would need a 7776 x 7776 U
    b = tsr_birack(6, 1, 2, 5)
    with pytest.raises(ResourceLimitExceeded, match=(
            r"^Smith form transform pair for a 7776x1123 matrix needs 61727305 cells, "
            r"above the fixed bound linalg\.MAX_TRANSFORM_CELLS = 16777216$")):
        homology_group(b, 4)


def test_tuple_basis_has_the_cell_guard(monkeypatch):
    # 5^7 = 78125 tuples, above the default budget of 20,000 cells
    monkeypatch.delenv("BIRACKS_MAX_CELLS", raising=False)
    with pytest.raises(ResourceLimitExceeded, match="degree-7 chain basis on 5 elements"):
        tuple_basis(5, 7)
    monkeypatch.setenv("BIRACKS_MAX_CELLS", str(5**7))
    basis = tuple_basis(5, 7)
    assert len(basis) == 5**7 and basis[0] == (1,) * 7 and basis[-1] == (5,) * 7


@pytest.mark.parametrize("modulus", [0, -2])
def test_reduced_check_refuses_a_modulus_that_is_not_positive(ab4, phi4, modulus):
    with pytest.raises(InputError, match="modulus must be positive"):
        is_reduced_2_cocycle(ab4, phi4, modulus=modulus)
