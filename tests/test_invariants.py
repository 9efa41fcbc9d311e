"""Counting and cocycle invariants, Boltzmann weights, and the framing tile.

The labeling search, brute force and per-labeling weights tested here are
the oracles in labeling_oracles, not package code.
"""

import warnings

import pytest

from biracks import (
    LaurentPolynomial,
    cocycle_invariant,
    counting_invariant,
    framed_invariants,
    load_diagram,
    reverse_component,
)
from biracks.errors import InputError, NotReducedCocycle, ResourceLimitExceeded
from biracks.homology import Cochain1, Cochain2, evaluate_coboundary
from labeling_oracles import (
    boltzmann_weight,
    brute_force_labelings,
    enumerate_labelings,
    labeling_is_valid,
)
from maps import evaluate


def P(pairs):
    return LaurentPolynomial.from_pairs(pairs)


def test_backtracking_matches_brute_force(ab4, tsr3):
    for name in ("l2a1", "v2_1", "k3_1"):
        d = load_diagram(name)
        for b in (ab4, tsr3):
            fast = enumerate_labelings(d, b)
            slow = brute_force_labelings(d, b)
            assert sorted(fast) == sorted(slow)
            assert len(set(fast)) == len(fast)


def test_labelings_satisfy_crossing_relations(ab5):
    d = load_diagram("l2a1")
    found = enumerate_labelings(d, ab5)
    assert len(found) == 13
    for f in found:
        assert labeling_is_valid(d, ab5, f)
        for c in d.crossings:
            x, y = f[c.under_out], f[c.over_in]
            assert f[c.over_out] == ab5.a(x, y)
            assert f[c.under_in] == ab5.b(y, x)
    assert not labeling_is_valid(d, ab5, (1, 1, 1, 2))


def test_hopf_per_framing_counts(ab4):
    r = counting_invariant(load_diagram("l2a1"), ab4)
    assert r.per_framing == (
        ((0, 0), 0),
        ((0, 1), 0),
        ((1, 0), 0),
        ((1, 1), 16),
    )
    assert r.phi_z == 16
    assert r.poly == 16


def test_unknot_counts(ab4, ab5, tsr3):
    u = load_diagram("unknot")
    r = counting_invariant(u, ab4)
    # framing 0 admits the constant labelings, framing 1 needs a fixed point of pi
    assert r.per_framing == (((0,), 4), ((1,), 0))
    assert r.phi_z == 4
    assert counting_invariant(u, ab5).phi_z == 5
    assert counting_invariant(u, tsr3).phi_z == 3


def test_kinked_unknot_counts_fixed_points(ab4, ab5, tsr3, kinked_unknot):
    # a single positive kink forces pi(x) = x at framing 1
    assert counting_invariant(kinked_unknot, ab5).phi_z == 5
    assert counting_invariant(kinked_unknot, tsr3).phi_z == 3
    r = counting_invariant(kinked_unknot, ab4)
    assert r.per_framing == (((1,), 0), ((2,), 4))
    assert r.phi_z == 4


def test_hopf_cocycle_weights(ab4, phi4):
    r = cocycle_invariant(load_diagram("l2a1"), ab4, phi4)
    assert r.poly == P([(0, 8), (1, 8)])
    assert r.multiset == ((0, 8), (1, 8))
    assert r.phi_z == 16
    assert r.warnings == ()


def test_boltzmann_weight_matches_hand_sum(ab4, ab5, tsr3, phi4, phi5):
    cases = [
        ("l2a1", ab5, phi5),
        ("v2_1", ab5, phi5),
        ("k3_1", ab5, phi5),
        ("k3_1", tsr3, Cochain2.from_pairs(3, [(1, 2), (2, 1)])),
    ]
    for name, b, phi in cases:
        d = load_diagram(name)
        # the oracle's weights, summed over the labelings one by one, give the
        # package's state sum at the diagram's own framing
        weights = [boltzmann_weight(d, f, phi) for f in enumerate_labelings(d, b)]
        assert framed_invariants(d, b, phi).poly == P((w, 1) for w in weights)


def test_classical_link_values(ab5, phi5):
    expected = {
        "l2a1": P([(0, 7), (1, 6)]),
        "l4a1": P([(0, 19), (2, 6)]),
        "l5a1": P([(0, 25)]),
        "l6a4": P([(0, 125)]),
    }
    for name, want in expected.items():
        assert cocycle_invariant(load_diagram(name), ab5, phi5).poly == want


def test_virtual_knot_values(ab5, phi5):
    expected = {
        "v2_1": P([(0, 2), (1, 3)]),
        "v3_2": P([(-1, 3), (0, 2)]),
        "k3_1": P([(0, 5)]),
        "k4_1": P([(0, 5)]),
    }
    for name, want in expected.items():
        assert cocycle_invariant(load_diagram(name), ab5, phi5).poly == want


def test_orientation_sensitivity(ab5, phi5):
    hopf = load_diagram("l2a1")
    assert cocycle_invariant(hopf, ab5, phi5).poly == P([(0, 7), (1, 6)])
    for comp in (0, 1):
        rev = reverse_component(hopf, comp)
        assert cocycle_invariant(rev, ab5, phi5).poly == P([(-1, 6), (0, 7)])


def test_diagram_independence(ab4, ab5, phi4, phi5):
    pairs = [("k3_1", "k3_1_variant"), ("l2a1", "hopf_kink_pair")]
    for left_name, right_name in pairs:
        left, right = load_diagram(left_name), load_diagram(right_name)
        for b, phi in ((ab4, phi4), (ab5, phi5)):
            a = cocycle_invariant(left, b, phi)
            c = cocycle_invariant(right, b, phi)
            assert a.phi_z == c.phi_z
            assert a.poly == c.poly


def test_framing_periodicity(ab4, ab5):
    l2a1 = load_diagram("l2a1")
    unknot = load_diagram("unknot")
    for b in (ab4, ab5):
        n = b.characteristic
        for w in ((0, 0), (1, 0), (1, 1), (2, 1)):
            base = framed_invariants(l2a1, b, framing=w).per_framing[0][1]
            for i in range(2):
                shifted = list(w)
                shifted[i] += n
                bumped = framed_invariants(l2a1, b, framing=tuple(shifted))
                assert bumped.per_framing[0][1] == base
        for w in ((0,), (1,), (2,)):
            base = framed_invariants(unknot, b, framing=w).per_framing[0][1]
            bumped = framed_invariants(unknot, b, framing=(w[0] + n,))
            assert bumped.per_framing[0][1] == base


def test_framed_invariants_defaults_and_errors(ab4, ab5, phi4, phi5):
    l2a1 = load_diagram("l2a1")
    r = framed_invariants(l2a1, ab5, phi5)
    assert r.per_framing == (((0, 0), 13),)
    assert r.poly == P([(0, 7), (1, 6)])
    single = framed_invariants(l2a1, ab4, framing=(1, 1))
    assert single.per_framing == (((1, 1), 16),)
    with pytest.raises(ValueError):
        framed_invariants(l2a1, ab4, framing=(1,))
    with pytest.raises(ValueError):
        framed_invariants(l2a1, ab4, framing=(-1, 0))
    for b, phi in ((ab4, phi5), (ab5, phi4)):
        message = f"cochain size {phi.size} does not match the birack size {b.size}"
        with pytest.raises(InputError, match=message):
            cocycle_invariant(l2a1, b, phi)
        with pytest.raises(InputError, match=message):
            framed_invariants(l2a1, b, phi)


def test_framings_past_int64_wrap_by_the_characteristic(ab4, phi4):
    # 2*10^20 kinks are orbits of the kink map, on which a reduced cocycle sums to 0
    l2a1 = load_diagram("l2a1")
    base = framed_invariants(l2a1, ab4, phi4, framing=(1, 1))
    far = framed_invariants(l2a1, ab4, phi4, framing=(2 * 10**20 + 1, 1))
    assert base.per_framing == (((1, 1), 16),) and base.poly == P([(0, 8), (1, 8)])
    assert far.per_framing == (((2 * 10**20 + 1, 1), 16),)
    assert far.poly == base.poly


def test_coboundary_weights_vanish(ab4, ab5, kinked_unknot):
    for b in (ab4, ab5):
        for d in (load_diagram("l2a1"), kinked_unknot):
            for i in range(1, b.size + 1):
                delta = evaluate_coboundary(b, Cochain1.chi(b.size, i))
                r = cocycle_invariant(d, b, delta)
                assert r.poly == LaurentPolynomial({0: r.phi_z})
                assert r.multiset in ((), ((0, r.phi_z),))


def test_cohomologous_cocycles_agree(ab5, phi5):
    for name in ("l2a1", "v2_1", "l5a1"):
        d = load_diagram(name)
        base = cocycle_invariant(d, ab5, phi5).poly
        for i in range(1, 6):
            shifted = phi5 + evaluate_coboundary(ab5, Cochain1.chi(5, i))
            assert cocycle_invariant(d, ab5, shifted).poly == base


def test_poly_evaluate_and_multiset_totals(ab5, phi5):
    for name in ("l2a1", "l4a1", "v3_2"):
        r = cocycle_invariant(load_diagram(name), ab5, phi5)
        assert evaluate(r.poly, 1) == r.phi_z
        assert sum(m for _, m in r.multiset) == r.phi_z
        assert r.to_json_dict()["phi_Z"] == r.phi_z


def test_not_reduced_cochain_warns(ab4):
    diagonal = Cochain2.from_pairs(4, [(1, 1)])
    d = load_diagram("l2a1")
    with pytest.warns(NotReducedCocycle):
        r = cocycle_invariant(d, ab4, diagonal)
    assert r.warnings
    # framed evaluation records the caveat without raising a Python warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        framed = framed_invariants(d, ab4, diagonal, framing=(1, 1))
    assert framed.warnings


def test_tile_resource_guard(ab4):
    with pytest.raises(ResourceLimitExceeded):
        counting_invariant(load_diagram("l2a1"), ab4, max_tile=1)


def test_laurent_polynomial_behaviour():
    assert str(P([(0, 8), (1, 8)])) == "8+8u"
    assert str(P([(-1, 6), (0, 7)])) == "6u^-1+7"
    assert str(P([(0, 16)])) == "16"
    assert str(P([(0, 1), (2, -3)])) == "1-3u^2"
    assert str(LaurentPolynomial()) == "0"
    assert str(LaurentPolynomial({1: 1})) == "u"
    assert P([(1, 2), (1, -2), (0, 5)]) == 5
    assert P([(0, 5)]).pairs() == [(0, 5)]
    assert P([(2, 1), (-1, 4)]).pairs() == [(-1, 4), (2, 1)]
    assert P([(1, 3)]) + P([(1, -3)]) == LaurentPolynomial()
    assert evaluate(P([(-2, 6), (0, 19)]), 1) == 25
