"""Birack construction, axiom checking, and the kink map."""

import random
from collections import Counter
from dataclasses import replace

import pytest

from biracks import (
    check_axioms,
    cycle_notation,
    format_birack,
    from_matrix,
    from_tables,
    matrix_to_tables,
    parse_birack,
    tsr_birack,
)
from biracks import algebra
from biracks.errors import BirackError, InputError
from conftest import AB4_ALPHA, AB4_BETA, AB5_ALPHA, AB5_BETA, dihedral_tables
from maps import birack_map, sideways_inverse

# matrix with alpha columns stacked over beta columns, the 3-element example
THREE_ELEMENT_MATRIX = [
    [2, 2, 2],
    [1, 1, 1],
    [3, 3, 3],
    [2, 3, 1],
    [3, 1, 2],
    [1, 2, 3],
]


def test_ab4_axioms_and_kink_map(ab4):
    report = check_axioms(AB4_ALPHA, AB4_BETA)
    assert report.ok
    assert all(check.passed and not check.witnesses for check in report.checks)
    assert report.pi == (4, 3, 2, 1)
    assert report.characteristic == 2
    assert cycle_notation(report.pi) == "(1 4)(2 3)"
    assert ab4.pi == (4, 3, 2, 1)
    assert ab4.characteristic == 2
    assert not ab4.is_biquandle


def test_ab5_is_a_biquandle(ab5):
    report = check_axioms(AB5_ALPHA, AB5_BETA)
    assert report.ok
    assert report.pi == (1, 2, 3, 4, 5)
    assert report.characteristic == 1
    assert ab5.is_biquandle


def test_from_matrix_three_element(tsr3):
    b = from_matrix(THREE_ELEMENT_MATRIX)
    assert b.alpha == tsr3.alpha
    assert b.beta == tsr3.beta
    assert b.pi == (1, 2, 3)
    alpha, beta = matrix_to_tables(THREE_ELEMENT_MATRIX)
    assert from_tables(alpha, beta).alpha == b.alpha


def test_from_matrix_one_element():
    b = from_matrix([[1], [1]])
    assert b.size == 1
    assert b.characteristic == 1
    assert b.is_biquandle


def test_tsr_rejects_bad_parameters():
    with pytest.raises(InputError, match="t=2 is not a unit mod 4"):
        tsr_birack(4, 2, 0, 1)
    with pytest.raises(InputError, match=r"s\^2 = \(1 - t\^-1 r\)s fails mod 3"):
        tsr_birack(3, 1, 1, 2)


def test_tsr_kink_map_formula():
    # the kink map multiplies by t^-1 r + s, with n standing for residue 0
    for n, t, s, r in ((3, 1, 2, 2), (5, 2, 0, 3), (4, 3, 0, 1), (5, 1, 0, 2)):
        b = tsr_birack(n, t, s, r)
        t_inv = pow(t, -1, n)
        m = (t_inv * r + s) % n
        expected = tuple((m * x - 1) % n + 1 for x in range(1, n + 1))
        assert b.pi == expected


def test_tsr_birack_map_formula(tsr3):
    # B(x, y) = (t^-1 y + s x, r x) mod 3 with t = 1, s = 2, r = 2
    for x in range(1, 4):
        for y in range(1, 4):
            u = (y + 2 * x - 1) % 3 + 1
            v = (2 * x - 1) % 3 + 1
            assert birack_map(tsr3, x, y) == (u, v)


def test_identity_birack_swaps():
    ident = tuple(range(1, 4))
    b = from_tables((ident,) * 3, (ident,) * 3)
    for x in range(1, 4):
        for y in range(1, 4):
            assert birack_map(b, x, y) == (y, x)


def test_axiom_failure_shears():
    # alpha_x = id with beta_y(x) = x + y shears the diagonal: (i) and (iii) break
    n = 3
    ident = tuple(range(1, n + 1))
    alpha = tuple(ident for _ in range(n))
    beta = tuple(tuple((x + y) % n + 1 for x in range(n)) for y in range(n))
    report = check_axioms(alpha, beta)
    assert not report.ok
    assert report.axiom_ii.passed
    assert not report.axiom_i.passed
    assert not report.axiom_iii.passed
    assert report.axiom_i.witnesses and report.axiom_iii.witnesses
    with pytest.raises(BirackError):
        from_tables(alpha, beta)


def test_bijective_rows_nonbijective_sideways():
    # every alpha_x and beta_y is a bijection, yet S(x,y) hits (1,2) twice
    alpha = ((1, 2), (2, 1))
    beta = ((2, 1), (1, 2))
    hits = sorted(
        (alpha[x][y], beta[y][x]) for x in range(2) for y in range(2)
    )
    assert hits == [(1, 2), (1, 2), (2, 1), (2, 1)]
    report = check_axioms(alpha, beta)
    assert not report.ok
    assert not report.axiom_ii.passed


def test_non_permutation_rows_rejected():
    with pytest.raises(InputError, match=r"alpha_1 is not a bijection: image \[1, 1\]"):
        check_axioms(((1, 1), (2, 2)), ((1, 2), (1, 2)))


def test_kink_map_missing():
    alpha = ((2, 1), (1, 2))
    beta = ((1, 2), (1, 2))
    # no y solves alpha_y(1) = beta_1(y), nor alpha_y(2) = beta_2(y)
    report = check_axioms(alpha, beta)
    assert report.pi is None and report.axiom_i.witnesses == ((1,), (2,))
    with pytest.raises(BirackError):
        from_tables(alpha, beta)


def test_kink_map_not_unique():
    alpha = ((1, 2), (2, 1))
    beta = ((1, 2), (1, 2))
    # both y solve alpha_y(1) = beta_1(y), and both alpha_y(2) = beta_2(y)
    report = check_axioms(alpha, beta)
    assert report.pi is None and report.axiom_i.witnesses == ((1,), (2,))
    with pytest.raises(BirackError):
        from_tables(alpha, beta)


# Tables on which axiom (i) fails in each way it can: the kink map is
# missing at x=1, not unique at x=1, not injective, or a permutation that
# breaks the mirror identity at x=2.  Each row holds the tables, pi (None
# when it does not exist), the witnesses of (i), and what from_tables
# raises first, as (ii) or (iii) also fails on each.
KINK_FAILURES = [
    (((1, 2), (2, 1)), ((2, 1), (1, 2)), None, ((1,), (2,)),
     "axiom ii fails at (1, 1)"),
    (((1, 2), (2, 1)), ((1, 2), (1, 2)), None, ((1,), (2,)),
     "axiom iii fails at (2, 1)"),
    (((1, 2), (1, 2)), ((1, 2), (2, 1)), None, ((1,), (2,)),
     "axiom iii fails at (1, 2)"),
    (((1, 2, 3),) * 3, ((1, 2, 3), (1, 3, 2), (2, 3, 1)), (1, 3, 2), ((2,),),
     "axiom iii fails at (1, 3)"),
]


@pytest.mark.parametrize("alpha, beta, pi, witnesses, first", KINK_FAILURES,
                         ids=["missing", "not-unique", "not-injective", "mirror"])
def test_kink_map_refusals_are_worded_exactly(alpha, beta, pi, witnesses, first):
    report = check_axioms(alpha, beta)
    assert report.axiom_i.witnesses == witnesses and report.pi == pi
    with pytest.raises(InputError) as caught:
        from_tables(alpha, beta)
    assert str(caught.value) == first


@pytest.mark.parametrize("alpha, beta, pi, witnesses, first", KINK_FAILURES,
                         ids=["missing", "not-unique", "not-injective", "mirror"])
def test_from_tables_words_a_failure_of_axiom_i_alone(
        monkeypatch, alpha, beta, pi, witnesses, first):
    # Tables that pass (ii) and (iii) form a birack, whose kink map exists
    # and is a permutation; an enumeration of every table with n <= 3 finds
    # none that passes (ii) and (iii) but fails (i).  So the report is made
    # to pass both here, to reach the refusal of (i) that from_tables words
    # after them: its first witness, however (i) fails.
    real = algebra._check_tables

    def passing(a, b):
        report, tables = real(a, b)
        ok = algebra.AxiomCheck("", True, ())
        return replace(report, axiom_ii=ok, axiom_iii=ok), tables

    monkeypatch.setattr(algebra, "_check_tables", passing)
    with pytest.raises(InputError) as caught:
        from_tables(alpha, beta)
    assert str(caught.value) == f"axiom i fails at {witnesses[0]}"


def test_sideways_roundtrip(ab4, ab5, tsr3):
    for b in (ab4, ab5, tsr3):
        seen = set()
        for x in range(1, b.size + 1):
            for y in range(1, b.size + 1):
                u, v = b.sideways(x, y)
                assert sideways_inverse(b, u, v) == (x, y)
                seen.add((u, v))
        assert len(seen) == b.size * b.size


def test_inversion_identities_hold(ab4, ab5, tsr3, dih3, random_biracks):
    # axiom (ii) is checked only as "S is a bijection": alpha_bar and beta_bar
    # are built as S's inverse, so these four identities follow from it
    for b in (ab4, ab5, tsr3, dih3, *random_biracks):
        a, bt, abar, bbar = b.alpha, b.beta, b.alpha_bar, b.beta_bar
        for x in range(1, b.size + 1):
            for y in range(1, b.size + 1):
                assert abar[bt[x - 1][y - 1] - 1][a[y - 1][x - 1] - 1] == x
                assert bbar[a[x - 1][y - 1] - 1][bt[y - 1][x - 1] - 1] == x
                assert a[bbar[x - 1][y - 1] - 1][abar[y - 1][x - 1] - 1] == x
                assert bt[abar[x - 1][y - 1] - 1][bbar[y - 1][x - 1] - 1] == x


def test_kink_identity_iterates(ab4, ab5, tsr3, dih3):
    # alpha_{pi(x)}(x) = beta_x(pi(x)) keeps holding along the orbit of pi
    for b in (ab4, ab5, tsr3, dih3):
        for x in range(1, b.size + 1):
            cur = x
            for _ in range(b.characteristic):
                nxt = b.pi[cur - 1]
                assert b.a(nxt, cur) == b.b(cur, nxt)
                cur = nxt
            assert cur == x


def test_pi_order_is_characteristic(ab4, ab5, tsr3, random_biracks):
    for b in (ab4, ab5, tsr3, *random_biracks):
        power = tuple(range(1, b.size + 1))
        for _ in range(b.characteristic):
            power = tuple(b.pi[v - 1] for v in power)
        assert power == tuple(range(1, b.size + 1))
        # no smaller positive power of pi is the identity
        power = tuple(range(1, b.size + 1))
        for _ in range(b.characteristic - 1):
            power = tuple(b.pi[v - 1] for v in power)
            assert power != tuple(range(1, b.size + 1))


def test_dihedral_is_a_quandle(dih3):
    assert dih3.is_biquandle
    for x in range(1, 4):
        for y in range(1, 4):
            assert dih3.a(x, y) == y
            assert dih3.b(y, x) == (2 * y - x - 1) % 3 + 1


def test_format_parse_roundtrip(ab4, ab5, tsr3):
    for b in (ab4, ab5, tsr3):
        again = parse_birack(format_birack(b))
        assert again.alpha == b.alpha
        assert again.beta == b.beta


def test_random_tables_check_matches_construction():
    rng = random.Random(99)
    agreements = {True: 0, False: 0}
    for _ in range(60):
        n = rng.randint(1, 3)
        rows = []
        for _ in range(2 * n):
            row = list(range(1, n + 1))
            rng.shuffle(row)
            rows.append(tuple(row))
        alpha, beta = tuple(rows[:n]), tuple(rows[n:])
        report = check_axioms(alpha, beta)
        try:
            b = from_tables(alpha, beta)
            built = True
            assert b.pi == report.pi
        except BirackError:
            built = False
        assert built == report.ok
        agreements[report.ok] += 1
    # the sample must exercise both outcomes
    assert agreements[True] > 0 and agreements[False] > 0


def test_cycle_notation():
    assert cycle_notation((1, 2, 3)) == "id"
    assert cycle_notation((2, 1, 3)) == "(1 2)"
    assert cycle_notation((2, 3, 1)) == "(1 2 3)"


# -- a brute-force oracle for the axiom checks --------------------------------


def _then(f, g):
    """The map z -> g(f(z)) of two 1-based permutation tuples."""
    return tuple(g[v - 1] for v in f)


def axiom_oracle(alpha, beta):
    """check_axioms' fields and from_tables' outcome, straight from the axioms.

    Returns (report fields, built), where built is (alpha_bar, beta_bar)
    or the message from_tables raises.
    """
    n = len(alpha)
    els = range(1, n + 1)
    a = [None, *alpha]  # a[x] is the map alpha_x, as a tuple
    b = [None, *beta]
    image = {(x, y): (a[x][y - 1], b[y][x - 1]) for x in els for y in els}
    hits = Counter(image.values())
    collisions = tuple(p for p in image if hits[image[p]] > 1)
    exchange = tuple(
        (x, y) for x in els for y in els
        for u, v in [image[x, y]]
        if _then(a[x], a[u]) != _then(a[y], a[v])
        or _then(a[x], b[u]) != _then(b[y], a[v])
        or _then(b[x], b[u]) != _then(b[y], b[v]))
    solutions = [[y for y in els if a[y][x - 1] == b[x][y - 1]] for x in els]
    pi = tuple(s[0] for s in solutions if len(s) == 1)
    is_perm = len(pi) == n and sorted(pi) == list(els)
    inverse = {uv: xy for xy, uv in image.items()}  # S^-1(u, v) = (beta_bar_u(v), alpha_bar_v(u))
    if not is_perm:
        kink = [(x,) for x in els if len(solutions[x - 1]) != 1]
        kink = kink or [(x,) for x in els if pi.count(pi[x - 1]) > 1]
    elif collisions:
        kink = []
    else:
        kink = [(x,) for x, p in zip(els, pi) if inverse[p, x][0] != inverse[p, x][1]]
    order = None
    if is_perm:
        order, power = 1, pi
        while power != tuple(els):
            order, power = order + 1, _then(power, pi)
    fields = {"i": tuple(kink), "ii": collisions, "iii": exchange,
              "pi": pi if is_perm else None, "characteristic": order}

    if collisions:
        return fields, f"axiom ii fails at {collisions[0]}"
    if exchange:
        return fields, f"axiom iii fails at {exchange[0]}"
    if kink:
        return fields, f"axiom i fails at {kink[0]}"
    beta_bar = tuple(tuple(inverse[u, v][0] for v in els) for u in els)
    alpha_bar = tuple(tuple(inverse[u, v][1] for u in els) for v in els)
    return fields, (alpha_bar, beta_bar)


def assert_matches_oracle(alpha, beta):
    fields, built = axiom_oracle(alpha, beta)
    report = check_axioms(alpha, beta)
    assert {"i": report.axiom_i.witnesses, "ii": report.axiom_ii.witnesses,
            "iii": report.axiom_iii.witnesses, "pi": report.pi,
            "characteristic": report.characteristic} == fields
    assert [c.passed for c in report.checks] == [not fields[k] for k in ("i", "ii", "iii")]
    if isinstance(built, str):
        with pytest.raises(InputError) as caught:
            from_tables(alpha, beta)
        assert str(caught.value) == built
    else:
        b = from_tables(alpha, beta)
        assert (b.alpha_bar, b.beta_bar) == built
    return report


def random_tables(rng, n):
    rows = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(2 * n)]
    return tuple(rows[:n]), tuple(rows[n:])


def test_axiom_checks_match_a_brute_force_oracle(ab4, ab5):
    rng = random.Random(2013)
    outcomes = {True: 0, False: 0}
    cases = [random_tables(rng, rng.randint(1, 4)) for _ in range(400)]
    # (ii) holds; (iii) fails, first at (1, 1) and at (2, 1), and the kink
    # map is missing or not unique at x=1
    cases += [(((2, 1), (1, 2)), ((1, 2), (1, 2))), (((1, 2), (2, 1)), ((1, 2), (1, 2)))]
    # valid biracks and near misses: one row of alpha or beta rotated
    for b in (ab4, ab5, *(tsr_birack(*p) for p in ((3, 1, 2, 2), (4, 3, 0, 1), (5, 2, 0, 3)))):
        cases.append((b.alpha, b.beta))
        for k in range(b.size):
            alpha, beta = list(b.alpha), list(b.beta)
            alpha[k] = alpha[k][1:] + alpha[k][:1]
            beta[k] = beta[k][::-1]
            cases += [(tuple(alpha), b.beta), (b.alpha, tuple(beta))]
    for alpha, beta in cases:
        outcomes[assert_matches_oracle(alpha, beta).ok] += 1
    assert outcomes[True] >= 20 and outcomes[False] >= 300


def test_exchange_check_over_two_blocks():
    # n = 70 takes two blocks of x (53 rows of 70 x 70 cells fit in 2^18);
    # rotating alpha_65 puts failures in the second one
    b = tsr_birack(70, 1, 0, 1)
    assert assert_matches_oracle(b.alpha, b.beta).ok
    alpha = list(b.alpha)
    alpha[64] = alpha[64][1:] + alpha[64][:1]
    report = assert_matches_oracle(alpha, b.beta)
    assert not report.axiom_iii.passed
    assert max(x for x, _ in report.axiom_iii.witnesses) == 65


def test_exchange_check_over_blocks_of_x_and_y(monkeypatch):
    # past n = 512 one row of x holds more than 2^18 cells, so y is blocked
    # too; a block size of 40 cells takes that path at n = 8 (blocks of 1 x 5
    # and 1 x 3 pairs) and n = 10 (1 x 4, 1 x 4, 1 x 2)
    monkeypatch.setattr(algebra, "_BLOCK_CELLS", 40)
    rng = random.Random(18)
    cases = [random_tables(rng, n) for n in (8, 10) for _ in range(5)]
    for b in (tsr_birack(8, 3, 0, 5), tsr_birack(10, 3, 0, 7)):
        cases.append((b.alpha, b.beta))
        for k in range(b.size):
            alpha = list(b.alpha)
            alpha[k] = alpha[k][1:] + alpha[k][:1]
            cases.append((tuple(alpha), b.beta))
    outcomes = [assert_matches_oracle(alpha, beta).ok for alpha, beta in cases]
    assert outcomes.count(True) == 2
