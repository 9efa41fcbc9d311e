"""Exact integer linear algebra: Smith forms, kernels, and lattice quotients.

`solve`, `column_span_contains` and `quotient_invariants` live here, not in
the package: they are the lattice-quotient route that the tests use as an
independent reference for groups read off invariant factors.
`snf_kernel_lattice` reads a kernel off a Smith form with both transforms
and the exact product checked, the reference for `kernel_lattice`.
"""

import random
from math import gcd

import numpy as np
import pytest

from biracks import (
    IntegerMatrix,
    from_tables,
    kernel_lattice,
    linalg,
    reduced_cocycle_constraints,
    smith_normal_form,
)
from biracks.errors import InputError, ResourceLimitExceeded
from biracks.linalg import invariant_factors
from conftest import AB4_ALPHA, AB4_BETA
from maps import column, from_columns, zeros


def bareiss_determinant(rows):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def assert_unimodular(T):
    """Exact proof that the square integer matrix T has determinant +-1."""
    n = T.rows
    if n <= 16:
        # transforms of small dense inputs reach 10^17, past float precision
        assert abs(bareiss_determinant(T.data)) == 1
        return
    # an integer W with T W = I exactly gives det(T) det(W) = 1
    guess = np.rint(np.linalg.inv(np.array(T.data, dtype=float)))
    W = [[int(v) for v in row] for row in guess.tolist()]  # IntegerMatrix takes no floats
    assert T @ IntegerMatrix(W, n, n) == IntegerMatrix.identity(n)


def assert_valid_decomposition(M, snf):
    rows, cols = M.rows, M.cols
    assert snf.shape == (rows, cols)
    assert len(snf.d) == min(rows, cols)
    assert all(x >= 0 for x in snf.d)
    for a, b in zip(snf.d, snf.d[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    assert (snf.u @ M) @ snf.v == snf.diagonal_matrix()
    assert_unimodular(snf.u)
    assert_unimodular(snf.v)


def solve(M, rhs, snf=None):
    """One integer solution x of M x = rhs, or None when none exists."""
    if not isinstance(M, IntegerMatrix):
        M = IntegerMatrix(M)
    if snf is None:
        snf = smith_normal_form(M)
    m, n = M.rows, M.cols
    if len(rhs) != m:
        raise ValueError("right-hand side of wrong length")
    u, v = snf.u.data, snf.v.data
    y = [sum(u[i][k] * rhs[k] for k in range(m)) for i in range(m)]
    z = [0] * n
    for i in range(m):
        di = snf.d[i] if i < len(snf.d) else 0
        if di == 0:
            if y[i] != 0:
                return None
        else:
            if y[i] % di != 0:
                return None
            if i < n:
                z[i] = y[i] // di
    return [sum(v[i][k] * z[k] for k in range(n)) for i in range(n)]


def snf_kernel_lattice(snf, modulus=None):
    """The kernel of M read off its Smith form D = U M V, whose exact product
    smith_normal_form checked: over Z the columns of V past the rank, over
    Z_modulus every column j of V scaled by modulus / gcd(d_j, modulus),
    with d_j = 0 past the diagonal."""
    if modulus is None:
        return IntegerMatrix._of(snf.v.array[:, len(snf.invariant_factors):].copy())
    d = snf.d + (0,) * (snf.shape[1] - len(snf.d))
    scale = np.array([modulus // gcd(x, modulus) for x in d], dtype=object)
    return IntegerMatrix._of(snf.v.array * scale)


def column_span_contains(M, rhs, snf=None):
    """Whether rhs lies in the integer column span of M."""
    return solve(M, rhs, snf=snf) is not None


def quotient_invariants(basis, gens):
    """Invariants (free rank, torsion) of lattice(basis) / lattice(gens).

    basis must have linearly independent columns; every column of gens must
    lie in their integer span (ValueError otherwise).  Torsion is returned as
    the list of invariant factors greater than 1.
    """
    snf = smith_normal_form(basis)
    r = len(snf.invariant_factors)
    if r != basis.cols:
        raise ValueError("basis columns are not independent")
    coeffs = []
    for col in gens.columns():
        x = solve(basis, col, snf)
        if x is None:
            raise ValueError("generator outside the span of the basis")
        coeffs.append(x)
    inner = smith_normal_form(from_columns(coeffs, r))
    torsion = [x for x in inner.invariant_factors if x > 1]
    return r - len(inner.invariant_factors), torsion


def test_unimodular_check_is_exact():
    assert bareiss_determinant([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0
    for n in (3, 20):  # both branches of assert_unimodular
        T = IntegerMatrix.identity(n)
        T.array[0, n - 1] = 5
        assert_unimodular(T)
        T.array[n - 1, n - 1] = 2
        with pytest.raises(AssertionError):
            assert_unimodular(T)


def test_diagonal_two_three():
    snf = smith_normal_form([[2, 0], [0, 3]])
    assert snf.d == (1, 6)
    assert len(snf.invariant_factors) == 2
    assert snf.invariant_factors == (1, 6)
    assert_valid_decomposition(IntegerMatrix([[2, 0], [0, 3]]), snf)


def test_zero_matrix():
    M = zeros(3, 5)
    snf = smith_normal_form(M)
    assert snf.d == (0, 0, 0)
    assert len(snf.invariant_factors) == 0
    assert_valid_decomposition(M, snf)


def test_empty_shapes():
    for rows, cols in ((0, 0), (0, 3), (3, 0)):
        M = zeros(rows, cols)
        snf = smith_normal_form(M)
        assert snf.d == ()
        assert_valid_decomposition(M, snf)


def test_smith_form_refuses_transforms_past_the_fixed_bound(monkeypatch):
    # 4096^2 + 1^2 cells of U and V, one above 2^24: refused before they exist
    with pytest.raises(ResourceLimitExceeded) as caught:
        smith_normal_form(zeros(4096, 1))
    assert str(caught.value) == (
        "Smith form transform pair for a 4096x1 matrix needs 16777217 cells, "
        "above the fixed bound linalg.MAX_TRANSFORM_CELLS = 16777216")
    monkeypatch.setattr(linalg, "MAX_TRANSFORM_CELLS", 13)
    assert smith_normal_form([[1, 2, 3], [4, 5, 6]]).d == (1, 3)  # 4 + 9 cells
    with pytest.raises(ResourceLimitExceeded, match="for a 3x3 matrix needs 18 cells"):
        smith_normal_form([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    # trial division cannot take the prime 2^61 - 1, so the exact fallback runs
    with pytest.raises(ResourceLimitExceeded, match="for a 1x4 matrix needs 17 cells"):
        invariant_factors([[2**61 - 1, 0, 0, 0]])


def test_random_matrices_decompose():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 6)
        M = IntegerMatrix(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        assert_valid_decomposition(M, smith_normal_form(M))


def test_huge_entries_use_exact_arithmetic():
    # far beyond int64, must take the object-dtype path and still verify
    big = 2**70
    M = IntegerMatrix([[big, big + 1], [big - 1, big]])
    snf = smith_normal_form(M)
    assert_valid_decomposition(M, snf)
    # det = big^2 - (big^2 - 1) = 1, so the matrix is unimodular
    assert snf.d == (1, 1)


def scrambled(diagonal, shear, rng):
    """L * diag(diagonal) * R for unimodular L and R made of random shears
    by multiples of `shear`."""
    n = len(diagonal)
    M = [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(4):
        i, j = rng.sample(range(n), 2)
        q = shear * rng.choice((-1, 1))
        M[i] = [a + q * b for a, b in zip(M[i], M[j])]  # a row shear on the left
        i, j = rng.sample(range(n), 2)
        for row in M:  # a column shear on the right
            row[i] += q * row[j]
    return M


def test_invariant_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    rng = random.Random(23)
    cases = []
    for k in range(80):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        if k % 4 == 3:
            # a product through a thin middle dimension is rank deficient
            inner = rng.randint(1, 2)
            left = [[rng.randint(-5, 5) for _ in range(inner)] for _ in range(rows)]
            right = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(inner)]
            data = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                    for row in left]
        else:
            bound = (1, 9, 2**70)[k % 4]
            data = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        cases.append(data)
    # mixed torsion (Z/2 + Z/4, Z/3 + Z/9) hidden by unimodular factors,
    # small and with entries past 2^62, which restart on Python ints
    for diagonal in ((2, 4, 0), (3, 9, 0), (1, 3, 9)):
        for shear in (3, 2**40):
            data = scrambled(diagonal, shear, rng)
            assert (max(abs(v) for row in data for v in row) >= 2**62) == (shear > 3)
            cases.append(data)
    for data in cases:
        expected = tuple(int(x) for x in sympy_factors(sympy.Matrix(data), domain=sympy.ZZ))
        assert smith_normal_form(data).d == expected
        assert invariant_factors(data) == tuple(x for x in expected if x)


def corrupt_core(monkeypatch, change):
    """Make the elimination core return its diagonal after change(A)."""
    real = linalg._eliminate

    def wrong(M, dtype, transforms):
        A, U, V = real(M, dtype, transforms)
        change(A)
        return A, U, V

    monkeypatch.setattr(linalg, "_eliminate", wrong)


def drop_last_factor(A):
    r = np.count_nonzero(A.diagonal()) - 1
    A[r, r] = 0


def triple_last_factor(A):
    r = np.count_nonzero(A.diagonal()) - 1
    A[r, r] *= 3


def halve_last_factor(A):
    r = np.count_nonzero(A.diagonal()) - 1
    A[r, r] //= 2


def add_unit_factor(A):
    r = np.count_nonzero(A.diagonal())
    A[r, r] = 1


# The dense core sees only the remainder of the unit split, so each matrix
# below leaves a remainder; the split itself is checked by the tests after.
@pytest.mark.parametrize("M, change", [
    ([[2, 3], [3, 5]], drop_last_factor),  # 1 for 1 + 1, with no +-1 entry
    ([[0, 3], [3, 3]], triple_last_factor),  # Z/3 + Z/9 for Z/3 + Z/3
    ([[3]], triple_last_factor),  # Z/9 for Z/3
    # 1 + 1 + 1 for 1 + 1, with no +-1 entry, and no row or column a
    # multiple of another, which the remainder would merge
    ([[2, 3, 5], [3, 5, 8], [5, 8, 13]], add_unit_factor),
    # a prime dropped from the only factor it divides
    ([[2]], halve_last_factor),  # 1 for Z/2
    ([[6]], halve_last_factor),  # Z/3 for Z/6
    ([[1, 0], [0, 2]], halve_last_factor),  # 1 + 1 for 1 + Z/2
])
def test_invariant_factor_certificate_fires(monkeypatch, M, change):
    assert invariant_factors(M) == smith_normal_form(M).invariant_factors
    corrupt_core(monkeypatch, change)
    with pytest.raises(AssertionError, match="invariant factors differ"):
        invariant_factors(M)


def corrupt_split(monkeypatch, change):
    """Make the unit split hand its record and remainder A to the check
    after change(A, steps)."""
    real = linalg._sparse_pivots

    def wrong(A, pivotal, multipliers, modulus=None):
        steps = real(A, pivotal, multipliers, modulus)
        if modulus is None:
            change(A, steps)
        return steps

    monkeypatch.setattr(linalg, "_sparse_pivots", wrong)


def bump_multiplier(A, steps):
    next(s for s in steps if len(s[4]))[5][0] += 1


def bump_frozen_entry(A, steps):
    # the entry of the first frozen row in column 1, which is no pivot column
    r, c, support, frozen, *_ = steps[0]
    frozen[list(support).index(1)] += 1


def bump_remainder(A, steps):
    A[1, 1] += 1  # row 1 and column 1 hold no pivot


def fill_pivot_column(A, steps):
    A[1, steps[0][1]] = 1


def double_pivot(A, steps):
    r, c, support, frozen, *_ = steps[0]
    frozen[list(support).index(c)] *= 2


def repeat_pivot_row(A, steps):
    steps[1] = (steps[0][0], *steps[1][1:])


def move_frozen_entry_to_earlier_pivot_column(A, steps):
    # the second frozen row's first entry, in column 1, moves to column 0
    support = steps[1][2]
    assert support[0] == 1
    support[0] = steps[0][1]


# two unit pivots, in rows 0 and 3 and columns 0 and 3, and a 2 x 2 remainder
SPLIT = [[1, 2, 0, 3], [2, 1, 4, 0], [0, 3, 2, 2], [1, 0, 2, 4]]


@pytest.mark.parametrize("change, message", [
    (bump_multiplier, "does not reproduce the matrix"),
    (bump_frozen_entry, "does not reproduce the matrix"),
    (bump_remainder, "does not reproduce the matrix"),
    (fill_pivot_column, "remainder is nonzero on a pivot column"),
    (double_pivot, "is not [+]-1"),
    (repeat_pivot_row, "takes a pivot row or column twice"),
    (move_frozen_entry_to_earlier_pivot_column, "nonzero on an earlier pivot column"),
])
def test_unit_split_certificate_fires(monkeypatch, change, message):
    assert invariant_factors(SPLIT) == smith_normal_form(SPLIT).invariant_factors == (1, 1, 1, 82)
    corrupt_split(monkeypatch, change)
    with pytest.raises(AssertionError, match=message):
        invariant_factors(SPLIT)


def fill_off_diagonal(A):
    A[0, 1] = 1


def negate_first_factor(A):
    A[0, 0] = -A[0, 0]


def drop_first_factor(A):
    A[0, 0] = 0


def bump_last_factor(A):
    A[1, 1] += 1


# [[0, 3], [3, 3]] has factors 3 and 3 and no +-1 entry, so the core sees
# all of it; each change breaks one check of the core's diagonal
@pytest.mark.parametrize("change, message", [
    (fill_off_diagonal, "left a nonzero entry off the diagonal"),
    (negate_first_factor, "negative diagonal"),
    (drop_first_factor, "zero before nonzero"),
    (bump_last_factor, "divisibility chain broken"),
])
def test_core_diagonal_checks_fire(monkeypatch, change, message):
    M = [[0, 3], [3, 3]]
    assert invariant_factors(M) == (3, 3)
    corrupt_core(monkeypatch, change)
    with pytest.raises(AssertionError, match=message):
        invariant_factors(M)


def test_unit_split_certificate_needs_the_order_of_the_steps(monkeypatch):
    # A record of [[1, 2], [2, 1]], whose factors are 1 and 3, that claims
    # two unit pivots: step 0 freezes row 0 and takes 2 F_0 from row 1, and
    # step 1 freezes row 1 and takes 2 F_1 from row 0, already frozen.  F is
    # I, so M == F + G F holds, but I + G has determinant -3.
    M = [[1, 2], [2, 1]]
    one, two = np.array([1]), np.array([2])
    steps = [(0, 0, np.array([0]), one, np.array([1]), two),
             (1, 1, np.array([1]), one, np.array([0]), two)]
    G = np.array([[0, 2], [2, 0]])
    assert (np.eye(2, dtype=int) + G).tolist() == M

    def record(A, pivotal, multipliers, modulus=None):
        if modulus is not None:
            return real(A, pivotal, multipliers, modulus)
        A[:] = 0
        return steps

    real = linalg._sparse_pivots
    monkeypatch.setattr(linalg, "_sparse_pivots", record)
    with pytest.raises(AssertionError, match="pivot row changes after it is frozen"):
        invariant_factors(M)


def test_unit_split_record():
    A = np.array(SPLIT)
    steps = linalg._sparse_pivots(A, linalg._is_unit, lambda a, p: a * p)
    assert [(s[0], s[1]) for s in steps] == [(0, 0), (3, 3)]
    assert A[[1, 2]][:, [1, 2]].tolist() == [[-15, 16], [7, -2]]


def reference_split(M, pivotal, multiplier, modulus=None):
    """The split's documented rule on lists of Python ints, one step at a
    time: the row with the fewest nonzeros that holds a pivotal entry, the
    lowest such row on ties, and the first pivotal entry in it; the pivot
    row is frozen and cleared, and every row meeting the pivot column loses
    f times it.  Returns the record, as the split keeps it, and the rows
    left."""
    A = [list(row) for row in M]
    record = []
    while True:
        held = [(sum(1 for x in row if x), i) for i, row in enumerate(A)
                if any(x and pivotal(x) for x in row)]
        if not held:
            return record, A
        r = min(held)[1]
        support = [j for j, x in enumerate(A[r]) if x]
        frozen = [A[r][j] for j in support]
        c = next(j for j in support if pivotal(A[r][j]))
        A[r] = [0] * len(A[r])
        others = [i for i, row in enumerate(A) if row[c]]
        f = [multiplier(A[i][c], frozen[support.index(c)]) for i in others]
        for i, fi in zip(others, f):
            for j, x in zip(support, frozen):
                A[i][j] -= fi * x
                if modulus is not None:
                    A[i][j] %= modulus
        record.append((r, c, support, frozen, others, f))


def split_record(M, pivotal, multipliers, modulus=None):
    A = np.array(M, dtype=np.int64)
    steps = linalg._sparse_pivots(A, pivotal, multipliers, modulus)
    return [tuple(x if np.isscalar(x) else x.tolist() for x in step)
            for step in steps], A.tolist()


@pytest.mark.parametrize("seed", range(40))
def test_split_follows_its_documented_rule(seed):
    """Random small matrices, with rows that hold no +-1 among them, over Z
    and over Z/3^19 at the first two valuation levels."""
    rng = random.Random(seed)
    m, n = rng.randint(1, 9), rng.randint(1, 7)
    M = [[rng.choice([0, 0, 0, 1, -1, 2, -2, 3, 6]) for _ in range(n)] for _ in range(m)]
    want = reference_split(M, lambda x: abs(x) == 1, lambda a, p: a * p)
    assert split_record(M, linalg._is_unit, lambda a, p: a * p) == want
    Q = 3**19
    for low in (1, 3):
        step = 3 * low
        A = [[x * low % Q for x in row] for row in M]
        want = reference_split(A, lambda x: x % step != 0,
                               lambda a, p: (a // low) * pow(p // low, -1, Q) % Q, Q)
        assert split_record(
            A, lambda X: X % step != 0,
            lambda a, p: (a // low) * pow(int(p) // low, -1, Q) % Q, Q) == want


@pytest.mark.parametrize("M, merged, factors", [
    # the columns 1 (2, -3) and 2 (2, -3) merge, then the rows 2 (1) and -3 (1)
    ([[2, 4], [-3, -6]], (1, 1), (1,)),
    # the rows 6 (1, 0) and 9 (1, 0) merge into 3 (1, 0); Z/12 hides in 3 and 4
    ([[6, 0], [0, 4], [9, 0]], (2, 2), (1, 12)),
    # no row or column is a multiple of another
    ([[2, 3, 5], [3, 5, 8], [5, 8, 13]], (3, 3), (1, 1)),
])
def test_remainder_merges_keep_the_factors(M, merged, factors):
    assert linalg._remainder(np.array(M)).shape == merged
    assert invariant_factors(M) == smith_normal_form(M).invariant_factors == factors


def test_invariant_factor_certificate_falls_back_to_the_exact_check(monkeypatch):
    calls = []
    real = linalg.smith_normal_form

    def counting(M):
        calls.append(M)
        return real(M)

    monkeypatch.setattr(linalg, "smith_normal_form", counting)
    # 2^61 - 1 is prime: trial division stops at sqrt(2^31)
    assert invariant_factors([[2**61 - 1]]) == (2**61 - 1,)
    assert invariant_factors([[2, 0], [0, 2 * (2**61 - 1)]]) == (2, 2 * (2**61 - 1))
    # 46349 is prime, but 46349^2 reaches 2^31, past the int64-safe moduli,
    # so Z/46349 cannot tell valuation 1 from higher ones
    assert invariant_factors([[46349]]) == (46349,)
    # the unit step would reach 2^122
    assert invariant_factors([[1, 2**61], [2**61, 1]]) == (1, 2**122 - 1)
    assert len(calls) == 4
    assert invariant_factors([[9, 0], [0, 6]]) == (3, 18)
    # 46349 divides the minor found but no factor
    assert invariant_factors([[46349, 2]]) == (1,)
    assert len(calls) == 4
    # the exact check catches a wrong core too
    corrupt_core(monkeypatch, triple_last_factor)
    with pytest.raises(AssertionError):
        invariant_factors([[2**61 - 1]])


def test_a_minor_with_a_prime_past_the_moduli_falls_back(monkeypatch):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    smith, minors = [], []
    real_smith, real_primes = linalg.smith_normal_form, linalg._primes_of

    def counting(M):
        smith.append(M)
        return real_smith(M)

    def recording(D):
        minors.append(D)
        return real_primes(D)

    monkeypatch.setattr(linalg, "smith_normal_form", counting)
    monkeypatch.setattr(linalg, "_primes_of", recording)
    # p is a prime just past 2^31: trial division ends below sqrt(2^31) and
    # leaves p, which no modulus below 2^31 can take
    p = 2147483659
    for M in ([[p]], [[2 * p, 3], [p, 5]]):
        expected = tuple(int(x) for x in sympy_factors(sympy.Matrix(M), domain=sympy.ZZ))
        assert invariant_factors(M) == expected
    assert minors == [p, 7 * p]
    assert len(smith) == 2


def test_exact_fallback_rebuilds_the_matrix_from_the_record(monkeypatch):
    calls = []
    real = linalg.smith_normal_form

    def counting(M):
        calls.append(M.data)
        return real(M)

    monkeypatch.setattr(linalg, "smith_normal_form", counting)
    # the unit step leaves -2^60 where M is 0, and the check's bound then
    # needs Python ints: the Smith form must see M, not the eliminated array
    M = [[1, 2**30], [2**30, 0]]
    assert invariant_factors(M) == (1, 2**60)
    assert calls == [tuple(map(tuple, M))]


def corrupt_transform(monkeypatch, change):
    """Make the elimination core return its column transform V after
    change(V, r), with r the number of nonzero diagonal entries."""
    real = linalg._eliminate

    def wrong(M, dtype, transforms):
        A, U, V = real(M, dtype, transforms)
        if V is not None:
            change(V, np.count_nonzero(A.diagonal()))
        return A, U, V

    monkeypatch.setattr(linalg, "_eliminate", wrong)


def double_kernel_column(V, r):
    V[:, r] *= 2


def add_row_space_column_to_kernel(V, r):
    V[:, r] += V[:, 0]


def add_unit_column_to_last_factor(V, r):
    # column r - 1 carries the factor 2 and column 0 the factor 1
    V[:, r - 1] += V[:, 0]


# [[1, 2, 1], [2, 6, 2]] has invariant factors (1, 2) and kernel (1, 0, -1)
FACTOR_TWO = [[1, 2, 1], [2, 6, 2]]
# the reduced cocycle constraints of ab4: 66 x 16, twelve factors 1
AB4_CONSTRAINTS = reduced_cocycle_constraints(from_tables(AB4_ALPHA, AB4_BETA))
PRIMITIVE = "invariant factors differ"
DIVISIBILITY = "divisibility check"


@pytest.mark.parametrize("M, change, modulus, message", [
    (FACTOR_TWO, double_kernel_column, None, PRIMITIVE),
    (FACTOR_TWO, double_kernel_column, 2, PRIMITIVE),
    (AB4_CONSTRAINTS, double_kernel_column, None, PRIMITIVE),
    (AB4_CONSTRAINTS, double_kernel_column, 2, PRIMITIVE),
    (FACTOR_TWO, add_row_space_column_to_kernel, None, DIVISIBILITY),
    (FACTOR_TWO, add_row_space_column_to_kernel, 2, DIVISIBILITY),
    (AB4_CONSTRAINTS, add_row_space_column_to_kernel, None, DIVISIBILITY),
    (AB4_CONSTRAINTS, add_row_space_column_to_kernel, 2, DIVISIBILITY),
    (FACTOR_TWO, add_unit_column_to_last_factor, 2, DIVISIBILITY),
])
def test_kernel_certificate_fires(monkeypatch, M, change, modulus, message):
    assert kernel_lattice(M, modulus) == snf_kernel_lattice(smith_normal_form(M), modulus)
    corrupt_transform(monkeypatch, change)
    with pytest.raises(AssertionError, match=message):
        kernel_lattice(M, modulus)


def test_kernel_certificate_checks_the_factors(monkeypatch):
    # (a): a rank read one too low would put a row-space column in the basis
    corrupt_core(monkeypatch, drop_last_factor)
    for modulus in (None, 2):
        with pytest.raises(AssertionError, match=PRIMITIVE):
            kernel_lattice(FACTOR_TWO, modulus)


@pytest.mark.parametrize("M, change", [
    ([[1, 0], [0, 1]], drop_last_factor),
    ([[1, 1], [1, 1]], add_unit_factor),
])
def test_kernel_certificate_checks_the_unit_factors(monkeypatch, M, change):
    # (a) on unit factors, which invariant_factors never sends to the core
    corrupt_core(monkeypatch, change)
    for modulus in (None, 2):
        with pytest.raises(AssertionError, match=PRIMITIVE):
            kernel_lattice(M, modulus)


def test_rank_deficient_matrix():
    M = IntegerMatrix([[1, 2, 3], [2, 4, 6], [3, 6, 9]])
    snf = smith_normal_form(M)
    assert len(snf.invariant_factors) == 1
    assert_valid_decomposition(M, snf)


def test_kernel_basis_annihilates():
    M = IntegerMatrix([[1, 2, 3], [2, 4, 6]])
    K = kernel_lattice(M)
    assert K.cols == 2
    assert (M @ K).is_zero()
    # the kernel is saturated: [1, 1, 0] is not a multiple of a member
    assert smith_normal_form(K).invariant_factors == (1, 1)
    # full column rank leaves nothing in the kernel
    assert kernel_lattice([[1, 0], [0, 1], [1, 1]]).cols == 0


def test_solve_and_span():
    M = IntegerMatrix([[2, 0], [0, 3]])
    x = solve(M, [4, 9])
    assert x is not None
    assert [sum(M.data[i][j] * x[j] for j in range(2)) for i in range(2)] == [4, 9]
    assert solve(M, [1, 0]) is None
    assert solve(M, [0, 2]) is None
    assert column_span_contains(M, [4, 9])
    assert not column_span_contains(M, [1, 0])
    with pytest.raises(ValueError):
        solve(M, [1, 2, 3])


def test_solve_underdetermined():
    M = IntegerMatrix([[1, 1, 1]])
    x = solve(M, [5])
    assert x is not None and sum(x) == 5
    assert solve([[2, 4]], [3]) is None


def test_quotient_invariants():
    basis = IntegerMatrix.identity(2)
    gens = IntegerMatrix([[2, 0], [0, 3]])
    assert quotient_invariants(basis, gens) == (0, [6])
    assert quotient_invariants(basis, IntegerMatrix([[2], [0]])) == (1, [2])
    assert quotient_invariants(basis, zeros(2, 0)) == (2, [])
    # unimodular generators give a trivial quotient
    assert quotient_invariants(basis, IntegerMatrix([[1, 0], [1, 1]])) == (0, [])


def test_quotient_invariants_rejects_bad_input():
    dependent = IntegerMatrix([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        quotient_invariants(dependent, zeros(2, 0))
    basis = IntegerMatrix([[2], [0]])
    outside = IntegerMatrix([[1], [0]])
    with pytest.raises(ValueError):
        quotient_invariants(basis, outside)


def _det2(M):
    return M.data[0][0] * M.data[1][1] - M.data[0][1] * M.data[1][0]


def test_kernel_lattice_mod():
    M = IntegerMatrix([[2]])
    L = kernel_lattice(M, 4)
    assert L.rows == 1 and L.cols == 1
    # {x : 2x = 0 mod 4} is exactly 2Z
    assert abs(L.data[0][0]) == 2

    M = IntegerMatrix([[1, 1]])
    L = kernel_lattice(M, 2)
    for col in L.columns():
        assert sum(col) % 2 == 0
    # index of the lattice in Z^2 is exactly the modulus here
    assert abs(_det2(L)) == 2
    # modulus * e_i always lies in the lattice
    for i in range(2):
        target = [0, 0]
        target[i] = 2
        assert column_span_contains(L, target)
    for modulus in (0, -2):
        with pytest.raises(InputError, match="modulus must be positive"):
            kernel_lattice(M, modulus)


def test_kernel_lattice_mod_members_verify():
    rng = random.Random(5)
    for _ in range(10):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        modulus = rng.choice([2, 3, 4, 6])
        M = IntegerMatrix(
            [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        )
        L = kernel_lattice(M, modulus)
        for col in L.columns():
            image = [sum(M.data[i][j] * col[j] for j in range(cols)) for i in range(rows)]
            assert all(v % modulus == 0 for v in image)


def test_matrix_helpers():
    M = IntegerMatrix([[1, 2], [3, 4], [5, 6]])
    assert M.transpose().data == ((1, 3, 5), (2, 4, 6))
    assert column(M, 1) == [2, 4, 6]
    assert abs(M.array).max() == 6
    assert not M.is_zero()
    with pytest.raises(ValueError):
        IntegerMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntegerMatrix.identity(2) @ zeros(3, 1)


def _ref_transpose(rows, r, c):
    return [[rows[i][j] for i in range(r)] for j in range(c)]


def _ref_product(a, b, m, k, n):
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)] for i in range(m)]


@pytest.mark.parametrize("a, shape_a, b, shape_b", [
    ([[1, -2], [3, 4]], (2, 2), [[5, 0], [-7, 8]], (2, 2)),
    # every |entry| below 2^62 stays int64; 2^62 and 2^63 need Python ints
    ([[2**62 - 1, 0], [0, -(2**62 - 1)]], (2, 2), [[2**62, 1], [0, -(2**63)]], (2, 2)),
    # int64 operands whose int64 product would overflow: 4 * 2^80
    ([[2**40] * 4], (1, 4), [[2**40]] * 4, (4, 1)),
    ([[2**70, -1]], (1, 2), [[1, 2], [3, 4]], (2, 2)),
    # Python-int operands, small product: back to int64
    ([[2**70, 1]], (1, 2), [[0], [5]], (2, 1)),
    ([], (0, 1), [[1, 2**62, 3]], (1, 3)),
    ([[], [], []], (3, 0), [], (0, 2)),
], ids=["small", "int64-limit", "int64-overflow", "huge", "huge-small-product",
        "0x1", "3x0"])
def test_exact_across_the_int64_boundary(a, shape_a, b, shape_b):
    def dtype(rows):
        return object if any(abs(v) >= 2**62 for row in rows for v in row) else np.int64

    (m, k), (_, n) = shape_a, shape_b
    A, B = IntegerMatrix(a, m, k), IntegerMatrix(b, k, n)
    for M, rows, (r, c) in ((A, a, shape_a), (B, b, shape_b)):
        assert M.array.dtype == dtype(rows)
        assert (M.rows, M.cols) == (r, c)
        assert M.data == tuple(map(tuple, rows))
        columns = _ref_transpose(rows, r, c)
        assert M.columns() == columns
        assert [column(M, j) for j in range(c)] == columns
        read = [v for row in M.data for v in row] + [v for col in M.columns() for v in col]
        read += [v for j in range(c) for v in column(M, j)]
        assert all(type(v) is int for v in read)
        T = M.transpose()
        assert (T.rows, T.cols) == (c, r)
        assert T.data == tuple(map(tuple, columns))
        assert T.array.dtype == M.array.dtype
        assert T.transpose() == M
        assert from_columns(columns, r) == M
        assert M.is_zero() == (not any(v for row in rows for v in row))
        if r and c:
            bumped = [list(row) for row in rows]
            bumped[0][0] += 2**62
            assert IntegerMatrix(bumped) != M
            assert M != IntegerMatrix(bumped) @ IntegerMatrix.identity(c)
    P = A @ B
    expected = _ref_product(a, b, m, k, n)
    assert (P.rows, P.cols) == (m, n)
    assert P.array.dtype == dtype(expected)
    assert P.data == tuple(map(tuple, expected))
    assert all(type(v) is int for row in P.data for v in row)
    assert P == IntegerMatrix(expected, m, n)
    assert P.transpose() == B.transpose() @ A.transpose()
