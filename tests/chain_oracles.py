"""The chain complex tuple by tuple: the reference for the face arithmetic.

The package builds every face of a degree at once, by lookups in the alpha
and beta arrays.  These helpers follow the paper's formula one basis tuple
at a time, with dicts keyed by 1-based tuples: the deleting face, the
twisted face, the boundary of a tuple, the boundary matrix assembled from
those dicts, and the degenerate generators found by walking pi from every
element and dropping repeats.
"""

from itertools import product

from biracks import tuple_basis
from maps import zeros


def partial_prime(k, tup):
    """Deleting face: remove entry k (1-based)."""
    if not 1 <= k <= len(tup):
        raise IndexError(f"face index {k} out of range for length {len(tup)}")
    return tup[: k - 1] + tup[k:]


def partial_dprime(b, k, tup):
    """Twisted face: delete entry k, apply beta_{x_k} before it, alpha_{x_k} after."""
    if not 1 <= k <= len(tup):
        raise IndexError(f"face index {k} out of range for length {len(tup)}")
    xk = tup[k - 1]
    return (tuple(b.beta[xk - 1][v - 1] for v in tup[: k - 1])
            + tuple(b.alpha[xk - 1][v - 1] for v in tup[k:]))


def boundary_of_tuple(b, tup):
    """Sum over k of (-1)^k (prime - dprime), keyed in face order, zeros dropped."""
    tup = tuple(tup)
    terms = {}
    for k in range(1, len(tup) + 1):
        sign = -1 if k % 2 else 1
        t1 = partial_prime(k, tup)
        terms[t1] = terms.get(t1, 0) + sign
        t2 = partial_dprime(b, k, tup)
        terms[t2] = terms.get(t2, 0) - sign
    return {t: c for t, c in terms.items() if c}


def boundary_matrix(b, degree):
    """The boundary matrix, one column per basis tuple, from the dicts above."""
    if degree == 0:
        return zeros(0, 1)
    cols = tuple_basis(b.size, degree)
    row_index = {t: i for i, t in enumerate(tuple_basis(b.size, degree - 1))}
    m = zeros(len(row_index), len(cols))
    for j, tup in enumerate(cols):
        for t, c in boundary_of_tuple(b, tup).items():
            m.array[row_index[t], j] = c
    return m


def degenerate_generators(b, degree):
    """For each slot pair, filling and element x, the sum of (pi^k(x),
    pi^(k-1)(x)) over k = 1..N; a chain equal to one already listed for the
    same slot pair is dropped."""
    if degree < 2:
        return []
    gens = []
    seen = set()
    carrier = range(1, b.size + 1)
    for j in range(1, degree):
        for rest in product(carrier, repeat=degree - 2):
            head, tail = rest[: j - 1], rest[j - 1:]
            for x in carrier:
                terms = {}
                cur = x
                for _k in range(b.characteristic):
                    nxt = b.pi[cur - 1]
                    tup = head + (nxt, cur) + tail
                    terms[tup] = terms.get(tup, 0) + 1
                    cur = nxt
                key = (j, tuple(sorted(terms.items())))
                if key not in seen:
                    seen.add(key)
                    gens.append(terms)
    return gens
