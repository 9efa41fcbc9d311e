"""The tile invariants of a braid closure against the braid's action on X^s.

A birack acts on X^s, s the number of strands, one crossing per letter
(Fenn, Jordan-Santana and Kauffman, "Biquandles and virtual links", 2004),
so the labelings of a closure are the label states that the word, and the
kinks added at the top of one position per component, bring back to
themselves.  All |X|^s start states run through the word at once, summing
the Boltzmann weight of each crossing.  This oracle shares no code with
the invariants module: it reads the tables through the birack's public
fields and tests/maps.py.  The closures come from braid_closure in
tools/build_data.py, with the word read downward as there: every bundled
diagram built from a word, and hypothesis words of up to 8 letters on 2-4
strands.  The biracks are ab5 and tsr_birack(7, 1, 2, 6), of
characteristic 1, ab4 (N = 2) and tsr_birack(11, 1, 0, 2) (N = 10), so a
run takes at most 11^4 start states.
"""

import sys
from collections import Counter
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from biracks import (
    canonical_relabel,
    cocycle_invariant,
    framed_invariants,
    load_birack,
    load_cochain,
    load_diagram,
    reduced_2_cocycles,
    tsr_birack,
)
from maps import inverses

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from build_data import WORDS, braid_closure  # noqa: E402

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# every bundled diagram that tools/build_data.py builds as a closed braid
CLOSURES = {
    "l2a1": [1, 1], "l4a1": [1] * 4, "l6a3": [1] * 6, "l5a1": [1, -2, 1, -2, 1],
    "l6a4": [1, -2] * 3, "l6n1": [1, 2] * 3, **WORDS,
}


@cache
def cases():
    """(birack, cochain): ab4 and ab5 with their bundled cocycles, and two
    tsr biracks, one of characteristic 10, with their first nonzero reduced
    2-cocycle."""
    out = [(load_birack(name), load_cochain(f"{name}_phi", size))
           for name, size in (("ab4", 4), ("ab5", 5))]
    for b in (tsr_birack(7, 1, 2, 6), tsr_birack(11, 1, 0, 2)):
        out.append((b, next(phi for phi in reduced_2_cocycles(b)
                            if any(map(any, phi.values)))))
    return out


def top_components(d, word, strands):
    """The diagram component that holds the top arc of each position: the
    in-arc at that position of the first crossing that meets it, or a free
    loop, which braid_closure lists in position order."""
    free = iter(d.free_loop_semiarcs)
    out = []
    for p in range(strands):
        k = next((k for k, letter in enumerate(word) if p in (abs(letter) - 1, abs(letter))),
                 None)
        if k is None:
            arc = next(free)
        else:
            x, left = d.crossings[k], p == abs(word[k]) - 1
            arc = x.over_in if left == (word[k] > 0) else x.under_in
        out.append(d.semiarc_component[arc])
    return out


def braid_tile(d, word, strands, b, phi):
    """Counter of (framing vector, weight) over the labelings of the tile of
    d = braid_closure(word, strands), from the braid's action on X^s."""
    n, N, c = b.size, b.characteristic, d.component_count
    alpha, beta = np.array(b.alpha) - 1, np.array(b.beta) - 1  # [y, x] = alpha_y(x)
    alpha_inv, beta_inv = np.array(inverses(b.alpha)) - 1, np.array(inverses(b.beta)) - 1
    table = np.array(phi.values)  # [u, o] = phi(u, o)
    start = np.indices((n,) * strands).reshape(strands, -1)
    state, weight = start.copy(), np.zeros(start.shape[1], dtype=np.int64)
    for letter in word:
        i = abs(letter) - 1
        # copies: the views are overwritten below
        left, right = state[i].copy(), state[i + 1].copy()
        if letter > 0:  # the over strand enters at i and leaves at i + 1
            u_out = beta_inv[left, right]
            state[i], state[i + 1] = u_out, alpha[u_out, left]
            weight += table[u_out, left]
        else:  # the over strand enters at i + 1 and leaves at i
            o_out = alpha_inv[left, right]
            state[i], state[i + 1] = o_out, beta[o_out, left]
            weight -= table[left, o_out]
    # k kinks take x to pi^k(x), weighing phi(pi^(t+1) x, pi^t x) for t < k
    pi, powers = np.array(b.pi) - 1, [np.arange(n)]
    for _ in range(N):
        powers.append(pi[powers[-1]])
    powers = np.array(powers)
    kink_weight = np.cumsum(table[powers[1:], powers[:-1]], axis=0)
    kink_weight = np.concatenate(([np.zeros(n, dtype=kink_weight.dtype)], kink_weight))
    # kinks go on one position per component; every other position closes as it is
    owner = top_components(d, word, strands)
    kinked = [owner.index(j) for j in range(c)]
    plain = [p for p in range(strands) if p not in kinked]
    at = np.flatnonzero((state[plain] == start[plain]).all(axis=0))
    code, weight = np.zeros(len(at), dtype=np.int64), weight[at]
    for p in kinked:  # each state meets every kink count that brings it back
        x = state[p, at]
        k, hit = np.nonzero(powers[:N, x] == start[p, at])
        at, code = at[hit], code[hit] * N + k
        weight = weight[hit] + kink_weight[k, x[hit]]
    framings = np.array(np.unravel_index(code, (N,) * c)).T + d.framing
    return Counter(zip(map(tuple, framings.tolist()), weight.tolist()))


def check(word, strands, b, phi):
    """The tile's per-framing counts and weights, and the weights at the
    base framing, equal the braid action's."""
    d = braid_closure(word, strands)
    labelings = braid_tile(d, word, strands, b, phi)
    # four components over tsr_birack(11, 1, 0, 2) pass the default tile budget
    result = cocycle_invariant(d, b, phi, max_tile=b.characteristic**d.component_count)
    per_framing = dict.fromkeys((f for f, _ in result.per_framing), 0)
    weights, base = Counter(), Counter()
    for (f, w), m in labelings.items():
        per_framing[f] += m
        weights[w] += m
        if f == d.framing:
            base[w] += m
    assert dict(result.per_framing) == per_framing
    assert dict(result.multiset) == weights
    assert dict(framed_invariants(d, b, phi).multiset) == base


@pytest.mark.parametrize("name", sorted(CLOSURES))
def test_bundled_closures_match_the_braid_action(name):
    word = CLOSURES[name]
    strands = max(map(abs, word)) + 1
    assert canonical_relabel(braid_closure(word, strands)) == load_diagram(name)
    for b, phi in cases():
        check(word, strands, b, phi)


@st.composite
def braids(draw):
    strands = draw(st.integers(2, 4))
    letter = st.integers(1, strands - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    return draw(st.lists(letter, max_size=8)), strands


@pytest.mark.parametrize("index", range(4))
@hypothesis.settings(derandomize=True, max_examples=100, deadline=None, database=None)
@hypothesis.given(braid=braids())
def test_random_closures_match_the_braid_action(braid, index):
    check(*braid, *cases()[index])
