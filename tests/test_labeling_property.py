"""The tile contraction against the labeling oracles on random virtual diagrams.

A signed Gauss code in which every crossing label occurs once as O and once
as U, with one sign, is a valid virtual diagram, so codes drawn freely with
1-4 crossings on 1-2 components cover classical and virtual links alike.
The biracks are every valid tsr_birack with n <= 4 and ab4, weighted by one
of their reduced 2-cocycles when any exists.
"""

from functools import cache
from itertools import product

import pytest

from biracks import (
    cocycle_invariant,
    counting_invariant,
    framed_invariants,
    from_tables,
    parse_gauss,
    reduced_2_cocycles,
    tsr_birack,
)
from biracks.errors import BirackError
from conftest import AB4_ALPHA, AB4_BETA
from labeling_oracles import brute_force_labelings, search_reference, summary, tile

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _biracks():
    out = [from_tables(AB4_ALPHA, AB4_BETA)]
    for n in range(1, 5):
        for t, s, r in product(range(n), repeat=3):
            try:
                out.append(tsr_birack(n, t, s, r))
            except BirackError:
                pass
    return out


BIRACKS = _biracks()


@cache
def _cocycles(index):
    return reduced_2_cocycles(BIRACKS[index])


@st.composite
def gauss_codes(draw):
    crossings = draw(st.integers(1, 4))
    passes = draw(st.permutations(
        [(kind, label) for label in range(1, crossings + 1) for kind in "OU"]))
    signs = draw(st.lists(st.sampled_from("+-"), min_size=crossings,
                          max_size=crossings))
    # one component, or two cut at a drawn pass
    cut = (draw(st.integers(1, len(passes) - 1)) if draw(st.booleans())
           else len(passes))
    components = [passes[:cut], passes[cut:]]
    return "\n".join(
        "".join(f"{kind}{label}{signs[label - 1]}" for kind, label in tokens)
        for tokens in components if tokens)


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None,
                     database=None)
@hypothesis.given(code=gauss_codes(), index=st.integers(0, len(BIRACKS) - 1),
                  data=st.data())
def test_contraction_matches_search_on_random_diagrams(code, index, data):
    d, b = parse_gauss(code), BIRACKS[index]
    cocycles = _cocycles(index)
    if cocycles:
        phi = data.draw(st.sampled_from(cocycles))
        result = cocycle_invariant(d, b, phi)
    else:
        phi, result = None, counting_invariant(d, b)
    assert summary(result) == search_reference(d, b, phi, tile(d, b))
    if d.semiarc_count <= 6:
        base = framed_invariants(d, b).per_framing[0][1]
        assert base == len(brute_force_labelings(d, b))
