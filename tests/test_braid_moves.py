"""The tile invariants do not change under the moves of Markov's theorem.

Closures of braid words come from braid_closure in tools/build_data.py, the
construction behind the bundled links, imported rather than copied.  A word
of at most 5 letters on 2-3 strands is compared with its images under
σᵢσᵢ⁻¹ insertion (R2), rotation and conjugation, the braid relation (R3),
far commutation on 4 strands, and ± stabilization onto a new strand, whose
framing change the tile absorbs.  The biracks are ab4, ab5 and every valid
tsr_birack with n <= 4, weighted by one of their nonzero reduced 2-cocycles
when any exists.
"""

import sys
from functools import cache
from pathlib import Path

import pytest

from biracks import cocycle_invariant, counting_invariant, from_tables, reduced_2_cocycles
from conftest import AB5_ALPHA, AB5_BETA
from test_labeling_property import BIRACKS as AB4_AND_TSR

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from build_data import braid_closure  # noqa: E402

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

BIRACKS = [*AB4_AND_TSR, from_tables(AB5_ALPHA, AB5_BETA)]


@cache
def _cocycles(index):
    return reduced_2_cocycles(BIRACKS[index])


def _invariant(braid, b, phi):
    d = braid_closure(*braid)
    result = counting_invariant(d, b) if phi is None else cocycle_invariant(d, b, phi)
    return result.phi_z, result.poly


@st.composite
def braids(draw):
    strands = draw(st.integers(2, 3))
    letter = st.integers(1, strands - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    return draw(st.lists(letter, max_size=5)), strands


@st.composite
def moves(draw, braid):
    """Pairs of braids with isotopic closures: each move applied at a drawn
    place, to the drawn braid or, for R3 and far commutation, to both sides."""
    word, strands = braid
    at = draw(st.integers(0, len(word)))
    i = draw(st.integers(1, strands - 1))
    e, f = draw(st.sampled_from((1, -1))), draw(st.sampled_from((1, -1)))
    head, tail = word[:at], word[at:]
    pairs = [
        (braid, (head + [e * i, -e * i] + tail, strands)),
        (braid, (tail + head, strands)),
        (braid, ([e * i] + word + [-e * i], strands)),
        ((head + [e, 3 * f] + tail, 4), (head + [3 * f, e] + tail, 4)),
        (braid, (word + [e * strands], strands + 1)),
    ]
    if strands == 3:
        pairs.append(((head + [e, 2 * e, e] + tail, 3),
                      (head + [2 * e, e, 2 * e] + tail, 3)))
    return pairs


@hypothesis.settings(derandomize=True, max_examples=60, deadline=None,
                     database=None)
@hypothesis.given(braid=braids(), index=st.integers(0, len(BIRACKS) - 1),
                  data=st.data())
def test_tile_invariants_survive_markov_moves(braid, index, data):
    b, cocycles = BIRACKS[index], _cocycles(index)
    phi = data.draw(st.sampled_from(cocycles)) if cocycles else None
    for left, right in data.draw(moves(braid)):
        assert _invariant(left, b, phi) == _invariant(right, b, phi), (left, right)
