"""The tile invariants do not change under R1, R2 and R3 on signed Gauss codes.

A Gauss code leaves virtual crossings implicit, so any two semiarcs, of one
component or of two, can be brought together and made to cross twice
(Kauffman, "Virtual knot theory", 1999).  R2 inserts the over passes of two
new crossings of opposite signs at one gap of the code and their under
passes at another, in the same order for parallel strands and reversed for
antiparallel ones; the gaps may coincide.  R1 inserts a curl, an over and an
under pass of one new crossing side by side, of either sign and in either
order; it shifts a framing, which the tile absorbs.  R3 carries three
strands, at three gaps that may coincide, through the crossings of
σ₁σ₂σ₁ or of σ₂σ₁σ₂, both positive or both negative, with the over and
under passes and signs that braid_closure in tools/build_data.py gives
those words; the two codes must agree.  The codes are those of
test_labeling_property.  R1 and R2 use its biracks and cocycles; R3 uses
ab4, ab5 and tsr_birack(4, 1, 2, 3), each with one of its nonzero reduced
2-cocycles.
"""

import re
from functools import cache

import pytest

from biracks import (
    cocycle_invariant,
    counting_invariant,
    from_tables,
    parse_gauss,
    reduced_2_cocycles,
    tsr_birack,
)
from conftest import AB4_ALPHA, AB4_BETA, AB5_ALPHA, AB5_BETA
from test_labeling_property import BIRACKS, _cocycles, gauss_codes

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _components(code):
    return [re.findall(r"([OU])(\d+)([+-])", line) for line in code.splitlines()]


def _code(components):
    return "\n".join("".join(f"{k}{label}{s}" for k, label, s in c) for c in components)


def _insert(components, blocks):
    """The code with each (gap, tokens) block inserted; blocks at one gap
    end up in reverse order."""
    components = [list(c) for c in components]
    # insert at the later gaps first, so the earlier ones stay where they were
    for (i, j), tokens in sorted(blocks, key=lambda block: block[0], reverse=True):
        components[i][j:j] = tokens
    return _code(components)


def _gaps_and_label(components):
    gaps = [(i, j) for i, c in enumerate(components) for j in range(len(c))]
    return gaps, max(int(t[1]) for c in components for t in c) + 1


@st.composite
def moved(draw, code):
    """The code after one R1 or R2 move at drawn gaps."""
    components = _components(code)
    gaps, label = _gaps_and_label(components)
    sign, other = draw(st.sampled_from((("+", "-"), ("-", "+"))))
    if draw(st.booleans()):  # R1
        curl = [("O", str(label), sign), ("U", str(label), sign)]
        blocks = [(draw(st.sampled_from(gaps)), draw(st.permutations(curl)))]
    else:  # R2
        a, b = str(label), str(label + 1)
        over = [("O", a, sign), ("O", b, other)]
        under = [("U", a, sign), ("U", b, other)]
        if draw(st.booleans()):
            under.reverse()
        blocks = [(draw(st.sampled_from(gaps)), over), (draw(st.sampled_from(gaps)), under)]
        if draw(st.booleans()):
            blocks.reverse()  # which block comes first when the gaps coincide
    return _insert(components, blocks)


def _invariant(code, b, phi):
    d = parse_gauss(code)
    result = counting_invariant(d, b) if phi is None else cocycle_invariant(d, b, phi)
    return result.phi_z, result.poly


@hypothesis.settings(derandomize=True, max_examples=80, deadline=None,
                     database=None)
@hypothesis.given(code=gauss_codes(), index=st.integers(0, len(BIRACKS) - 1),
                  data=st.data())
def test_tile_invariants_survive_r1_and_r2(code, index, data):
    b, cocycles = BIRACKS[index], _cocycles(index)
    phi = data.draw(st.sampled_from(cocycles)) if cocycles else None
    after = data.draw(moved(code))
    assert _invariant(code, b, phi) == _invariant(after, b, phi), after


R3_BIRACKS = [from_tables(AB4_ALPHA, AB4_BETA), from_tables(AB5_ALPHA, AB5_BETA),
              tsr_birack(4, 1, 2, 3)]


@cache
def _r3_cocycles(index):
    return reduced_2_cocycles(R3_BIRACKS[index])


def _strands(word, label):
    """The passes of the three strands of a braid word on three strands, by
    starting position, as braid_closure draws them: letter +i takes the
    strand at position i over the one at i + 1, letter -i the one at i + 1
    over the one at i, with the letter's sign; the two then swap places.
    Letter k is crossing label + k."""
    at = [0, 1, 2]  # the strand at each position
    passes = [[], [], []]
    for k, letter in enumerate(word):
        i = abs(letter) - 1
        over, under = (at[i], at[i + 1]) if letter > 0 else (at[i + 1], at[i])
        sign = "+" if letter > 0 else "-"
        passes[over].append(("O", str(label + k), sign))
        passes[under].append(("U", str(label + k), sign))
        at[i], at[i + 1] = at[i + 1], at[i]
    return passes


@st.composite
def r3_pair(draw, code):
    """The code with σ₁σ₂σ₁ across three drawn gaps, and with σ₂σ₁σ₂ there."""
    components = _components(code)
    gaps, label = _gaps_and_label(components)
    e = draw(st.sampled_from((1, -1)))
    places = [draw(st.sampled_from(gaps)) for _ in range(3)]
    order = draw(st.permutations(range(3)))  # which strand comes first at one gap
    return [_insert(components, [(places[k], _strands(word, label)[k]) for k in order])
            for word in ([e, 2 * e, e], [2 * e, e, 2 * e])]


@hypothesis.settings(derandomize=True, max_examples=60, deadline=None,
                     database=None)
@hypothesis.given(code=gauss_codes(), index=st.integers(0, len(R3_BIRACKS) - 1),
                  data=st.data())
def test_tile_invariants_survive_r3(code, index, data):
    b = R3_BIRACKS[index]
    phi = data.draw(st.sampled_from(_r3_cocycles(index)))
    before, after = data.draw(r3_pair(code))
    assert _invariant(before, b, phi) == _invariant(after, b, phi), (before, after)
