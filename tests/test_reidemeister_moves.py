"""The tile invariants do not change under R1 and R2 on signed Gauss codes.

A Gauss code leaves virtual crossings implicit, so any two semiarcs, of one
component or of two, can be brought together and made to cross twice
(Kauffman, "Virtual knot theory", 1999).  R2 inserts the over passes of two
new crossings of opposite signs at one gap of the code and their under
passes at another, in the same order for parallel strands and reversed for
antiparallel ones; the gaps may coincide.  R1 inserts a curl, an over and an
under pass of one new crossing side by side, of either sign and in either
order; it shifts a framing, which the tile absorbs.  The codes, biracks and
cocycles are those of test_labeling_property.
"""

import re

import pytest

from biracks import cocycle_invariant, counting_invariant, parse_gauss
from test_labeling_property import BIRACKS, _cocycles, gauss_codes

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _components(code):
    return [re.findall(r"([OU])(\d+)([+-])", line) for line in code.splitlines()]


def _code(components):
    return "\n".join("".join(f"{k}{label}{s}" for k, label, s in c) for c in components)


@st.composite
def moved(draw, code):
    """The code after one R1 or R2 move at drawn gaps."""
    components = _components(code)
    gaps = [(i, j) for i, c in enumerate(components) for j in range(len(c))]
    label = max(int(t[1]) for c in components for t in c) + 1
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
    # insert at the later gaps first, so the earlier ones stay where they were
    for (i, j), tokens in sorted(blocks, key=lambda block: block[0], reverse=True):
        components[i][j:j] = tokens
    return _code(components)


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
