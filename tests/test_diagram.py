"""Diagram parsing, rendering, and moves: crossing lists and Gauss codes."""

import pytest

from biracks import (
    Crossing,
    add_positive_kink,
    available_diagrams,
    canonical_relabel,
    from_crossings,
    load_diagram,
    parse_crossing_list,
    parse_gauss,
    render_crossing_list,
    render_gauss,
    reverse_component,
)
from biracks.errors import InputError

HOPF_TEXT = """\
X +1 0 1 2 3
X +1 3 2 1 0
"""


def test_parse_crossing_list_hopf():
    d = parse_crossing_list(HOPF_TEXT)
    assert len(d.crossings) == 2
    assert d.component_count == 2
    assert d.semiarc_count == 4
    assert d.framing == (0, 0)
    assert d.crossings[0] == Crossing(1, 0, 1, 2, 3)
    # each component is a closed walk under successor
    assert d.successors[0] == 1 and d.successors[1] == 0
    assert d.successors[2] == 3 and d.successors[3] == 2


def test_parse_crossing_list_free_loops():
    d = parse_crossing_list("L 0\n")
    assert d.crossings == ()
    assert d.component_count == 1
    assert d.framing == (0,)
    assert d.free_loop_semiarcs == (0,)
    two = parse_crossing_list("L 0\nL 1\n")
    assert two.component_count == 2
    # in id order, whatever order they are declared in
    assert parse_crossing_list("L 1\nL 0\n") == two
    assert two.free_loop_semiarcs == (0, 1)


def test_parse_crossing_list_comments_and_blanks():
    d = parse_crossing_list("# a hopf link\n\n" + HOPF_TEXT)
    assert len(d.crossings) == 2


def test_parse_crossing_list_errors():
    with pytest.raises(InputError, match="semiarc 0 has no out endpoint"):
        parse_crossing_list("X +1 0 1 2 9\n")
    with pytest.raises(InputError, match="semiarc 0 appears more than once as in"):
        parse_crossing_list(HOPF_TEXT + "X +1 0 1 2 3\n")
    with pytest.raises(InputError, match="crossing sign must be .* got 2"):
        parse_crossing_list("X 2 0 1 2 3\n")
    with pytest.raises(InputError, match="crossing sign must be .* got '\\+'"):
        parse_crossing_list("X + 0 1 2 3\n")
    with pytest.raises(ValueError):
        parse_crossing_list("X +1 0 1 2\n")


def test_sign_is_checked_after_every_line_is_read():
    # a sign that is an integer is checked once, by from_crossings, after
    # parsing: a bad token on a later line is reported before it
    text = "X 2 0 1 1 0\nX +1 2 3 3 2\nX +1 4 5 x 4\n"
    with pytest.raises(InputError, match="^line 3: semiarc ids must be integers$"):
        parse_crossing_list(text)


def test_crossing_list_roundtrip():
    for name in ("l2a1", "l4a1", "l6a4", "l7n1", "hopf_kink_pair"):
        d = load_diagram(name)
        assert parse_crossing_list(render_crossing_list(d)) == d


def test_parse_gauss_virtual_trefoil():
    d = parse_gauss("O1+O2+U1+U2+")
    assert d.component_count == 1
    assert d.semiarc_count == 4
    assert len(d.crossings) == 2
    assert all(c.sign == 1 for c in d.crossings)
    # both crossings are self-crossings of the lone component
    assert d.framing == (2,)


def test_parse_gauss_trefoil():
    d = parse_gauss("O1-U2-O3-U1-O2-U3-")
    assert d.semiarc_count == 6
    assert d.framing == (-3,)
    assert all(c.sign == -1 for c in d.crossings)


def test_parse_gauss_single_kink():
    d = parse_gauss("O1+U1+")
    assert d.component_count == 1
    assert len(d.crossings) == 1
    assert d.framing == (1,)


def test_parse_gauss_two_components():
    d = parse_gauss("O1+U2+\nO2+U1+")
    assert d.component_count == 2
    assert d.framing == (0, 0)
    assert len(d.crossings) == 2


def test_parse_gauss_errors():
    with pytest.raises(InputError, match="crossing label 1: has no U pass"):
        parse_gauss("O1+U2+")
    with pytest.raises(InputError, match="crossing label 2: has no O pass"):
        parse_gauss("O1+U1+U2+")
    with pytest.raises(InputError, match="crossing label 1: appears more than once as O"):
        parse_gauss("O1+O1+U1+U1+")
    with pytest.raises(InputError, match="crossing label 1 has different signs"):
        parse_gauss("O1+U1-")


def test_gauss_roundtrip_on_bundled_codes():
    for name in available_diagrams():
        d = load_diagram(name)
        if d.free_loop_semiarcs:
            continue
        assert parse_gauss(render_gauss(d)) == canonical_relabel(d)


def test_render_gauss_rejects_free_loops():
    with pytest.raises(ValueError):
        render_gauss(load_diagram("unknot"))


def test_add_positive_kink():
    u = load_diagram("unknot")
    k = add_positive_kink(u, 0)
    assert k.framing == (1,)
    assert len(k.crossings) == 1
    assert k.crossings[0].sign == 1
    assert add_positive_kink(k, 0).framing == (2,)
    hopf = load_diagram("l2a1")
    assert add_positive_kink(hopf, 0).framing == (1, 0)
    assert add_positive_kink(hopf, 1).framing == (0, 1)
    with pytest.raises(ValueError):
        add_positive_kink(u, 3)


def test_reverse_component():
    d = load_diagram("l2a1")
    rev = reverse_component(d, 0)
    # reversing one component of the positive Hopf link makes both crossings negative
    assert [c.sign for c in rev.crossings] == [-1, -1]
    assert rev.framing == (0, 0)
    assert reverse_component(rev, 0) == d
    with pytest.raises(ValueError):
        reverse_component(d, 5)


def test_reverse_component_keeps_self_writhe():
    d = load_diagram("v2_1")
    rev = reverse_component(d, 0)
    assert rev.framing == d.framing
    assert reverse_component(rev, 0) == d


def test_canonical_relabel_is_idempotent():
    for name in ("l2a1", "k3_1", "l7a7"):
        d = load_diagram(name)
        once = canonical_relabel(d)
        assert canonical_relabel(once) == once
        assert once.component_count == d.component_count


def test_from_crossings_validates():
    with pytest.raises(InputError, match="semiarc 0 has no out endpoint"):
        from_crossings([Crossing(1, 0, 1, 2, 3)])
    d = from_crossings([], free_loops=[0, 1])
    assert d.component_count == 2


def test_component_structure():
    d = load_diagram("l5a1")
    assert d.component_count == 2
    for s in range(d.semiarc_count):
        c = d.semiarc_component[s]
        assert s in d.components[c]
    # successor stays within the component
    for s in range(d.semiarc_count):
        assert d.semiarc_component[d.successors[s]] == d.semiarc_component[s]
