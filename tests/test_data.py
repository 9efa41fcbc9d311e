"""The bundled data files: names, integrity, and agreement with the fixtures."""

import ast
import sys
from pathlib import Path

import pytest

import biracks
from biracks import (
    available_biracks,
    available_cochains,
    available_diagrams,
    load_birack,
    load_cochain,
    load_diagram,
    render_gauss,
)
from conftest import AB4_ALPHA, AB4_BETA, AB5_ALPHA, AB5_BETA, PHI4_PAIRS, PHI5_PAIRS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import build_data  # noqa: E402

LINK_NAMES = {
    "unknot", "l0a1", "l2a1", "l4a1", "l5a1",
    "l6a1", "l6a2", "l6a3", "l6a4", "l6a5", "l6n1",
    "l7a1", "l7a2", "l7a3", "l7a4", "l7a5", "l7a6", "l7a7",
    "l7n1", "l7n2", "hopf_kink_pair",
}
KNOT_NAMES = {
    "k3_1", "k3_1_variant", "k4_1",
    "v2_1", "v3_1", "v3_2", "v3_3", "v3_4", "v3_5", "v3_6", "v3_7",
    "v4_1", "v4_2", "v4_4", "v4_21",
}


def test_bundled_names():
    assert available_biracks() == ["ab4", "ab5"]
    assert available_cochains() == ["ab4_phi", "ab5_phi"]
    assert set(available_diagrams()) == LINK_NAMES | KNOT_NAMES


def test_bundled_biracks_match_fixtures():
    ab4 = load_birack("ab4")
    assert ab4.alpha == AB4_ALPHA
    assert ab4.beta == AB4_BETA
    ab5 = load_birack("ab5")
    assert ab5.alpha == AB5_ALPHA
    assert ab5.beta == AB5_BETA


def test_bundled_cochains_match_fixtures():
    assert [(x, y) for x, y, _ in load_cochain("ab4_phi", 4).pairs()] == PHI4_PAIRS
    assert [(x, y) for x, y, _ in load_cochain("ab5_phi", 5).pairs()] == PHI5_PAIRS


def test_every_bundled_diagram_loads():
    for name in available_diagrams():
        d = load_diagram(name)
        assert d.component_count >= 1
        assert len(d.framing) == d.component_count


def test_unknown_names_raise():
    with pytest.raises(KeyError):
        load_birack("nosuch")
    with pytest.raises(KeyError):
        load_diagram("nosuch")
    with pytest.raises(KeyError):
        load_cochain("nosuch", 4)


def test_build_script_uses_only_root_names():
    """tools/build_data.py, which writes these files, reaches the package as
    `bk`; every bk.<name> it uses must be exported by the package root."""
    used = {node.attr for node in ast.walk(ast.parse(Path(build_data.__file__).read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "bk"}
    assert used
    assert sorted(name for name in used if not hasattr(biracks, name)) == []


def test_bundled_data_matches_its_generator():
    """Every file the generator writes is on disk as written, and every
    record it builds a diagram from passes its checks."""
    assert build_data.main(check=True) == []


@pytest.mark.parametrize("table, name, record, message", [
    ("EXPECT5", "l2a1", build_data.P([(0, 7)]), "l2a1: ab5 value"),
    ("WORDS", "l7a3", build_data.WORDS["l7a1"], "l7a3: signature repeats"),
    ("WORDS", "l7a1", build_data.WORDS["l7n1"], "l7a1: not a prime reduced alternating"),
    ("WORDS", "l7n1", build_data.WORDS["l7a1"], "l7n1: not a prime reduced non-alternating"),
    # the (2,6) torus link shares l6a2's value, shape and component count
    ("CODES", "l6a2", render_gauss(load_diagram("l6a3")), "l6a2: dihedral 3-coloring count"),
], ids=["wrong_value", "repeated_signature", "not_alternating", "alternating",
        "torus_link_as_l6a2"])
def test_generator_refuses_a_wrong_record(monkeypatch, table, name, record, message):
    monkeypatch.setitem(getattr(build_data, table), name, record)
    with pytest.raises(build_data.BuildError, match=message):
        build_data.main(check=True)
