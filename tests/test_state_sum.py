"""The tile contraction against a labeling search, and its size guard.

`search_reference` (in labeling_oracles) is the tile loop the contraction
replaced: it rebuilds each framing's diagram with add_positive_kink, lists
its labelings, and sums their Boltzmann weights one by one.
"""

import contextlib
import io
import json
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from biracks import (
    available_diagrams,
    cocycle_invariant,
    counting_invariant,
    format_birack,
    framed_invariants,
    from_crossings,
    load_cochain,
    load_diagram,
    render_crossing_list,
    tsr_birack,
)
from biracks import cli, invariants
from biracks.errors import NotReducedCocycle, ResourceLimitExceeded
from biracks.homology import Cochain2
from labeling_oracles import (
    brute_force_labelings,
    enumerate_labelings,
    search_reference,
    summary,
    tile,
    with_kinks,
)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "tools"))
from build_data import braid_closure  # noqa: E402

TILE_N10 = json.loads((HERE / "tile_n10_search.json").read_text())


def test_small_diagrams_match_brute_force(ab4, tsr3, dih3, one_element, phi4,
                                          kinked_unknot):
    """Acceptance 11's diagrams: brute force at the base framing, and the
    search (which acceptance 11 checks against brute force) over the tile."""
    small = [load_diagram(name) for name in available_diagrams()
             if load_diagram(name).semiarc_count <= 6]
    for d in small + [kinked_unknot]:
        base = [(0,) * d.component_count]
        for b, phi in ((ab4, phi4), (tsr3, None), (dih3, None), (one_element, None)):
            want = search_reference(d, b, phi, base, brute_force_labelings)
            assert summary(framed_invariants(d, b, phi)) == want
        assert (summary(cocycle_invariant(d, ab4, phi4))
                == search_reference(d, ab4, phi4, tile(d, ab4)))
        for b in (tsr3, dih3, one_element):
            assert summary(counting_invariant(d, b)) == search_reference(
                d, b, None, tile(d, b), brute_force_labelings)


@pytest.mark.parametrize("name", ["ab4", "ab5"])
def test_bundled_diagrams_match_search(name, ab4, ab5):
    b = {"ab4": ab4, "ab5": ab5}[name]
    phi = load_cochain(f"{name}_phi", b.size)
    for diagram in available_diagrams():
        d = load_diagram(diagram)
        want = search_reference(d, b, phi, tile(d, b))
        assert summary(cocycle_invariant(d, b, phi)) == want, diagram


def test_large_characteristic_tiles_match_recorded_search():
    """tsr_birack(11, 1, 0, 2) has N = 10; the recorded values came from the
    search loop above, over all 10^c framings of each tile."""
    b = tsr_birack(*TILE_N10["birack"])
    phi = Cochain2.from_pairs(b.size, TILE_N10["phi"])
    for key, want in TILE_N10["results"].items():
        kind, name = key.split()
        d = load_diagram(name)
        result = (counting_invariant(d, b) if kind == "counting"
                  else cocycle_invariant(d, b, phi))
        assert result.to_json_dict() == want, key
    # a live search on single framings of the same tiles
    for name, kinks in (("l2a1", (3, 7)), ("k4_1", (9,)), ("l4a1", (0, 5))):
        d = load_diagram(name)
        framing = tuple(f + k for f, k in zip(d.framing, kinks))
        assert (summary(framed_invariants(d, b, phi, framing))
                == search_reference(d, b, phi, [kinks]))


def test_tile_contraction_builds_no_dense_intermediate():
    """The cocycle invariants of l2a1 and l6a4 over their tiles of
    tsr_birack(11, 1, 0, 2) in entry lists: a crossing's 11^4 cells in
    int64 are 0.1 MB per weight, dense intermediates of l2a1 peaked at
    2.4 MB, and l6a4 plans an 11^6 intermediate that holds 1331 entries."""
    b = tsr_birack(*TILE_N10["birack"])
    phi = Cochain2.from_pairs(b.size, TILE_N10["phi"])
    for name in ("l2a1", "l6a4"):
        d = load_diagram(name)
        tracemalloc.start()
        try:
            cocycle_invariant(d, b, phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, name


WIDE_TILES = ("l6a4", "l6n1", "l7a3")


def test_every_bundled_tile_of_the_n10_birack_finishes():
    """Every bundled counting and cocycle tile on tsr_birack(11, 1, 0, 2)
    returns.  The plans of WIDE_TILES meet an 11^6 dense shape, but none of
    their joins makes more than 2420 entries.  The cocycle counts each
    labeling once with its weight, so its per-framing counts are the
    counting ones."""
    b = tsr_birack(*TILE_N10["birack"])
    phi = Cochain2.from_pairs(b.size, TILE_N10["phi"])
    for name in available_diagrams():
        d = load_diagram(name)
        counts, weighted = counting_invariant(d, b), cocycle_invariant(d, b, phi)
        assert weighted.per_framing == counts.per_framing, name
        assert sum(m for _, m in weighted.multiset) == counts.phi_z, name


@pytest.mark.parametrize("name", WIDE_TILES)
def test_wide_tiles_match_search_at_the_base_framing(name):
    b = tsr_birack(*TILE_N10["birack"])
    phi = Cochain2.from_pairs(b.size, TILE_N10["phi"])
    d = load_diagram(name)
    assert (summary(framed_invariants(d, b, phi))
            == search_reference(d, b, phi, [(0,) * d.component_count]))


def test_framed_invariants_far_above_the_base(ab4, ab5, phi4, phi5):
    for b, phi in ((ab4, phi4), (ab5, phi5)):
        top = 2 * b.characteristic
        for name in ("l2a1", "unknot", "k3_1", "v2_1"):
            d = load_diagram(name)
            for kinks in product(range(top + 1), repeat=d.component_count):
                framing = tuple(f + k for f, k in zip(d.framing, kinks))
                assert (summary(framed_invariants(d, b, phi, framing))
                        == search_reference(d, b, phi, [kinks])), (name, kinks)


def test_more_semiarcs_than_einsum_indices(ab4, phi4):
    d = with_kinks(load_diagram("l2a1"), (15, 15))
    assert d.semiarc_count > 52
    assert summary(cocycle_invariant(d, ab4, phi4)) == search_reference(
        d, ab4, phi4, tile(d, ab4))


def test_counts_beyond_int64(ab4, ab5):
    # each free loop at framing 0 takes every label: n^loops labelings; 100
    # components are more framing indices than an array has axes
    assert counting_invariant(from_crossings([], range(100)), ab5).phi_z == 5**100
    framed = framed_invariants(from_crossings([], range(40)), ab4)
    assert framed.per_framing == (((0,) * 40, 4**40),)


def test_weights_whose_sums_pass_int64(ab4):
    """Every value fits int64 but the sum of two does not, so the weights
    of a contraction step must become Python ints."""
    phi = Cochain2(tuple(tuple(2**62 + 4 * i + j for j in range(4))
                         for i in range(4)))
    for name in ("l2a1", "k3_1"):
        d = load_diagram(name)
        with pytest.warns(NotReducedCocycle):
            result = cocycle_invariant(d, ab4, phi)
        assert summary(result) == search_reference(d, ab4, phi, tile(d, ab4))


def free_loop_reference(b, phi, kinks):
    """The multiset of weights of a free loop with kinks positive kinks, in
    Python ints: x labels it when pi^r(x) = x, k = qN + r, and weighs q
    orbit sums plus the first r steps of phi(pi(x), x)."""
    q, r = divmod(kinks, b.characteristic)
    weights = {}
    for x in range(1, b.size + 1):
        path = [x]
        for _ in range(b.characteristic):
            path.append(b.pi[path[-1] - 1])
        steps = [phi(y, z) for z, y in zip(path, path[1:])]
        if path[r] == x:
            w = q * sum(steps) + sum(steps[:r])
            weights[w] = weights.get(w, 0) + 1
    return tuple(sorted(weights.items()))


INT64_MAX = 2**63 - 1


def test_kink_tables_at_the_int64_edge(ab4):
    """The kink table is int64 while the orbit count q and q + 1 orbits of
    the largest |phi| stay below 2^63, and Python ints past that.  Both
    biracks have N = 2; pi of tsr(3,1,0,2) fixes an element, which labels
    the loop for an odd number of kinks too."""
    loop = from_crossings([], [0])
    for b in (ab4, tsr_birack(3, 1, 0, 2)):
        period = b.characteristic
        for value in (0, 3, -3):
            phi = Cochain2(((value,) * b.size,) * b.size)
            edge = INT64_MAX // (period * abs(value)) - 1 if value else INT64_MAX
            for q in (edge - 1, edge, edge + 1, edge + 2):
                for r in range(period):
                    kinks = q * period + r
                    result = framed_invariants(loop, b, phi, (kinks,))
                    want = free_loop_reference(b, phi, kinks)
                    assert result.multiset == want, (b, value, q, r)
                    assert result.phi_z == sum(m for _, m in want)


def test_search_is_not_bounded_by_the_recursion_limit(one_element):
    d = from_crossings([], free_loops=range(1200))
    assert enumerate_labelings(d, one_element) == [(1,) * 1200]


def test_contraction_guard_raises_before_building_tensors(ab4, monkeypatch):
    """Every dense shape of the order must fit one int64 code, as the
    contraction ravels coordinates into int64; that is checked on the
    plan, before an entry list is built or closed."""
    def unexpected(*args):
        raise AssertionError("a tensor was built before the guard")

    # 63 free loops over ab4 (N = 2) end in 2^63 framings, one past int64;
    # the tile's own bound is raised so that the plan is checked at all
    loops = from_crossings([], range(63))
    monkeypatch.setattr(invariants, "MAX_CONTRACTION_CELLS", 2**63)
    monkeypatch.setattr(invariants, "_crossing_entries", unexpected)
    monkeypatch.setattr(invariants, "_kink_entries", unexpected)
    monkeypatch.setattr(invariants, "_close", unexpected)
    with pytest.raises(ResourceLimitExceeded) as info:
        counting_invariant(loops, ab4, max_tile=2**63)
    assert (info.value.needed, info.value.limit) == (2**63, 2**63 - 1)
    assert str(info.value).startswith("labeling contraction intermediate 2x2x")
    assert str(info.value).endswith("the fixed bound linalg._INT64_MAX = "
                                    f"{2**63 - 1}")
    # l2a1's crossings are its largest tensors, 4^4 cells each
    monkeypatch.setattr(invariants, "_INT64_MAX", 4**4 - 1)
    with pytest.raises(ResourceLimitExceeded) as info:
        counting_invariant(load_diagram("l2a1"), ab4)
    assert str(info.value) == (
        "labeling contraction intermediate 4x4x4x4 needs 256 cells, above the "
        "fixed bound linalg._INT64_MAX = 255")


def test_contraction_guard_refuses_a_plan_past_int64(monkeypatch, tmp_path):
    """With no bound patched, a plan whose largest dense shape does not fit
    one int64 code is refused before any tensor is built, in the library
    and from the CLI.  The closure of 18 layers of far-commuting letters on
    18 strands has 153 crossings and 9 components, each of base framing 1;
    over tsr_birack(11, 1, 0, 2) its order meets a 22-index tensor."""
    def unexpected(*args):
        raise AssertionError("a tensor was built before the guard")

    word = [i for layer in range(18) for i in range(1 + layer % 2, 18, 2)]
    d, b = braid_closure(word, 18), tsr_birack(11, 1, 0, 2)
    assert (len(d.crossings), d.framing) == (153, (1,) * 9)
    monkeypatch.setattr(invariants, "_crossing_entries", unexpected)
    monkeypatch.setattr(invariants, "_kink_entries", unexpected)
    monkeypatch.setattr(invariants, "_close", unexpected)
    with pytest.raises(ResourceLimitExceeded) as info:
        framed_invariants(d, b)
    assert (info.value.needed, info.value.limit) == (11**22, 2**63 - 1)
    message = ("labeling contraction intermediate " + "x".join(["11"] * 22)
               + f" needs {11**22} cells, above the fixed bound "
               f"linalg._INT64_MAX = {2**63 - 1}")
    assert str(info.value) == message
    birack, diagram = tmp_path / "tsr.txt", tmp_path / "brick.txt"
    birack.write_text(format_birack(b))
    diagram.write_text(render_crossing_list(d))
    assert run_cli(["invariant", str(birack), str(diagram), "--framed=" + ",".join("1" * 9)]) == (
        1, "", f"error: {message}\n")


def test_a_tile_too_large_to_tabulate_is_refused(ab4, monkeypatch):
    """62 free loops over ab4 (N = 2) hold one entry per join, but each of
    their 2^62 framings takes a cell of the per-framing table, so the tile
    is refused at MAX_CONTRACTION_CELLS before any tensor is built, however
    large the budget."""
    def unexpected(*args):
        raise AssertionError("a tensor was built before the guard")

    loops = from_crossings([], range(62))
    monkeypatch.setattr(invariants, "_crossing_entries", unexpected)
    monkeypatch.setattr(invariants, "_kink_entries", unexpected)
    with pytest.raises(ResourceLimitExceeded) as info:
        counting_invariant(loops, ab4, max_tile=2**62)
    assert str(info.value) == (
        f"framing tile of 2^62 vectors needs {2**62} cells, above the fixed "
        f"bound invariants.MAX_CONTRACTION_CELLS = {2**24}")
    # the bound admits a tile of exactly its size: two loops, 4 framings,
    # whose joins hold at most 4 entries
    monkeypatch.undo()
    two = from_crossings([], range(2))
    want = counting_invariant(two, ab4)
    monkeypatch.setattr(invariants, "MAX_CONTRACTION_CELLS", 4)
    assert counting_invariant(two, ab4) == want
    monkeypatch.setattr(invariants, "MAX_CONTRACTION_CELLS", 3)
    with pytest.raises(ResourceLimitExceeded, match="^framing tile of 2.2 vectors needs 4 "):
        cocycle_invariant(two, ab4, Cochain2(((0,) * 4,) * 4))


def test_a_tile_too_large_to_tabulate_exits_1_from_the_cli(tmp_path):
    path = tmp_path / "loops.txt"
    path.write_text("".join(f"L {i}\n" for i in range(62)))
    assert run_cli(["invariant", "ab4", str(path), "--max-tile", str(2**62)]) == (
        1, "", f"error: framing tile of 2^62 vectors needs {2**62} cells, above the "
        f"fixed bound invariants.MAX_CONTRACTION_CELLS = {2**24}\n")


def test_contraction_guard_refuses_a_join_before_allocating_it(ab4, phi4, monkeypatch):
    """The guard counts the entries a join makes, whatever their weights,
    before they are allocated: l6a5's cocycle tile on ab4 joins 16, 16, 16,
    32 and then 64 entries."""
    joins, merges = [], []
    repeat, merged = np.repeat, invariants._merged

    def in_join():
        return sys._getframe(2).f_code.co_name == "_contract_pair"

    def spy_repeat(*args):
        out = repeat(*args)
        if in_join():
            joins.append(len(out))
        return out

    def spy_merged(*args):
        if in_join():
            merges.append(len(args[1]))
        return merged(*args)

    d = load_diagram("l6a5")
    want = cocycle_invariant(d, ab4, phi4)
    monkeypatch.setattr(np, "repeat", spy_repeat)
    monkeypatch.setattr(invariants, "_merged", spy_merged)
    monkeypatch.setattr(invariants, "MAX_CONTRACTION_CELLS", 64)
    assert cocycle_invariant(d, ab4, phi4) == want
    assert merges == [16, 16, 16, 32, 64, 24, 24, 8]
    joins.clear()
    merges.clear()
    monkeypatch.setattr(invariants, "MAX_CONTRACTION_CELLS", 63)
    with pytest.raises(ResourceLimitExceeded) as info:
        cocycle_invariant(d, ab4, phi4)
    assert (info.value.needed, info.value.limit) == (64, 63)
    assert "labeling contraction join into " in str(info.value)
    assert merges == [16, 16, 16, 32]
    assert joins == [n for n in merges for _ in range(2)]


def test_contraction_guard_exits_1_from_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(invariants, "MAX_CONTRACTION_CELLS", 15)
    assert cli.main(["invariant", "ab4", "l2a1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # no option raises this bound, so the refusal names it and gives no advice
    assert captured.err == (
        "error: labeling contraction join into 4x4x4x4 needs 16 cells, above "
        "the fixed bound invariants.MAX_CONTRACTION_CELLS = 15\n")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("name", ["ab4", "ab5"])
def test_invariant_cli_output_is_unchanged(name, mode):
    """`birack invariant` prints exactly its recorded output on every
    bundled diagram."""
    recorded = json.loads((HERE / "invariant_cli_output.json").read_text())
    extra = ["--json"] if mode == "json" else []
    for diagram in available_diagrams():
        argv = ["invariant", name, diagram, "--phi", f"{name}_phi"] + extra
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        assert out.encode() == recorded[" ".join(argv)].encode(), argv
