"""Tests for the benchmark's own code.

    python3 -m pytest bench -q
"""

import json
import random
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from biracks import (  # noqa: E402
    check_axioms,
    counting_invariant,
    homology_group,
    load_birack,
    load_cochain,
    load_diagram,
    tsr_birack,
)

EXPECTED = json.loads((HERE / "expected.json").read_text())


# -- spans --------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    s = [
        ("homology.group", 0.0, 10.0, -1, 0),
        ("linalg.smith_normal_form", 1.0, 4.0, 0, 0),
        ("linalg.matmul", 2.0, 3.0, 1, 0),
        ("linalg.smith_normal_form", 5.0, 9.0, 0, 0),
        ("homology.group", 10.0, 11.0, -1, 1),
    ]
    assert spans.self_times(s) == [3.0, 2.0, 1.0, 4.0, 1.0]
    self_s, calls = spans.group_totals(s)
    assert self_s == {"homology.group": 4.0, "linalg.smith_normal_form": 6.0,
                      "linalg.matmul": 1.0}
    assert calls == {"homology.group": 2, "linalg.smith_normal_form": 2, "linalg.matmul": 1}
    layers = spans.layer_self(self_s)
    assert (layers["homology.self_s"], layers["linalg.self_s"]) == (4.0, 7.0)
    m = spans.pass_metrics(s, defaultdict(int), 11.5)
    assert (m["linalg.smith_normal_form.calls"], m["linalg.matmul.self_s"]) == (2, 1.0)
    # the self times of all spans add up to the time the roots cover
    assert m["trace.unattributed_s"] == 0.5


def test_recorder_catches_internal_calls_and_restores(ab4):
    import biracks
    from biracks import homology, linalg

    originals = (biracks.smith_normal_form, homology.smith_normal_form,
                 linalg.smith_normal_form, linalg.IntegerMatrix.__matmul__)
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        assert biracks.smith_normal_form is homology.smith_normal_form
        assert homology.smith_normal_form is linalg.smith_normal_form
        assert homology.smith_normal_form is not originals[0]
        recorder.active = True
        group = biracks.homology_group(ab4, 2)
        recorder.active = False
    finally:
        recorder.uninstall()
    assert (biracks.smith_normal_form, homology.smith_normal_form,
            linalg.smith_normal_form, linalg.IntegerMatrix.__matmul__) == originals
    assert group.describe() == "Z^2"

    self_s, calls = spans.group_totals(recorder.spans)
    assert calls["homology.group"] == 1
    assert calls["homology.boundary_matrix"] == 2
    # homology_group -> smith_normal_form twice -> two validation products each
    assert calls["linalg.smith_normal_form"] == 2
    assert calls["linalg.matmul"] == 4
    assert calls["trace"] == 4
    assert recorder.counters["homology.boundary_matrix.cells"] == 4 * 16 + 16 * 64
    assert recorder.counters["linalg.smith_normal_form.max_cells"] == 16 * 64
    roots = [s for s in recorder.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["homology.group"]


def test_recorder_is_inert_when_inactive(ab4):
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        homology_group(ab4, 2)
        import biracks
        biracks.homology_group(ab4, 2)
    finally:
        recorder.uninstall()
    assert recorder.spans == []


# -- correctness gate -----------------------------------------------------


def _first_homology_op():
    ops = workloads.homology_deg34(1, None)
    return ops[:1], [ops[0].call()]


def test_gate_passes_on_recorded_expectations():
    ops, results = _first_homology_op()
    assert run.check_results(ops, results, EXPECTED["homology_deg34"], "test") == 0


def test_gate_catches_injected_wrong_expectation(capsys):
    ops, results = _first_homology_op()
    wrong = dict(EXPECTED["homology_deg34"])
    wrong[ops[0].name] = {"free_rank": 4, "torsion": []}
    assert run.check_results(ops, results, wrong, "test") == 1
    assert "FAIL [test] H_3(ab4)" in capsys.readouterr().err


def test_gate_counts_exceptions_and_missing_expectations(capsys):
    ops, results = _first_homology_op()
    assert run.check_results(ops, [ValueError("boom")], EXPECTED["homology_deg34"], "t") == 1
    assert run.check_results(ops, results, {}, "t") == 1
    err = capsys.readouterr().err
    assert "boom" in err and "no expected value" in err


def test_gate_rechecks_label_dependent_cli_output(tmp_path):
    ops = {op.name: op for op in workloads.catalog(3, tmp_path)}
    op = ops["cocycles ab4 --quotient"]
    code, out, err = op.call()
    assert run.check_results([op], [(code, out, err)], EXPECTED["catalog"], "t") == 0
    payload = json.loads(out)
    payload["basis"][0] = [[1, 1, 1]]  # chi(1,1) is not a reduced 2-cocycle of ab4
    with pytest.raises(workloads.Mismatch):
        op.check((code, json.dumps(payload), err))

    op = ops["check ab4"]  # runs on the relabeled ab4
    code, out, err = op.call()
    assert run.check_results([op], [(code, out, err)], EXPECTED["catalog"], "t") == 0
    payload = json.loads(out)
    pi = payload["pi"]
    pi[0], pi[1] = pi[1], pi[0]  # a kink map of the same size, but not this one
    with pytest.raises(workloads.Mismatch):
        op.check((code, json.dumps(payload), err))


# -- seeded relabeling ------------------------------------------------------


@pytest.mark.parametrize("name", ["ab4", "ab5"])
def test_relabeling_keeps_axioms_homology_and_counts(name):
    shipped = load_birack(name)
    perm = workloads.permutation(random.Random(7), shipped.size)
    assert perm != tuple(range(1, shipped.size + 1))
    b = workloads.relabel_birack(shipped, perm)
    assert b.alpha != shipped.alpha or b.beta != shipped.beta
    assert check_axioms(b.alpha, b.beta).ok
    assert b.pi == workloads.relabel_perm(shipped.pi, perm)
    assert homology_group(b, 2) == homology_group(shipped, 2)
    hopf = load_diagram("l2a1")
    assert counting_invariant(hopf, b).per_framing == counting_invariant(hopf, shipped).per_framing
    phi = workloads.relabel_cochain(load_cochain(f"{name}_phi", shipped.size), perm)
    from biracks import cocycle_invariant, is_reduced_2_cocycle
    assert is_reduced_2_cocycle(b, phi)
    assert (cocycle_invariant(hopf, b, phi).poly
            == cocycle_invariant(hopf, shipped, load_cochain(f"{name}_phi", shipped.size)).poly)


def test_relabeled_tile_birack_counts_400_on_hopf():
    b = workloads.relabel_birack(tsr_birack(*workloads.TILE_BIRACK),
                                 workloads.permutation(random.Random(1), 11))
    assert check_axioms(b.alpha, b.beta).ok and b.characteristic == 10
    assert counting_invariant(load_diagram("l2a1"), b).phi_z == 400


def test_census_takes_one_birack_per_class_at_n7():
    entries = workloads.census()
    assert len([key for key, _ in entries if key[0] <= 6]) == 50
    n7 = [(key, b) for key, b in entries if key[0] == 7]
    assert len({(b.characteristic, key[2] == 0) for key, b in n7}) == len(n7) == 5


def test_rank_mod():
    assert workloads.rank_mod([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 2) == 2
    assert workloads.rank_mod([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 3) == 3
    assert workloads.rank_mod([], 2) == 0


# -- recorded expectations against the paper's tables --------------------


def _poly(entry):
    return {e: c for e, c in entry["poly"]}


def test_expected_values_match_the_acceptance_tables():
    cat = EXPECTED["catalog"]

    def inv(b, d):
        return _poly(cat[f"invariant {b} {d} --phi"])

    assert inv("ab4", "l2a1") == {0: 8, 1: 8}
    assert inv("ab4", "l0a1") == {0: 16}
    assert inv("ab4", "l4a1") == {0: 8, 2: 8}
    assert cat["invariant ab4 l2a1 --phi"]["phi_Z"] == 16
    assert inv("ab5", "l2a1") == {0: 7, 1: 6}
    assert inv("ab5", "l4a1") == {0: 19, 2: 6}
    assert inv("ab5", "l5a1") == {0: 25}
    assert inv("ab5", "l6a4") == {0: 125}
    assert inv("ab5", "l6a2") == {0: 7, 3: 6}
    assert inv("ab5", "l6a5") == {0: 29, 1: 36, 2: 18, 3: 6}
    assert inv("ab5", "v2_1") == {0: 2, 1: 3}
    assert inv("ab5", "v3_2") == {-1: 3, 0: 2}
    assert inv("ab5", "k3_1") == inv("ab5", "k4_1") == {0: 5}
    assert cat["check ab4"] == {"size": 4, "ok": True, "characteristic": 2}
    assert cat["cocycles ab4 --quotient"] == {
        "dimension": 4, "quotient": {"free_rank": 1, "torsion": [2]}}
    assert EXPECTED["tile_n10"]["counting l2a1"]["phi_Z"] == 400
    hom = EXPECTED["homology_deg34"]
    assert hom["H_3(ab5)"] == {"free_rank": 22, "torsion": [3, 3]}
    assert set(hom) == {case[0] for case in workloads.HOMOLOGY_CASES}


def test_expected_covers_every_operation(tmp_path):
    for name, setup in workloads.WORKLOADS.items():
        ops = setup(None, tmp_path / name)
        assert {op.name for op in ops} == set(EXPECTED[name])


# -- the command ------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert run.highest_percentile([1.0] * 5) is None
    assert run.highest_percentile([float(i) for i in range(200)]) == (95, 190.0)


def test_compare_refuses_mixed_environments():
    env = {"nproc": 2, "machine": "x86_64", "python": "3.11.7", "numpy": "2.4.6"}

    def record(seed, wall, env):
        return {"workload": "catalog", "seed": seed, "trace": 0, "env": env,
                "metrics": {"wall_s": {"value": wall, "unit": "s"}}}

    before = compare.summarize([record(1, 8.0, env), record(2, 9.0, env), record(3, 10.0, env)])
    assert before["summary"]["catalog"]["wall_s"]["median"] == 9.0
    after = compare.summarize([record(1, 12.0, env), record(2, 12.0, env)])
    rows = compare.compare(before, after, {"wall_s": (0.25, "lower")})
    assert rows == [("catalog", "wall_s", 9.0, 12.0, 12.0 / 9.0 - 1, "worse than bound")]
    other = dict(env, nproc=4)
    with pytest.raises(compare.EnvironmentMismatch):
        compare.summarize([record(1, 8.0, env), record(2, 8.0, other)])
    with pytest.raises(compare.EnvironmentMismatch):
        compare.compare(before, compare.summarize([record(1, 8.0, other)]), {})


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tile_n10", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def ab4():
    return load_birack("ab4")
