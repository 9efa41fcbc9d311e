"""Command line behaviour: exit codes, text output, and JSON payloads."""

import contextlib
import io
import json
import warnings
from importlib import resources
from itertools import product
from pathlib import Path

import pytest

from biracks import (
    available_biracks,
    available_cochains,
    available_diagrams,
    format_birack,
    framed_invariants,
    load_birack,
    load_cochain,
    load_diagram,
    parse_birack,
    parse_crossing_list,
    render_crossing_list,
    tsr_birack,
)
from biracks import cli
from biracks.cli import main
from biracks.diagram import parse_diagram
from biracks.homology import parse_cochain, reduced_cocycle_constraints
from biracks.errors import BirackError, InputError
from test_algebra import KINK_FAILURES
from test_homology import count_calls
from test_linalg import (
    add_row_space_column_to_kernel,
    bump_multiplier,
    corrupt_core,
    corrupt_split,
    corrupt_transform,
    drop_last_factor,
)

HERE = Path(__file__).resolve().parent
DATA = resources.files("biracks.data")

FAILING_BIRACK = "3\n1 1 1\n2 2 2\n3 3 3\n1 2 3\n2 3 1\n3 1 2\n"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_check_bundled_birack():
    code, out, err = run(["check", "ab4"])
    assert code == 0
    assert "axiom i: pass" in out
    assert "axiom ii: pass" in out
    assert "axiom iii: pass" in out
    assert "pi: (1 4)(2 3)" in out
    assert "N: 2" in out
    assert err == ""


def test_check_birack_from_file(tmp_path, ab5):
    path = tmp_path / "five.txt"
    path.write_text(format_birack(ab5))
    code, out, _ = run(["check", str(path)])
    assert code == 0
    assert "N: 1" in out


def test_check_reports_axiom_failure(tmp_path):
    path = tmp_path / "shear.txt"
    path.write_text(FAILING_BIRACK)
    code, out, _ = run(["check", str(path)])
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("alpha, beta, pi, witnesses, first", KINK_FAILURES,
                         ids=["missing", "not-unique", "not-injective", "mirror"])
def test_check_json_lists_the_axiom_i_witnesses(tmp_path, alpha, beta, pi, witnesses, first):
    n = len(alpha)
    rows = [[table[j][i] for j in range(n)] for table in (alpha, beta) for i in range(n)]
    path = tmp_path / "tables.txt"
    path.write_text(f"{n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows))
    code, out, err = run(["check", str(path), "--json"])
    payload = json.loads(out)
    assert (code, err, payload["ok"]) == (1, "", False)
    assert payload["axioms"]["i"] == {"passed": False,
                                      "witnesses": [list(w) for w in witnesses]}
    assert payload["pi"] == (list(pi) if pi else None)
    code, out, _ = run(["check", str(path)])
    assert "axiom i: FAIL at " + ", ".join(map(str, witnesses)) + "\n" in out


def test_check_rejects_malformed_file(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("4\n1 2\n")
    code, out, err = run(["check", str(path)])
    assert code == 2
    assert err.startswith("error:")


_BUNDLED_DIAGRAMS = (
    "hopf_kink_pair, l0a1, l2a1, l4a1, l5a1, l6a1, l6a2, l6a3, l6a4, l6a5, "
    "l6n1, l7a1, l7a2, l7a3, l7a4, l7a5, l7a6, l7a7, l7n1, l7n2, unknot, "
    "k3_1, k3_1_variant, k4_1, v2_1, v3_1, v3_2, v3_3, v3_4, v3_5, v3_6, "
    "v3_7, v4_1, v4_2, v4_21, v4_4")


@pytest.mark.parametrize("argv, kind, bundled", [
    (["check", "nosuch"], "birack", "ab4, ab5"),
    (["homology", "nosuch"], "birack", "ab4, ab5"),
    (["invariant", "ab4", "nosuch"], "diagram", _BUNDLED_DIAGRAMS),
    (["invariant", "ab4", "l2a1", "--phi", "nosuch"], "cochain", "ab4_phi, ab5_phi"),
], ids=["check", "homology", "invariant-diagram", "invariant-phi"])
def test_unknown_bundled_name(argv, kind, bundled):
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert err == (f"error: 'nosuch' is neither a readable file nor a bundled "
                   f"{kind} (bundled: {bundled})\n")


@pytest.mark.parametrize("text", [
    "X 1 -1 0 0 -1\n",  # would wrap to a one-semiarc diagram
    "X 1 0 1 1 0\nL -1\n",  # would drop the free loop
], ids=["crossing", "free-loop"])
def test_negative_semiarc_id_is_a_usage_error(tmp_path, text):
    with pytest.raises(InputError, match="semiarc id -1 is negative"):
        parse_crossing_list(text)
    path = tmp_path / "negative.txt"
    path.write_text(text)
    code, out, err = run(["invariant", "ab4", str(path)])
    assert code == 2
    assert out == ""
    assert err == "error: semiarc id -1 is negative\n"


_SHEAR_BIRACK = "3\n1 1 1\n2 2 2\n3 3 3\n2 3 1\n3 1 2\n1 2 3\n"  # demo 01's


@pytest.mark.parametrize("argv, name, text, message", [
    (["check"], "columns.txt", "2\n1 2\n1 1\n1 2\n2 1\n",
     "alpha_1 is not a bijection: image [1, 1]"),
    (["homology"], "shear.txt", _SHEAR_BIRACK, "axiom iii fails at (1, 1)"),
    (["homology"], "shear.txt", FAILING_BIRACK, "axiom iii fails at (1, 2)"),
    (["invariant", "ab4"], "dangling.txt", "X +1 0 1 2 9\n",
     "semiarc 0 has no out endpoint"),
    (["invariant", "ab4"], "duplicate.txt", "X +1 0 1 0 1\n",
     "semiarc 0 appears more than once as in"),
    (["invariant", "ab4"], "sign.txt", "X 2 0 1 1 0\n",
     "crossing sign must be +1 or -1, got 2"),
    (["invariant", "ab4"], "sign.txt", "X + 0 1 1 0\n",
     "crossing sign must be +1 or -1, got '+'"),
    (["invariant", "ab4"], "negative.txt", "X 1 -1 0 0 -1\n",
     "semiarc id -1 is negative"),
    (["invariant", "ab4"], "code.gauss", "O1+U2+\n",
     "crossing label 1: has no U pass"),
    (["invariant", "ab4"], "code.gauss", "O1+O1+U1+U1+\n",
     "crossing label 1: appears more than once as O"),
    (["invariant", "ab4"], "code.gauss", "O1+U1-\n",
     "crossing label 1 has different signs on its over and under passes"),
    # the name alone makes these Gauss codes: their first record is not one
    (["invariant", "ab4"], "code.gauss", "X +1 0 1 1 0\n",
     "unrecognized Gauss code text: 'X +1 0 1 1 0'"),
    (["invariant", "ab4"], "code.gauss", "# no code\n", "empty Gauss code"),
], ids=["non-permutation-column", "shear", "shear-2", "dangling", "duplicate",
        "sign-2", "sign-plus", "negative-id", "gauss-unmatched", "gauss-repeated",
        "gauss-sign-mismatch", "gauss-by-name", "gauss-by-name-empty"])
def test_malformed_input_error_text(tmp_path, argv, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    assert run(argv + [str(path)]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, text, message", [
    (["check", "{file}"], b"\xff\xfe\n", "cannot read {file}: …"),
    (["invariant", "ab4", "l2a1", "--framed", "a"], None,
     "--framed expects integers, got 'a'"),
    (["check", "{file}"], "# no tables\n", "empty birack file"),
    (["check", "{file}"], "2\n1 x\n", "birack file has a non-integer token: …"),
    (["check", "{file}"], "0\n", "size must be a positive integer"),
    (["invariant", "ab4", "{file}"], "L 0\nL 0\n", "semiarc 0 appears more than once as in"),
    (["invariant", "ab4", "{file}"], "X +1 0 1 1 1\n",
     "semiarc 1 appears more than once as out"),
    (["invariant", "ab4", "{file}"], "# no records\n",
     "diagram has no semiarcs; declare at least a free loop"),
    (["invariant", "ab4", "{file}"], "L 1\n", "semiarc 0 has no in endpoint"),
    (["invariant", "ab4", "{file}"], "L\n", "line 1: expected `L semiarc`"),
    (["invariant", "ab4", "{file}"], "L 0\nQ 1\n", "line 2: unknown record 'Q'"),
    (["invariant", "ab4", "l2a1", "--phi", "{file}"], "1 2\n",
     "line 1: expected `i j c`, got '1 2'"),
    (["invariant", "ab4", "l2a1", "--phi", "{file}"], "1 2 x\n",
     "line 1: non-integer token in '1 2 x'"),
    (["invariant", "ab4", "l2a1", "--phi", "{file}"], "5 1 1\n",
     "pair (5, 1) out of range 1..4"),
], ids=["not-utf8", "framed", "empty-birack", "birack-token", "birack-size",
        "free-loop-twice", "out-twice", "no-semiarcs", "no-in-endpoint", "free-loop-record",
        "unknown-record", "cochain-record", "cochain-token", "cochain-pair"])
def test_every_malformed_input_refusal_exits_2(tmp_path, argv, text, message):
    """Each is a usage error with exactly its message; a message ending in
    `…` carries OS or codec text after it, so only its start is fixed."""
    file = tmp_path / "input.txt"
    if text is not None:
        file.write_bytes(text if isinstance(text, bytes) else text.encode())
    code, out, err = run([arg.format(file=file) for arg in argv])
    assert (code, out) == (2, "")
    message = "error: " + message.format(file=file)
    if message.endswith("…"):
        assert err.startswith(message[:-1])
    else:
        assert err == message + "\n"


def test_internal_key_error_is_not_a_usage_error(monkeypatch):
    from biracks import homology

    def broken(b, tuples):
        raise KeyError("row_index")

    # the one face builder, under both placements of the boundary
    monkeypatch.setattr(homology, "_faces", broken)
    with pytest.raises(KeyError):
        main(["homology", "ab4"])


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    from biracks import homology

    def broken(A):
        raise ValueError("inner dimensions do not match")

    # the factor elimination that the groups run on each d_n^T
    monkeypatch.setattr(homology, "_factors_in_place", broken)
    with pytest.raises(ValueError, match="inner dimensions"):
        main(["homology", "ab4"])


def test_failed_factor_certificate_is_not_a_usage_error(monkeypatch):
    corrupt_core(monkeypatch, drop_last_factor)
    with pytest.raises(AssertionError, match="invariant factors differ"):
        main(["homology", "ab4"])


def test_failed_split_certificate_is_not_a_usage_error(monkeypatch):
    corrupt_split(monkeypatch, bump_multiplier)
    with pytest.raises(AssertionError, match="does not reproduce the matrix"):
        main(["homology", "ab4"])


@pytest.mark.parametrize("argv", [["cocycles", "ab4"], ["cocycles", "ab4", "--mod", "2"]])
def test_failed_kernel_certificate_is_not_a_usage_error(argv, monkeypatch):
    corrupt_transform(monkeypatch, add_row_space_column_to_kernel)
    with pytest.raises(AssertionError, match="divisibility check"):
        main(argv)


def test_non_integer_free_loop_is_a_usage_error(tmp_path):
    text = "X 1 0 1 1 0\nL abc\n"
    with pytest.raises(InputError, match="line 2: semiarc id must be an integer"):
        parse_crossing_list(text)
    path = tmp_path / "loop.txt"
    path.write_text(text)
    assert run(["invariant", "ab4", str(path)]) == (
        2, "", "error: line 2: semiarc id must be an integer\n")


@pytest.mark.parametrize("argv", [
    ["homology", "ab4", "-n", "0", "--max-cells", "-5"],
    ["cocycles", "ab4", "--max-cells", "-1"],
    ["invariant", "ab4", "l2a1", "--max-tile", "-1"],
])
def test_negative_budget_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    flag = argv[-2]
    assert f"argument {flag}: must be a nonnegative integer, got {argv[-1]!r}" in capsys.readouterr().err


@pytest.mark.parametrize("variable, argv", [
    ("BIRACKS_MAX_CELLS", ["homology", "ab4"]),
    ("BIRACKS_MAX_TILE", ["invariant", "ab4", "l2a1"]),
])
@pytest.mark.parametrize("value", ["abc", "-3", "2.5"])
def test_bad_budget_variable_is_a_usage_error(monkeypatch, variable, argv, value):
    monkeypatch.setenv(variable, value)
    assert run(argv) == (
        2, "", f"error: {variable} must be a nonnegative integer, got {value!r}\n")


@pytest.mark.parametrize("argv, message", [
    (["homology", "ab4", "-n", "3", "--reduced"],
     "--reduced reports degree 2 only; drop -n 3"),
    (["homology", "ab4", "--reduced", "--cohomology"],
     "--reduced cannot be combined with --cohomology"),
    (["cocycles", "ab4", "--quotient", "--mod", "2"],
     "--quotient needs Z coefficients; drop --mod"),
])
def test_ignored_reduced_options_are_rejected(argv, message, monkeypatch):
    counts = count_calls(monkeypatch)
    assert run(argv) == (2, "", f"error: {message}\n")
    assert counts == {"constraints": 0, "boundary": 0, "smith": 0, "factors": 0, "core": 0}


@pytest.mark.parametrize("argv", [
    ["cocycles", "ab4", "--quotient"],
    ["homology", "ab4", "--reduced"],
])
def test_reduced_report_factors_the_constraints_once(argv, monkeypatch):
    counts = count_calls(monkeypatch)
    assert run(argv)[0] == 0
    # C with d_3 inside it, then d_2; one elimination of C with V alone and
    # no Smith form, the factors of C and of its kernel columns that certify
    # it, then the factors of d_2, whose remainder meets the core
    assert counts == {"constraints": 1, "boundary": 2, "smith": 0, "factors": 3, "core": 2}


def test_reduced_cli_output_is_unchanged(tmp_path):
    """The reduced reports print exactly their recorded output on ab4, ab5
    and every valid tsr_birack with n <= 4, in text and JSON mode."""
    recorded = json.loads((HERE / "reduced_cli_output.json").read_text())
    targets = {"ab4": "ab4", "ab5": "ab5"}
    for n in range(1, 5):
        for t, s, r in product(range(n), repeat=3):
            try:
                b = tsr_birack(n, t, s, r)
            except BirackError:
                continue
            path = tmp_path / f"tsr_{n}_{t}_{s}_{r}.txt"
            path.write_text(format_birack(b))
            targets[f"tsr({n},{t},{s},{r})"] = str(path)
    assert len(targets) == 18
    shapes = (["cocycles", "{}", "--quotient"], ["cocycles", "{}", "--mod", "2"],
              ["homology", "{}", "--reduced"], ["homology", "{}", "--reduced", "--mod", "2"])
    seen = 0
    for label, target in targets.items():
        for shape in shapes:
            for extra in ([], ["--json"]):
                key = " ".join([a.format(label) for a in shape] + extra)
                code, out, err = run([a.format(target) for a in shape] + extra)
                want = recorded[key]
                assert (code, out.encode(), err.encode()) == (
                    want["code"], want["stdout"].encode(), want["stderr"].encode()), key
                seen += 1
    assert seen == len(recorded)


def test_homology_one_element(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("1\n1\n1\n")
    code, out, _ = run(["homology", str(path), "-n", "2"])
    assert code == 0
    assert out.strip() == "H_2 = Z"
    code, out, _ = run(["homology", str(path), "-n", "3", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 3
    assert payload["free_rank"] == 1
    assert payload["torsion"] == []


def test_homology_with_coefficients():
    code, out, _ = run(["homology", "ab4", "-n", "2", "--mod", "2"])
    assert code == 0
    assert "Z_2 coefficients" in out


def test_homology_reduced_matches_library(ab4):
    from biracks import reduced_2_cocycles

    code, out, _ = run(["homology", "ab4", "--reduced", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["reduced_dimension"] == len(reduced_2_cocycles(ab4))
    assert payload["quotient"] == {"free_rank": 1, "torsion": [2]}


def test_homology_resource_guard():
    code, _, err = run(["homology", "ab4", "-n", "9"])
    assert code == 1
    assert err == ("error: degree-9 chain basis on 4 elements needs 262144 cells, "
                   "above the limit 20000; raise the limit to proceed\n")


def test_homology_past_the_transform_bound_is_refused(tmp_path, monkeypatch):
    # H_4(tsr(6,1,2,5)) passes the cell guard, but its exact fallback would
    # need the Smith form transforms of all of the 7776 x 1123 d_5^T
    monkeypatch.delenv("BIRACKS_MAX_CELLS", raising=False)
    path = tmp_path / "tsr6.txt"
    path.write_text(format_birack(tsr_birack(6, 1, 2, 5)))
    for extra in ([], ["--json"]):
        code, out, err = run(["homology", str(path), "-n", "4"] + extra)
        assert (code, out) == (1, "")
        assert err == ("error: Smith form transform pair for a 7776x1123 matrix needs "
                       "61727305 cells, above the fixed bound "
                       "linalg.MAX_TRANSFORM_CELLS = 16777216\n")


def test_homology_env_override(monkeypatch):
    monkeypatch.setenv("BIRACKS_MAX_CELLS", "10")
    code, _, err = run(["homology", "ab4", "-n", "2"])
    assert code == 1
    assert "limit" in err


def test_explicit_budget_governs_every_guard_of_the_reduced_path(ab4, monkeypatch):
    # 4^3 = 64 cells for the constraints' d_3, 16 for the degenerate rows and d_2
    monkeypatch.setenv("BIRACKS_MAX_CELLS", "1")
    assert reduced_cocycle_constraints(ab4, max_cells=64).cols == 16
    code, out, err = run(["cocycles", "ab4", "--quotient", "--max-cells", "64"])
    assert (code, err) == (0, "")
    assert "Z + Z/2" in out


@pytest.mark.parametrize("argv", [
    ["homology", "ab4", "--mod", "0"],
    ["homology", "ab4", "--cohomology", "--mod", "-2"],
    ["cocycles", "ab4", "--mod", "0"],
    # rejected before degree 9 meets the cell guard
    ["homology", "ab4", "-n", "9", "--mod", "0"],
    # rejected before the cocycle constraints meet the cell guard
    ["cocycles", "ab4", "--mod", "0", "--max-cells", "10"],
    ["homology", "ab4", "--reduced", "--mod", "0", "--max-cells", "10"],
])
def test_nonpositive_modulus_is_a_usage_error(argv):
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert "modulus must be positive" in err


def test_cocycles_json(phi4):
    code, out, _ = run(["cocycles", "ab4", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 4
    assert [[x, y, c] for x, y, c in phi4.pairs()] in payload["basis"]


def test_cocycles_mod():
    code, out, _ = run(["cocycles", "ab4", "--mod", "2"])
    assert code == 0
    assert "4 basis elements" in out


def test_invariant_text_output():
    code, out, _ = run(["invariant", "ab4", "l2a1", "--phi", "ab4_phi"])
    assert code == 0
    assert "counting invariant: 16" in out
    assert "weight polynomial: 8+8u" in out
    assert "weight multiset: 0:8 1:8" in out
    assert "(1, 1): 16" in out


def test_invariant_reverse_json():
    code, out, _ = run(
        ["invariant", "ab5", "l2a1", "--phi", "ab5_phi", "--reverse", "0", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["poly"] == [[-1, 6], [0, 7]]
    assert payload["phi_Z"] == 13


def test_invariant_framed(ab5):
    code, out, _ = run(["invariant", "ab4", "l2a1", "--framed", "1,1"])
    assert code == 0
    assert "(1, 1): 16" in out
    # (-1, -1) is l6a1's base framing; argparse reads "-1,-1" after a space as
    # an option, so a negative first coordinate is attached with "="
    result = framed_invariants(load_diagram("l6a1"), ab5, None, (-1, -1))
    assert result.per_framing == (((-1, -1), 25),) and result.phi_z == 25
    assert run(["invariant", "ab5", "l6a1", "--framed=-1,-1"]) == (
        0, "per-framing labeling counts:\n  (-1, -1): 25\ncounting invariant: 25\n", "")
    # a coordinate past 2^64 is valid input
    code, out, _ = run(["invariant", "ab4", "l2a1", "--framed", "100000000000000000000,0"])
    assert code == 0
    assert "counting invariant: 0" in out
    code, _, err = run(["invariant", "ab4", "l2a1", "--framed", "1"])
    assert code == 2
    assert "error:" in err


def test_invariant_diagram_from_file(tmp_path):
    path = tmp_path / "hopf.txt"
    path.write_text(render_crossing_list(load_diagram("l2a1")))
    code, out, _ = run(["invariant", "ab4", str(path)])
    assert code == 0
    assert "counting invariant: 16" in out


@pytest.mark.parametrize("bundled, source", [
    *((name, f"knots/{name}.gauss") for name in available_diagrams()
      if (DATA / "knots" / f"{name}.gauss").is_file()),
    ("l2a1", "links/l2a1.txt"),
])
def test_diagram_file_format_skips_leading_comments(tmp_path, bundled, source):
    """A file not named .gauss is read by its first line that is not a
    comment: every bundled Gauss code, and the crossing list, start with one."""
    path = tmp_path / "diagram.txt"
    text = (DATA / source).read_text()
    assert text.startswith("#")
    path.write_text(text)
    for extra in ([], ["--phi", "ab4_phi", "--json"]):
        assert (run(["invariant", "ab4", str(path)] + extra)
                == run(["invariant", "ab4", bundled] + extra))


def _bundled_path(name):
    """The bundled file of that stem, wherever its folder."""
    [path] = [entry for folder in DATA.iterdir() if folder.is_dir()
              for entry in folder.iterdir() if entry.name.split(".")[0] == name]
    return path


def _cochain_size(name):
    return load_birack(name.split("_")[0]).size


# how each command parses the (name, text) that the CLI's loader returns
PARSE = {
    "birack": lambda name, text: parse_birack(text),
    "cochain": lambda name, text: parse_cochain(text, _cochain_size(Path(name).stem)),
    "diagram": lambda name, text: parse_diagram(text, name),
}


@pytest.mark.parametrize("kind, name", [
    *(("birack", name) for name in available_biracks()),
    *(("cochain", name) for name in available_cochains()),
    *(("diagram", name) for name in available_diagrams()),
])
def test_bundled_item_loads_alike_by_name_and_by_path(kind, name):
    path = str(_bundled_path(name))
    by_name, by_path = (PARSE[kind](*cli._load(kind, value)) for value in (name, path))
    load = {"birack": load_birack, "diagram": load_diagram,
            "cochain": lambda name: load_cochain(name, _cochain_size(name))}[kind]
    assert by_name == by_path == load(name)


@pytest.mark.parametrize("name", available_biracks())
def test_check_prints_alike_by_name_and_by_path(name):
    path = str(_bundled_path(name))
    for extra in ([], ["--json"]):
        assert run(["check", name] + extra) == run(["check", path] + extra)


def test_invariant_tile_guard():
    code, _, err = run(["invariant", "ab4", "l2a1", "--max-tile", "1"])
    assert code == 1
    assert err == ("error: framing tile of 2^2 vectors needs 4 cells, above the "
                   "limit 1; raise the limit to proceed\n")


def test_invariant_warning_goes_to_stderr(tmp_path):
    path = tmp_path / "diag.txt"
    path.write_text("1 1 1\n")
    # a non-reduced cochain file: the diagonal entry (1,1)
    code, out, err = run(["invariant", "ab4", "l2a1", "--phi", str(path)])
    assert code == 0
    assert "warning:" in err


def test_invariant_lets_a_runtime_warning_through(monkeypatch):
    # only NotReducedCocycle is silenced, so a numpy overflow inside the
    # cocycle invariant still meets the RuntimeWarning gate
    def overflowing(*args, **kwargs):
        warnings.warn("overflow encountered in scalar multiply", RuntimeWarning)

    monkeypatch.setattr(cli, "cocycle_invariant", overflowing)
    with pytest.raises(RuntimeWarning):
        run(["invariant", "ab4", "l2a1", "--phi", "ab4_phi"])


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        run(["bogus"])
