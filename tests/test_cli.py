"""Exit-code contract, output determinism, machine-readable round trips."""

import argparse
import json
from fractions import Fraction as F

import pytest

from qlogic.cli import build_parser, main
from qlogic.core import LogicDescription, validate_logic
from qlogic.errors import CertificateFailed, InternalInvariantError
from qlogic.fixtures import load_fixture
from qlogic.states import State, atomic_state, parse_rational


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixtures")
    paths = {}
    for name in ("boolean2", "boolean3", "MO2", "MO3", "O6", "prod22",
                 "prod33", "stateless", "nonfaithful"):
        path = root / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(load_fixture(name).data, fh, indent=2)
        paths[name] = str(path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_validate_accepts(fixture_files, capsys):
    code, out = run(capsys, "validate", fixture_files["boolean3"])
    assert code == 0 and "valid" in out


def test_validate_rejects_hexagon_with_witness(fixture_files, capsys):
    code, out = run(capsys, "validate", fixture_files["O6"], "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["axiom"] == "E"
    assert set(payload["witness"]) == {"x", "y"}


def test_check_G_fails_on_mo2_with_witnesses(fixture_files, capsys):
    code, out = run(capsys, "check", "G", fixture_files["MO2"],
                    "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["element"] == "a"
    w1, w2 = payload["witnesses"]
    assert w1 != w2 and w1["a"] == w2["a"] == "1/1"


def test_check_F_and_H_hold(fixture_files, capsys):
    for cond in ("F", "H"):
        code, out = run(capsys, "check", cond, fixture_files["MO2"])
        assert code == 0, out


def test_transprob_json_on_array_kernel(fixture_files, capsys):
    # the face LPs of the 124-element pasting run on numpy tableaux; the
    # payload must still hold only JSON-serializable Python values
    for future, given in (("yg1m1", "yg1c1"), ("yg1c1", "yg2c1")):
        code, out = run(capsys, "transprob", fixture_files["nonfaithful"],
                        future, given, "--format", "json")
        payload = json.loads(out)
        assert code in (0, 1) and payload["command"] == "transprob", out
        assert ("value" in payload) == payload["exists"]


@pytest.mark.parametrize("le, detail", [
    ([[0, 1], [0, True]], "malformed le pair: not a list of int"),
    ([[0, 1, 3]], None),
])
def test_malformed_le_pair_detail(fixture_files, capsys, tmp_path, le, detail):
    if detail is None:
        try:
            _, _ = le[0]
        except ValueError as exc:
            detail = f"malformed logic description: {exc}"
    with open(fixture_files["boolean2"], encoding="utf-8") as fh:
        logic = dict(json.load(fh), le=le)
    path = tmp_path / "logic.json"
    path.write_text(json.dumps(logic))
    code, out = run(capsys, "validate", str(path), "--format", "json")
    assert code == 2
    assert json.loads(out) == {"command": "validate", "error": "input",
                               "detail": detail}


def test_input_error_is_exit_2(fixture_files, capsys, tmp_path):
    code, _ = run(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(capsys, "atoms", str(bad))
    assert code == 2
    # a state value, a matrix row and a morphism map that do not parse
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"logic": fixture_files["boolean2"],
                                 "values": ["0/1", "1/0", "1/2", "1/1"]}))
    matrix = tmp_path / "matrix.json"
    matrix.write_text("[[1, 2]]")
    morph = tmp_path / "morph.json"
    morph.write_text(json.dumps({"source": fixture_files["boolean2"],
                                 "target": fixture_files["boolean2"],
                                 "map": None}))
    # state and morphism files whose top level is not an object
    array = tmp_path / "array.json"
    array.write_text("[]")
    # a state file without values and a morphism file without a map
    no_values = tmp_path / "no_values.json"
    no_values.write_text(json.dumps({"logic": fixture_files["boolean2"]}))
    no_map = tmp_path / "no_map.json"
    no_map.write_text(json.dumps({"source": fixture_files["boolean2"],
                                  "target": fixture_files["boolean2"]}))
    for argv, detail in ((["condprob", str(state), "--given", "x"], ""),
                         (["hilbert", "transition", "--e", str(matrix),
                           "--f", str(matrix)], ""),
                         (["lemma1", str(morph)], ""),
                         (["condprob", str(array), "--given", "x"], ""),
                         (["lemma1", str(array)], ""),
                         (["condprob", str(no_values), "--given", "x"],
                          "missing 'values'"),
                         (["lemma1", str(no_map)], "missing 'map'")):
        code, out = run(capsys, *argv, "--format", "json")
        payload = json.loads(out)
        assert code == 2 and payload["error"] == "input", argv
        assert detail in payload["detail"], (argv, payload)


def test_parse_rational_reads_fractions_decimals_and_exponents():
    assert parse_rational("1/3") == F(1, 3)
    assert parse_rational(" 0.5 ") == F(1, 2)
    assert parse_rational("25e-2") == F(1, 4)
    assert parse_rational("1E4300") == 10 ** 4300
    assert parse_rational("-1e-4300") == F(-1, 10 ** 4300)
    # Fraction would build 10 to the exponent's power before any check
    for text in ("1e-99999999", "1E+4301", " 3e-4301 ", "1e"):
        with pytest.raises(ValueError):
            parse_rational(text)


def test_unknown_label_is_input_error(fixture_files, capsys):
    code, out = run(capsys, "transprob", fixture_files["MO2"], "nope", "a")
    assert code == 2


def test_budget_exceeded_is_exit_3(fixture_files, capsys):
    code, out = run(capsys, "states", fixture_files["MO2"],
                    "--budget", "0", "--format", "json")
    assert code == 3
    payload = json.loads(out)
    assert payload["error"] == "budget_exceeded"
    assert payload["detail"] == "6 candidate bases exceed the budget 0"


def _raise(exc):
    def broken(*args, **kwargs):
        raise exc
    return broken


@pytest.mark.parametrize("argv, patch, code, field, kind", [
    (["states", "{stateless}"], None, 1, "verdict", "empty_state_space"),
    (["check", "F", "{stateless}"], None, 1, "error", "empty_state_space"),
    (["certify-theorem1", "--composite", "{prod22}", "--C", "x,y", "--f", "x"],
     ("theorem1_certificate", CertificateFailed("mismatch")),
     1, "error", "refuted"),
    (["atoms", "{tmp}/missing.json"], None, 2, "error", "input"),
    # main catches only QLogicError, so malformed outside input must
    # become an input error where it is read
    (["atoms", "{tmp}/not_json.json"], None, 2, "error", "input"),
    (["hilbert", "no-cloning", "--xi1", "1,abc", "--xi2", "1,0"], None,
     2, "error", "input"),
    (["transprob", "{MO2}", "nope", "a"], None, 2, "error", "input"),
    (["product", "{boolean2}", "--out", "{tmp}/missing/composite.json"],
     None, 2, "error", "input"),
    (["hilbert", "atom", "--xi", "1,0", "--f", "{tmp}/nan_matrix.json"],
     None, 2, "error", "input"),
    (["hilbert", "embed", "--e", "{tmp}/nan_matrix.json", "--side", "first",
      "--other-dim", "0"], None, 2, "error", "input"),
    (["hilbert", "lemma2", "--dim", "-1"], None, 2, "error", "input"),
    # refused before numpy allocates the product space
    (["hilbert", "embed", "--e", "{tmp}/id2.json", "--side", "first",
      "--other-dim", "100000000"], None, 2, "error", "input"),
    (["hilbert", "lemma2", "--dim", "33"], None, 2, "error", "input"),
    (["hilbert", "lemma2", "--tolerance", "nan"], None, 2, "error", "input"),
    (["hilbert", "lemma2", "--trials", "0"], None, 2, "error", "input"),
    (["atoms", "{tmp}/infinite_index.json"], None, 2, "error", "input"),
    (["condprob", "{tmp}/int_values.json", "--given", "x"], None,
     2, "error", "input"),
    # the decoder recurses once per nesting level
    (["validate", "{tmp}/deep.json"], None, 2, "error", "input"),
    (["condprob", "{tmp}/huge_exponent.json", "--given", "x"], None,
     2, "error", "input"),
    (["states", "{MO2}", "--budget", "0"], None,
     3, "error", "budget_exceeded"),
    (["autos", "{stateless}", "--budget", "10"], None,
     3, "error", "budget_exceeded"),
    (["transprob", "{MO2}", "b", "a"],
     ("transition_probability", InternalInvariantError("broken")),
     4, "error", "internal"),
], ids=["states-stateless", "check-F-stateless", "refuted", "missing-file",
        "not-json", "bad-vector", "unknown-label", "unwritable-output",
        "nan-matrix", "bad-dimension", "bad-hilbert-dim", "huge-embed",
        "huge-hilbert-dim", "nan-tolerance",
        "no-trials", "infinite-index", "non-string-value", "deep-json",
        "huge-exponent", "budget",
        "budget-beyond-62-atoms", "internal"])
def test_error_exit_codes(fixture_files, capsys, monkeypatch, tmp_path,
                          argv, patch, code, field, kind):
    if patch is not None:
        name, exc = patch
        monkeypatch.setattr(f"qlogic.cli.{name}", _raise(exc))
    (tmp_path / "not_json.json").write_text("{not json")
    (tmp_path / "nan_matrix.json").write_text(
        "[[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]")
    (tmp_path / "id2.json").write_text("[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]")
    with open(fixture_files["boolean2"], encoding="utf-8") as fh:
        logic = json.load(fh)
    (tmp_path / "infinite_index.json").write_text(
        json.dumps(dict(logic, one=float("inf"))))
    (tmp_path / "int_values.json").write_text(json.dumps(
        {"logic": fixture_files["boolean2"], "values": [0, 1, 0, 1]}))
    (tmp_path / "deep.json").write_text("[" * 200_000)
    (tmp_path / "huge_exponent.json").write_text(json.dumps(
        {"logic": fixture_files["boolean2"],
         "values": ["0", "1e-99999999", "1/2", "1"]}))
    argv = [a.format(tmp=tmp_path, **fixture_files) for a in argv]
    got, out = run(capsys, *argv, "--format", "json")
    assert got == code
    assert json.loads(out)[field] == kind


def test_clone_search_contract(fixture_files, capsys):
    code, out = run(capsys, "clone-search",
                    "--composite", fixture_files["prod22"],
                    "--C", "x,y", "--f", "x", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cloner_found"] and payload["theorem_consistent"]
    assert set(payload["pairwise"].values()) <= {"0/1", "1/1"}


def test_clone_search_budget_below_scanned_is_exit_3(fixture_files, capsys):
    for C in ("x", "x,y"):
        argv = ["clone-search", "--composite", fixture_files["prod22"],
                "--C", C, "--f", "y", "--format", "json"]
        code, out = run(capsys, *argv)
        assert code == 0
        scanned = json.loads(out)["candidates_scanned"]
        assert scanned > 1
        code, _ = run(capsys, *argv, "--budget", str(scanned))
        assert code == 0
        code, out = run(capsys, *argv, "--budget", str(scanned - 1))
        assert code == 3
        assert json.loads(out)["error"] == "budget_exceeded"


_PROD33_CLONE = ["clone-search", "{prod33}", "--C", "x,y,z", "--f", "z"]


@pytest.mark.parametrize("argv, code, field, want", [
    # preorder nodes of the atom search on MO3
    (["autos", "{MO3}", "--budget", "155"], 3, "detail",
     "automorphism search visited 156 nodes"),
    (["autos", "{MO3}", "--budget", "156"], 0, "count", 48),
    # complete permutations, "candidates", on a powerset
    (["autos", "{boolean3}", "--budget", "5"], 3, "detail",
     "automorphism search visited 6 candidates"),
    (["autos", "{boolean3}", "--budget", "6"], 0, "count", 6),
    # the k point masses count as k candidate bases
    (["states", "{boolean3}", "--budget", "2"], 3, "detail",
     "3 candidate bases exceed the budget 2"),
    (["states", "{boolean3}", "--budget", "3"], 0, "vertex_count", 3),
    # the first cloner's Lehmer rank + 1 is 80,665
    (_PROD33_CLONE + ["--budget", "80664"], 3, "detail",
     "automorphism search visited 80665 candidates"),
    (_PROD33_CLONE + ["--budget", "80665"], 0, "candidates_scanned", 80665),
], ids=["autos-MO3-155", "autos-MO3-156", "autos-boolean3-5",
        "autos-boolean3-6", "states-boolean3-2", "states-boolean3-3",
        "clone-search-prod33-80664", "clone-search-prod33-80665"])
def test_budget_boundaries(fixture_files, capsys, argv, code, field, want):
    argv = [a.format(**fixture_files) for a in argv]
    got, out = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert got == code
    assert payload[field] == want
    if code == 3:
        assert payload["error"] == "budget_exceeded"


def test_certify_theorem1(fixture_files, capsys):
    code, out = run(capsys, "certify-theorem1",
                    "--composite", fixture_files["prod22"],
                    "--C", "x,y", "--f", "y", "--format", "json")
    assert code == 0
    assert json.loads(out)["holds"]


@pytest.mark.parametrize("command, blank", [("clone-search", "x"),
                                            ("certify-theorem1", "y")])
def test_clone_commands_take_the_composite_either_way(
        fixture_files, capsys, command, blank):
    # positional as in lemma2 and lemma3, or as --composite FILE, with
    # the same output; both spellings or neither is an input error
    path = fixture_files["prod22"]
    args = ["--C", "x,y", "--f", blank, "--format", "json"]
    code, out = run(capsys, command, "--composite", path, *args)
    assert code == 0
    assert run(capsys, command, path, *args) == (code, out)
    for spelling in ([path, "--composite", path], []):
        code, out = run(capsys, command, *spelling, *args)
        assert code == 2
        payload = json.loads(out)
        assert (payload["command"], payload["error"]) == (command, "input")
        assert "--composite FILE" in payload["detail"]


def test_atoms_compat_autos(fixture_files, capsys):
    code, out = run(capsys, "atoms", fixture_files["boolean3"],
                    "--format", "json")
    assert code == 0 and json.loads(out)["atoms"] == ["x", "y", "z"]
    code, out = run(capsys, "compat", fixture_files["MO2"], "--members", "a,b")
    assert code == 1
    code, out = run(capsys, "autos", fixture_files["MO2"], "--format", "json")
    assert code == 0 and json.loads(out)["count"] == 8


def test_product_command(fixture_files, capsys, tmp_path):
    out_path = str(tmp_path / "prod.json")
    code, _ = run(capsys, "product", fixture_files["boolean2"], "-o", out_path)
    assert code == 0
    code, out = run(capsys, "check-I", out_path)
    assert code == 0
    code, out = run(capsys, "check-J", out_path)
    assert code == 0
    code, out = run(capsys, "product", fixture_files["MO2"])
    assert code == 2  # not Boolean: precondition, not refutation


def test_lemma_commands(fixture_files, capsys, tmp_path):
    morph = tmp_path / "ident.json"
    with open(morph, "w", encoding="utf-8") as fh:
        json.dump({"source": fixture_files["boolean2"],
                   "target": fixture_files["boolean2"],
                   "map": [0, 1, 2, 3]}, fh)
    code, out = run(capsys, "lemma1", str(morph), "--format", "json")
    assert code == 0 and json.loads(out)["holds"]
    code, out = run(capsys, "lemma1", str(morph), "--e1", "x", "--e2", "y",
                    "--format", "json")
    assert code == 0 and len(json.loads(out)["pairs_checked"]) == 1
    code, out = run(capsys, "lemma2", fixture_files["prod22"],
                    "--format", "json")
    assert code == 0 and json.loads(out)["tuples_checked"] == 100
    code, out = run(capsys, "lemma3", fixture_files["prod22"],
                    "--format", "json")
    assert code == 0 and json.loads(out)["states_checked"] == 4


@pytest.mark.parametrize("given, missing", [("--e1", "--e2"),
                                            ("--e2", "--e1")])
def test_lemma1_lone_event_flag_is_input_error(fixture_files, capsys,
                                               tmp_path, given, missing):
    morph = tmp_path / "ident.json"
    morph.write_text(json.dumps({"source": fixture_files["boolean2"],
                                 "target": fixture_files["boolean2"],
                                 "map": [0, 1, 2, 3]}))
    code, out = run(capsys, "lemma1", str(morph), given, "x",
                    "--format", "json")
    payload = json.loads(out)
    assert code == 2 and payload["error"] == "input"
    assert f"{missing} is missing" in payload["detail"]


def test_lemma3_with_state_file(fixture_files, capsys, tmp_path):
    # the state file carries its own copy of the logic: a copy of the
    # ambient is accepted, any other logic is bad input
    ambient = load_fixture("prod22").composite().ambient
    state = tmp_path / "ambient_state.json"
    with open(state, "w", encoding="utf-8") as fh:
        json.dump(atomic_state(ambient, ambient.atoms[0]).to_dict(), fh)
    code, out = run(capsys, "lemma3", fixture_files["prod22"], "--state",
                    str(state), "--format", "json")
    assert code == 0
    assert json.loads(out)["states_checked"] == 1
    other = tmp_path / "boolean2_state.json"
    b2 = load_fixture("boolean2").logic()
    with open(other, "w", encoding="utf-8") as fh:
        json.dump(atomic_state(b2, b2.atoms[0]).to_dict(), fh)
    code, out = run(capsys, "lemma3", fixture_files["prod22"], "--state",
                    str(other), "--format", "json")
    assert code == 2
    assert "not the ambient logic" in json.loads(out)["detail"]


def test_hilbert_subcommands(capsys, tmp_path):
    code, out = run(capsys, "hilbert", "no-cloning", "--xi1", "1,0",
                    "--xi2", "0.7071067811865476,0.7071067811865476",
                    "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert not payload["cloneable"]
    assert abs(payload["overlap"] - 0.5) < 1e-9

    proj = tmp_path / "proj.json"
    with open(proj, "w", encoding="utf-8") as fh:
        json.dump([[[1, 0], [0, 0]], [[0, 0], [0, 0]]], fh)
    code, out = run(capsys, "hilbert", "atom", "--xi", "1,0",
                    "--f", str(proj), "--format", "json")
    assert code == 0 and abs(json.loads(out)["value"] - 1.0) < 1e-12

    code, out = run(capsys, "hilbert", "lemma2", "--dim", "2",
                    "--trials", "25", "--seed", "3", "--format", "json")
    assert code == 0 and json.loads(out)["max_residual"] <= 1e-9


def test_condprob_round_trip(fixture_files, capsys, tmp_path):
    logic = validate_logic(
        LogicDescription.from_dict(load_fixture("boolean3").data)
    )
    state_file = tmp_path / "uniform.json"
    values = [f"{len(logic.atoms_below(e))}/3" for e in range(logic.n)]
    with open(state_file, "w", encoding="utf-8") as fh:
        json.dump({"logic": fixture_files["boolean3"], "values": values}, fh)
    code, out = run(capsys, "condprob", str(state_file), "--given", "z'",
                    "--format", "json")
    assert code == 0
    payload = json.loads(out)
    # machine output re-parses into a valid state on the same logic
    mu = State(logic, [parse_rational(payload["state"][lbl])
                       for lbl in logic.labels])
    assert mu[logic.index("x")] == parse_rational("1/2")


def test_states_output_round_trip(fixture_files, capsys):
    code, out = run(capsys, "states", fixture_files["MO2"], "--format", "json")
    assert code == 0
    payload = json.loads(out)
    logic = validate_logic(
        LogicDescription.from_dict(load_fixture("MO2").data)
    )
    # every reported vertex re-validates as a state (exact additivity)
    for vert in payload["vertices"]:
        State(logic, [parse_rational(vert[lbl]) for lbl in logic.labels])
    assert payload["vertex_count"] == 4


def test_machine_output_is_deterministic(fixture_files, capsys):
    runs = []
    for _ in range(2):
        code, out = run(capsys, "clone-search",
                        "--composite", fixture_files["prod22"],
                        "--C", "x,y", "--f", "x", "--format", "json")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    for _ in range(2):
        code, out = run(capsys, "states", fixture_files["MO2"],
                        "--format", "json")
        runs.append(out)
    assert runs[2] == runs[3]


def test_fixture_commands(capsys, tmp_path):
    code, out = run(capsys, "fixture", "list", "--format", "json")
    assert code == 0 and "MO2" in json.loads(out)["names"]
    code, out = run(capsys, "fixture", "info", "MO2", "--format", "json")
    assert code == 0 and json.loads(out)["annotations"]["aut_order"] == 8
    code, _ = run(capsys, "fixture", "export", "MO2", str(tmp_path / "m.json"))
    assert code == 0
    code, _ = run(capsys, "fixture", "info", "nope")
    assert code == 2


# ---------------------------------------------------------------------------
# malformed files, labels and options: exit 2, never a traceback
# ---------------------------------------------------------------------------

def _commands(parser, prefix=()):
    """Every leaf subcommand of the parser as a tuple of words."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands(sub, prefix + (name,))
            return
    yield prefix


_COMPOSITE = ["--composite", "{prod22}"]
_CLONE = _COMPOSITE + ["--C", "x,y", "--f", "x"]

MALFORMED = {
    "validate": [["{missing}"], ["{not_json}"], ["{array}"],
                 ["{no_labels}"], ["{le_out_of_range}"],
                 ["{string_ortho}"], ["{float_ortho}"],
                 ["{boolean2}", "--format", "xml"]],
    "atoms": [["{array}"], ["{not_json}"]],
    "compat": [["{MO2}", "--members", "a,nope"],
               ["{MO2}", "--members", "a,b", "--budget", "0"]],
    "states": [["{MO2}", "--budget", "-1"], ["{missing}"]],
    "check": [["X", "{MO2}"], ["G", "{MO2}", "--budget", "-1"],
              ["F", "{array}"]],
    "condprob": [["{string_values}", "--given", "x"],
                 ["{short_values}", "--given", "x"],
                 ["{state}", "--given", "nope"], ["{state}"]],
    "transprob": [["{MO2}", "a", "nope"], ["{MO2}", "a"]],
    "autos": [["{MO2}", "--budget", "-1"], ["{no_labels}"]],
    "product": [["{MO2}"], ["{boolean2}", "--out", "{tmp}/no/dir.json"]],
    "check-I": [["{array}"], ["{not_json}"]],
    "check-J": [["{no_pi2}"], ["{not_json}"], ["{string_pi1}"]],
    "lemma1": [["{string_map}"], ["{float_map}"], ["{short_map}"],
               ["{identity_map}", "--e1", "nope", "--e2", "x"]],
    "lemma2": [["{prod22}", "--events", "x", "y", "x", "nope"],
               ["{prod22}", "--events", "x"]],
    "lemma3": [["{prod22}", "--atoms", "x", "nope"],
               ["{prod22}", "--state", "{missing}"],
               ["{prod22}", "--budget", "-1"]],
    "clone-search": [_COMPOSITE + ["--C", "x,nope", "--f", "x"],
                     _COMPOSITE + ["--C", ",", "--f", "x"],
                     _COMPOSITE + ["--C", "x", "--f", "1"],
                     _CLONE + ["--budget", "-1"]],
    "certify-theorem1": [_COMPOSITE + ["--C", "x'", "--f", "x"],
                         _CLONE + ["--budget", "1e3"]],
    "hilbert condprob": [["--density", "{missing}", "--e", "{proj}",
                          "--f", "{proj}"],
                         ["--density", "{ragged}", "--e", "{proj}",
                          "--f", "{proj}"]],
    "hilbert transition": [["--e", "{not_json}", "--f", "{proj}"],
                           ["--e", "{proj}", "--f", "{proj}",
                            "--tolerance", "-1"]],
    "hilbert atom": [["--xi", "1,abc", "--f", "{proj}"],
                     ["--xi", "1,0", "--f", "{array}"]],
    "hilbert embed": [["--e", "{proj}", "--side", "middle",
                       "--other-dim", "2"],
                      ["--e", "{proj}", "--side", "first",
                       "--other-dim", "0"]],
    "hilbert lemma2": [["--dim", "0"], ["--trials", "many"]],
    "hilbert clone-test": [["--unitary", "{proj}", "--C", "1,0", "--f", "1,0"],
                           ["--unitary", "{missing}", "--C", "1,0",
                            "--f", "1,0"]],
    "hilbert no-cloning": [["--xi1", "1,0", "--xi2", "nan,0"],
                           ["--xi1", "1,0"]],
    "fixture list": [["--format", "xml"]],
    "fixture info": [["nope"], []],
    "fixture export": [["nope", "{tmp}/out.json"],
                       ["MO2", "{tmp}/no/dir.json"]],
}


def _malformed_files(tmp_path, fixture_files):
    boolean2 = fixture_files["boolean2"]
    with open(boolean2, encoding="utf-8") as fh:
        logic = json.load(fh)
    with open(fixture_files["prod22"], encoding="utf-8") as fh:
        composite = json.load(fh)
    del composite["pi2"]
    contents = {
        "not_json": "{not json",
        "array": [],
        "no_labels": {k: v for k, v in logic.items() if k != "labels"},
        "le_out_of_range": dict(logic, le=[[0, 99]]),
        # index lists are not read as digits or truncated
        "string_ortho": dict(logic, ortho="3210"),
        "float_ortho": dict(logic, ortho=[3.7, 2.7, 1.7, 0.7]),
        "string_pi1": {"factor": boolean2, "ambient": boolean2,
                       "pi1": "0123", "pi2": [0, 1, 2, 3]},
        "no_pi2": composite,
        "state": {"logic": boolean2, "values": ["0", "1", "0", "1"]},
        "string_values": {"logic": boolean2, "values": "0101"},
        "short_values": {"logic": boolean2, "values": ["0", "1"]},
        # a string map is not read as its digits
        "string_map": {"source": boolean2, "target": boolean2,
                       "map": "0123"},
        "float_map": {"source": boolean2, "target": boolean2,
                      "map": [0, 1.0, 2, 3]},
        "short_map": {"source": boolean2, "target": boolean2,
                      "map": [0, 1]},
        "identity_map": {"source": boolean2, "target": boolean2,
                         "map": [0, 1, 2, 3]},
        "proj": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
        "ragged": [[[1, 0]], [[0, 0], [1, 0]]],
    }
    paths = dict(fixture_files, tmp=tmp_path,
                 missing=tmp_path / "missing.json")
    for name, content in contents.items():
        path = tmp_path / f"{name}.json"
        path.write_text(content if isinstance(content, str)
                        else json.dumps(content))
        paths[name] = path
    return paths


@pytest.mark.parametrize("command", [" ".join(c) for c in
                                     _commands(build_parser())])
def test_malformed_input_is_exit_2(fixture_files, capsys, tmp_path, command):
    cases = MALFORMED.get(command)
    assert cases, f"no malformed-input case for {command!r}"
    paths = _malformed_files(tmp_path, fixture_files)
    for case in cases:
        argv = command.split() + [a.format(**paths) for a in case]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the option itself
            code = exc.code
        capsys.readouterr()
        assert code == 2, argv
