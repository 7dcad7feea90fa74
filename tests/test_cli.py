"""Exit-code contract, output determinism, machine-readable round trips."""

import argparse
import json

import pytest

from qlogic.cli import build_parser, main
from qlogic.core import LogicDescription, validate_logic
from qlogic.errors import CertificateFailed, InternalInvariantError
from qlogic.fixtures import load_fixture
from qlogic.states import State, parse_rational


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixtures")
    paths = {}
    for name in ("boolean2", "boolean3", "MO2", "O6", "prod22", "stateless"):
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


def test_unknown_label_is_input_error(fixture_files, capsys):
    code, out = run(capsys, "transprob", fixture_files["MO2"], "nope", "a")
    assert code == 2


def test_budget_exceeded_is_exit_3(fixture_files, capsys):
    code, out = run(capsys, "compat", fixture_files["MO2"],
                    "--members", "a,b", "--budget", "0", "--format", "json")
    assert code == 3
    assert json.loads(out)["error"] == "budget_exceeded"


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
    (["hilbert", "lemma2", "--tolerance", "nan"], None, 2, "error", "input"),
    (["hilbert", "lemma2", "--trials", "0"], None, 2, "error", "input"),
    (["atoms", "{tmp}/infinite_index.json"], None, 2, "error", "input"),
    (["condprob", "{tmp}/int_values.json", "--given", "x"], None,
     2, "error", "input"),
    (["compat", "{MO2}", "--members", "a,b", "--budget", "0"], None,
     3, "error", "budget_exceeded"),
    (["autos", "{stateless}", "--budget", "10"], None,
     3, "error", "budget_exceeded"),
    (["transprob", "{MO2}", "b", "a"],
     ("transition_probability", InternalInvariantError("broken")),
     4, "error", "internal"),
], ids=["states-stateless", "check-F-stateless", "refuted", "missing-file",
        "not-json", "bad-vector", "unknown-label", "unwritable-output",
        "nan-matrix", "bad-dimension", "bad-hilbert-dim", "nan-tolerance",
        "no-trials", "infinite-index", "non-string-value", "budget",
        "budget-beyond-62-atoms", "internal"])
def test_error_exit_codes(fixture_files, capsys, monkeypatch, tmp_path,
                          argv, patch, code, field, kind):
    if patch is not None:
        name, exc = patch
        monkeypatch.setattr(f"qlogic.cli.{name}", _raise(exc))
    (tmp_path / "not_json.json").write_text("{not json")
    (tmp_path / "nan_matrix.json").write_text(
        "[[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]")
    with open(fixture_files["boolean2"], encoding="utf-8") as fh:
        logic = json.load(fh)
    (tmp_path / "infinite_index.json").write_text(
        json.dumps(dict(logic, one=float("inf"))))
    (tmp_path / "int_values.json").write_text(json.dumps(
        {"logic": fixture_files["boolean2"], "values": [0, 1, 0, 1]}))
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


def test_certify_theorem1(fixture_files, capsys):
    code, out = run(capsys, "certify-theorem1",
                    "--composite", fixture_files["prod22"],
                    "--C", "x,y", "--f", "y", "--format", "json")
    assert code == 0
    assert json.loads(out)["holds"]


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
    code, out = run(capsys, "lemma2", fixture_files["prod22"],
                    "--format", "json")
    assert code == 0 and json.loads(out)["tuples_checked"] == 100
    code, out = run(capsys, "lemma3", fixture_files["prod22"],
                    "--format", "json")
    assert code == 0 and json.loads(out)["states_checked"] == 4


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
                 ["{boolean2}", "--format", "xml"]],
    "atoms": [["{array}"], ["{not_json}"]],
    "compat": [["{MO2}", "--members", "a,nope"],
               ["{MO2}", "--members", "a,b", "--budget", "-1"],
               ["{MO2}", "--members", "a,b", "--budget", "many"]],
    "states": [["{MO2}", "--budget", "-1"], ["{missing}"]],
    "check": [["X", "{MO2}"], ["G", "{MO2}", "--budget", "-1"],
              ["F", "{array}"]],
    "condprob": [["{string_values}", "--given", "x"],
                 ["{short_values}", "--given", "x"],
                 ["{state}", "--given", "nope"], ["{state}"]],
    "transprob": [["{MO2}", "a", "nope"], ["{MO2}", "a"]],
    "autos": [["{MO2}", "--budget", "-1"], ["{no_labels}"]],
    "product": [["{MO2}"], ["{boolean2}", "--out", "{tmp}/no/dir.json"]],
    "check-I": [["{array}"], ["{prod22}", "--budget", "-1"]],
    "check-J": [["{no_pi2}"], ["{not_json}"]],
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
