"""Command-line interface exposing every operation for batch use.

Exit codes: 0 when the queried property is verified or holds, 1 when it
is refuted (a witness is printed), 2 on input errors, 3 when a search or
enumeration budget was exhausted, 4 when an internal invariant failed (a
bug, never bad input).  ``--format json`` emits one JSON document on
stdout; identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import hilbert as hb
from .cloning import CloneProblem, clone_search, theorem1_certificate
from .compat import DEFAULT_NODE_BUDGET, is_compatible_subset
from .composite import (
    boolean_product,
    check_condition_I,
    check_condition_J,
    check_lemma2,
    check_lemma3,
    composite_from_dict,
    structural_verdicts,
)
from .core import LogicDescription, validate_logic
from .errors import (
    AxiomViolation,
    EmptyStateSpace,
    LemmaViolated,
    LogicInputError,
    NoBounds,
    NotAPartialOrder,
    OrthoNotInvolutive,
    QLogicError,
    UndefinedTransition,
)
from .fixtures import fixture_names, load_fixture
from .morphisms import (
    DEFAULT_SEARCH_BUDGET,
    automorphisms,
    check_lemma1a,
    check_lemma1b,
    validate_automorphism,
    validate_morphism,
)
from .states import (
    DEFAULT_VERTEX_BUDGET,
    State,
    check_condition_F,
    check_condition_G,
    check_condition_H,
    conditional_probability,
    format_rational,
    parse_rational,
    state_polytope,
    transition_probability,
)


def _transition_or_none(logic, f, e):
    try:
        return transition_probability(logic, f, e)
    except UndefinedTransition:
        return None


# ---------------------------------------------------------------------------
# loading helpers
# ---------------------------------------------------------------------------

def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # not UTF-8, not JSON, huge ints
        raise LogicInputError(str(exc)) from exc


def _write_json(path, data):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise LogicInputError(str(exc)) from exc


def _read_object(path, what: str, keys) -> dict:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise LogicInputError(f"malformed {what} file: not a JSON object")
    for key in keys:
        if key not in data:
            raise LogicInputError(f"malformed {what} file: missing {key!r}")
    return data


def _list_of(value, kind, what: str) -> list:
    """A JSON list of ``kind`` items; a string is not read as its
    characters."""
    if not (isinstance(value, list) and all(type(x) is kind for x in value)):
        raise LogicInputError(
            f"malformed {what}: not a list of {kind.__name__}")
    return value


def _logic(ref, base: Path | None = None):
    """Validate a logic given as a file path (relative to ``base``, the
    directory of the referencing file) or as an inline dict."""
    if isinstance(ref, str):
        ref = _read_json(ref if base is None else base / ref)
    return validate_logic(LogicDescription.from_dict(ref))


def _load_composite(path: str):
    base = Path(path).parent
    return composite_from_dict(_read_json(path), lambda ref: _logic(ref, base))


def _load_state(path: str):
    data = _read_object(path, "state", ("logic", "values"))
    logic = _logic(data["logic"], Path(path).parent)
    try:
        values = [parse_rational(t)
                  for t in _list_of(data["values"], str, "state values")]
    except (ValueError, ZeroDivisionError) as exc:
        raise LogicInputError(f"malformed state values: {exc}") from exc
    try:
        return logic, State(logic, values)
    except ValueError as exc:  # a value too long to print in the message
        raise LogicInputError(f"malformed state values: {exc}") from exc


def _load_matrix(path: str) -> np.ndarray:
    rows = _read_json(path)
    try:
        matrix = np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise LogicInputError(f"malformed matrix: {exc}") from exc
    if not np.isfinite(matrix).all():
        raise LogicInputError("malformed matrix: non-finite entry")
    return matrix


def _parse_vector(text: str) -> np.ndarray:
    parts = [p.strip().replace("i", "j") for p in text.split(",")]
    try:
        vector = np.array([complex(p) for p in parts])
    except ValueError as exc:
        raise LogicInputError(str(exc)) from exc
    if not np.isfinite(vector).all():
        raise LogicInputError(f"non-finite vector entry in {text!r}")
    return vector


def _labels(logic, indices):
    return [logic.labels[i] for i in indices]


def _state_payload(state: State) -> dict:
    return {lbl: format_rational(v)
            for lbl, v in zip(state.logic.labels, state.values)}


# ---------------------------------------------------------------------------
# subcommand handlers: return (exit_code, payload)
# ---------------------------------------------------------------------------

def _cmd_validate(args):
    desc = LogicDescription.from_dict(_read_json(args.logic))
    try:
        logic = validate_logic(desc)
    except AxiomViolation as exc:
        return 1, {
            "command": "validate", "verdict": "invalid",
            "axiom": exc.axiom,
            "witness": [desc.labels[i] for i in exc.witness],
            "detail": str(exc),
        }
    except (NotAPartialOrder, NoBounds, OrthoNotInvolutive) as exc:
        return 1, {
            "command": "validate", "verdict": "invalid",
            "detail": str(exc),
        }
    return 0, {
        "command": "validate", "verdict": "valid",
        "elements": logic.n, "atoms": len(logic.atoms),
        "boolean": logic.is_boolean,
    }


def _cmd_atoms(args):
    logic = _logic(args.logic)
    return 0, {
        "command": "atoms",
        "atoms": _labels(logic, logic.atoms),
        "count": len(logic.atoms),
    }


def _cmd_compat(args):
    logic = _logic(args.logic)
    members = [logic.index(lbl) for lbl in args.members.split(",") if lbl]
    verdict = is_compatible_subset(logic, members, budget=args.budget)
    payload = {
        "command": "compat",
        "members": _labels(logic, members),
        "compatible": verdict.compatible,
    }
    if verdict.witness is not None:
        payload["witness_subalgebra"] = _labels(logic, sorted(verdict.witness))
    return (0 if verdict.compatible else 1), payload


def _cmd_states(args):
    logic = _logic(args.logic)
    try:
        poly = state_polytope(logic, budget=args.budget)
    except EmptyStateSpace:
        return 1, {"command": "states", "verdict": "empty_state_space"}
    return 0, {
        "command": "states",
        "vertex_count": len(poly.vertices),
        "vertices": [_state_payload(v) for v in poly.vertices],
    }


def _cmd_check(args):
    logic = _logic(args.logic)
    cond = args.condition.upper()
    if cond == "F":
        rep = check_condition_F(logic)
        payload = {"command": "check", "condition": "F", "holds": rep.holds}
        if rep.holds:
            payload["witness_state"] = _state_payload(rep.witness)
        else:
            payload["failing_element"] = logic.labels[rep.failing_element]
        return (0 if rep.holds else 1), payload
    if cond == "G":
        rep = check_condition_G(logic, budget=args.budget)
        payload = {"command": "check", "condition": "G", "holds": rep.holds}
        if not rep.holds:
            payload["failure_kind"] = rep.failure_kind
            payload["element"] = logic.labels[rep.element]
            if rep.witnesses:
                payload["witnesses"] = [_state_payload(w) for w in rep.witnesses]
            if rep.vertex is not None:
                payload["vertex"] = _state_payload(rep.vertex)
        return (0 if rep.holds else 1), payload
    if cond == "H":
        rep = check_condition_H(logic, budget=args.budget)
        payload = {"command": "check", "condition": "H", "holds": rep.holds}
        payload["vacuous_premises"] = _labels(logic, rep.vacuous_premises)
        if not rep.holds:
            e, f = rep.violating_pair
            payload["violating_pair"] = [logic.labels[e], logic.labels[f]]
            payload["evidence_state"] = _state_payload(rep.evidence)
        return (0 if rep.holds else 1), payload
    raise LogicInputError(f"unknown condition {args.condition!r}")


def _cmd_condprob(args):
    logic, base = _load_state(args.state)
    e = logic.index(args.given)
    res = conditional_probability(logic, base, e)
    payload = {
        "command": "condprob",
        "given": args.given,
        "kind": res.kind,
    }
    if res.kind == "unique":
        payload["state"] = _state_payload(res.state)
    elif res.kind == "non_unique":
        payload["witnesses"] = [_state_payload(w) for w in res.witnesses]
    return (0 if res.kind == "unique" else 1), payload


def _cmd_transprob(args):
    logic = _logic(args.logic)
    f = logic.index(args.future)
    e = logic.index(args.given)
    res = transition_probability(logic, f, e)
    payload = {
        "command": "transprob",
        "future": args.future, "given": args.given,
        "exists": res.exists,
    }
    if res.exists:
        payload["value"] = format_rational(res.value)
    else:
        payload["range"] = [format_rational(res.low), format_rational(res.high)]
    return (0 if res.exists else 1), payload


def _cmd_autos(args):
    logic = _logic(args.logic)
    autos = automorphisms(logic, budget=args.budget)
    return 0, {
        "command": "autos",
        "count": len(autos),
        "automorphisms": [
            {logic.labels[e]: logic.labels[t.map[e]] for e in range(logic.n)}
            for t in autos
        ],
    }


def _cmd_product(args):
    factor = _logic(args.logic)
    comp = boolean_product(factor)
    payload = {
        "command": "product",
        "factor_elements": comp.factor.n,
        "ambient_elements": comp.ambient.n,
        **structural_verdicts(comp),
    }
    if args.out:
        _write_json(args.out, comp.to_dict())
        payload["written"] = args.out
    else:
        payload["composite"] = comp.to_dict()
    return 0, payload


def _cmd_check_I(args):
    comp = _load_composite(args.composite)
    rep = check_condition_I(comp, budget=args.budget)
    return (0 if rep.holds else 1), {
        "command": "check-I", "holds": rep.holds,
    }


def _cmd_check_J(args):
    comp = _load_composite(args.composite)
    rep = check_condition_J(comp)
    payload = {"command": "check-J", "holds": rep.holds}
    if not rep.holds:
        e, f = rep.failing_pair
        payload["failing_pair"] = [comp.factor.labels[e], comp.factor.labels[f]]
        payload["meet"] = (None if rep.meet is None
                           else comp.ambient.labels[rep.meet])
    return (0 if rep.holds else 1), payload


def _load_morphism(path: str):
    data = _read_object(path, "morphism", ("source", "target", "map"))
    base = Path(path).parent
    source = _logic(data["source"], base)
    target = _logic(data["target"], base)
    mapping = _list_of(data["map"], int, "morphism map")
    return validate_morphism(source, target, mapping)


def _cmd_lemma1(args):
    mor = _load_morphism(args.morphism)
    source, target = mor.source, mor.target
    checked = []
    if args.e1 is not None and args.e2 is not None:
        pairs = [(source.index(args.e1), source.index(args.e2))]
    else:
        pairs = []
        for e1 in range(source.n):
            if mor.map[e1] == target.zero:
                continue
            for e2 in range(source.n):
                tp = _transition_or_none(source, e2, e1)
                if tp is not None and tp.exists:
                    pairs.append((e1, e2))
    try:
        for e1, e2 in pairs:
            rep = check_lemma1a(mor, e1, e2)
            checked.append({
                "pair": [source.labels[e1], source.labels[e2]],
                "value": format_rational(rep.source_value),
            })
        atom_checks = []
        if source is target and len(set(mor.map)) == source.n:
            auto = validate_automorphism(source, mor.map)
            for f in source.atoms:
                check_lemma1b(auto, f)
                atom_checks.append(source.labels[f])
    except LemmaViolated as exc:
        return 1, {"command": "lemma1", "holds": False, "detail": str(exc)}
    return 0, {
        "command": "lemma1", "holds": True,
        "pairs_checked": checked,
        "atoms_checked": atom_checks,
    }


def _cmd_lemma2(args):
    comp = _load_composite(args.composite)
    factor = comp.factor
    if args.events:
        e1, e2, f1, f2 = (factor.index(lbl) for lbl in args.events)
        tuples = [(e1, e2, f1, f2)]
    else:
        defined = []
        for a in range(factor.n):
            for b in range(factor.n):
                tp = _transition_or_none(factor, b, a)
                if tp is not None and tp.exists:
                    defined.append((a, b))
        tuples = [(e1, e2, f1, f2)
                  for e1, e2 in defined for f1, f2 in defined]
    try:
        for tup in tuples:
            check_lemma2(comp, *tup)
    except LemmaViolated as exc:
        return 1, {"command": "lemma2", "holds": False, "detail": str(exc)}
    return 0, {"command": "lemma2", "holds": True, "tuples_checked": len(tuples)}


def _cmd_lemma3(args):
    comp = _load_composite(args.composite)
    factor = comp.factor
    if args.atoms:
        pairs = [(factor.index(args.atoms[0]), factor.index(args.atoms[1]))]
    else:
        pairs = [(e, f) for e in factor.atoms for f in factor.atoms]
    if args.state:
        _, rho = _load_state(args.state)
        rhos = [rho]
    else:
        rhos = list(state_polytope(comp.ambient, budget=args.budget).vertices)
    try:
        for rho in rhos:
            for e, f in pairs:
                check_lemma3(comp, e, f, rho)
    except LemmaViolated as exc:
        return 1, {"command": "lemma3", "holds": False, "detail": str(exc)}
    return 0, {
        "command": "lemma3", "holds": True,
        "states_checked": len(rhos), "atom_pairs_checked": len(pairs),
    }


def _clone_problem(args):
    comp = _load_composite(args.composite)
    factor = comp.factor
    C = [factor.index(lbl) for lbl in args.C.split(",") if lbl]
    f = factor.index(args.f)
    return CloneProblem(comp, C, f)


def _pairwise_payload(problem, table):
    factor = problem.composite.factor
    return {
        f"P({factor.labels[e2]}|{factor.labels[e1]})":
            (format_rational(tp.value) if tp.exists else "undefined")
        for (e1, e2), tp in sorted(table.items())
    }


def _cmd_clone_search(args):
    problem = _clone_problem(args)
    report = clone_search(problem, budget=args.budget)
    factor = problem.composite.factor
    ambient = problem.composite.ambient
    payload = {
        "command": "clone-search",
        "C": _labels(factor, problem.C),
        "blank": factor.labels[problem.f],
        "cloner_found": report.cloner is not None,
        "pairwise": _pairwise_payload(problem, report.pairwise),
        "orthogonal": report.orthogonal,
        "theorem_consistent": report.theorem_consistent,
        "candidates_scanned": report.scanned,
    }
    if report.cloner is not None:
        payload["cloner"] = {
            ambient.labels[e]: ambient.labels[report.cloner.map[e]]
            for e in ambient.atoms
        }
    return (0 if report.theorem_consistent else 1), payload


def _cmd_certify(args):
    problem = _clone_problem(args)
    cert = theorem1_certificate(problem, budget=args.budget)
    factor = problem.composite.factor
    return 0, {
        "command": "certify-theorem1",
        "holds": cert.holds,
        "pairs": [
            {
                "pair": [factor.labels[p.pair[0]], factor.labels[p.pair[1]]],
                "transition": format_rational(p.transition),
                "direct": format_rational(p.direct),
                "pulled_back": format_rational(p.pulled_back),
            }
            for p in cert.pairs
        ],
    }


# ---------------------------------------------------------------------------
# hilbert subcommands
# ---------------------------------------------------------------------------

def _cmd_hilbert(args):
    tol = args.tolerance
    if not tol > 0:  # a NaN or negative tolerance fails every check
        raise LogicInputError(f"--tolerance must be positive, got {tol}")
    sub = args.hilbert_command
    if sub == "condprob":
        a = hb.DensityOperator(_load_matrix(args.density), tol)
        e = hb.ProjectionOperator(_load_matrix(args.e), tol)
        f = hb.ProjectionOperator(_load_matrix(args.f), tol)
        value = hb.trace_cond_prob(a, e, f, tol)
        return 0, {"command": "hilbert condprob",
                   "value": min(max(value, 0.0), 1.0), "raw": value}
    if sub == "transition":
        e = hb.ProjectionOperator(_load_matrix(args.e), tol)
        f = hb.ProjectionOperator(_load_matrix(args.f), tol)
        s = hb.transition_exists(e, f, tol)
        payload = {"command": "hilbert transition", "exists": s is not None}
        if s is not None:
            payload["value"] = s
        return (0 if s is not None else 1), payload
    if sub == "atom":
        xi = hb.PureVector(_parse_vector(args.xi), tol)
        f = hb.ProjectionOperator(_load_matrix(args.f), tol)
        return 0, {"command": "hilbert atom",
                   "value": hb.atom_transition(xi, f)}
    if sub == "embed":
        if args.other_dim < 1:
            raise LogicInputError(
                f"--other-dim must be positive, got {args.other_dim}")
        e = hb.ProjectionOperator(_load_matrix(args.e), tol)
        emb = hb.tensor_embed(e, args.side, args.other_dim)
        return 0, {"command": "hilbert embed",
                   "dim": emb.dim, "rank": emb.rank(),
                   "matrix": [[[float(x.real), float(x.imag)] for x in row]
                              for row in emb.matrix]}
    if sub == "lemma2":
        if args.dim < 1 or args.trials < 1 or args.seed < 0:
            raise LogicInputError("--dim and --trials must be positive "
                                  "and --seed non-negative")
        rng = np.random.default_rng(args.seed)
        worst = 0.0
        for _ in range(args.trials):
            ps = [hb.random_rank1_projection(rng, args.dim) for _ in range(4)]
            rep = hb.lemma2_matrix_check(*ps, tol=tol)
            worst = max(worst, rep.residual)
        return 0, {"command": "hilbert lemma2", "trials": args.trials,
                   "dim": args.dim, "seed": args.seed,
                   "max_residual": worst, "tolerance": tol}
    if sub == "clone-test":
        U = hb.UnitaryOperator(_load_matrix(args.unitary), tol)
        C = [hb.PureVector(_parse_vector(t), tol) for t in args.C.split(";")]
        f = hb.PureVector(_parse_vector(args.f), tol)
        ok = hb.test_unitary_cloner(U, C, f, tol)
        return (0 if ok else 1), {"command": "hilbert clone-test", "clones": ok}
    if sub == "no-cloning":
        xi1 = hb.PureVector(_parse_vector(args.xi1), tol)
        xi2 = hb.PureVector(_parse_vector(args.xi2), tol)
        rep = hb.no_cloning_witness(xi1, xi2, tol)
        return 0, {"command": "hilbert no-cloning",
                   "overlap": rep.overlap, "squared": rep.squared,
                   "cloneable": rep.cloneable,
                   "notes": list(rep.notes)}
    raise LogicInputError(f"unknown hilbert subcommand {sub!r}")


def _cmd_fixture(args):
    if args.fixture_command == "list":
        return 0, {"command": "fixture list", "names": list(fixture_names())}
    fx = load_fixture(args.name)
    if args.fixture_command == "info":
        return 0, {"command": "fixture info", "name": fx.name,
                   "kind": fx.kind, "annotations": fx.annotations}
    if args.fixture_command == "export":
        _write_json(args.path, fx.data)
        return 0, {"command": "fixture export", "name": fx.name,
                   "written": args.path}
    raise LogicInputError(f"unknown fixture subcommand {args.fixture_command!r}")


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def non_negative_int(text: str) -> int:
    """The type of every ``--budget``: 0 is legal and exhausts at once."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlogic",
        description="event logics, exact conditional probabilities, "
                    "and no-cloning certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("human", "json"), default="human")

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, parents=[fmt], **kwargs)
        p.set_defaults(handler=handler)
        return p

    def add_budget(p, default):
        p.add_argument("--budget", type=non_negative_int, default=default)

    p = add("validate", _cmd_validate, help="check the axioms of a logic file")
    p.add_argument("logic")

    p = add("atoms", _cmd_atoms, help="list the atoms of a logic")
    p.add_argument("logic")

    p = add("compat", _cmd_compat, help="test compatibility of a subset")
    p.add_argument("logic")
    p.add_argument("--members", required=True,
                   help="comma-separated element labels")
    add_budget(p, DEFAULT_NODE_BUDGET)

    p = add("states", _cmd_states, help="enumerate the state polytope")
    p.add_argument("logic")
    add_budget(p, DEFAULT_VERTEX_BUDGET)

    p = add("check", _cmd_check, help="check a state-space condition")
    p.add_argument("condition", choices=("F", "G", "H"))
    p.add_argument("logic")
    add_budget(p, DEFAULT_VERTEX_BUDGET)

    p = add("condprob", _cmd_condprob,
            help="condition the state in a state file on an event")
    p.add_argument("state", help="state file carrying its logic")
    p.add_argument("--given", required=True, help="conditioning element label")

    p = add("transprob", _cmd_transprob,
            help="state-independent transition probability")
    p.add_argument("logic")
    p.add_argument("future", help="future event label")
    p.add_argument("given", help="conditioning event label")

    p = add("autos", _cmd_autos, help="enumerate the automorphism group")
    p.add_argument("logic")
    add_budget(p, DEFAULT_SEARCH_BUDGET)

    p = add("product", _cmd_product,
            help="product of a Boolean logic with itself")
    p.add_argument("logic")
    p.add_argument("-o", "--out", help="write the composite to a file")

    p = add("check-I", _cmd_check_I,
            help="mutual compatibility of the embedded copies")
    p.add_argument("composite")
    add_budget(p, DEFAULT_NODE_BUDGET)

    p = add("check-J", _cmd_check_J,
            help="embedded atom meets must be atoms")
    p.add_argument("composite")

    p = add("lemma1", _cmd_lemma1,
            help="transition invariance under a morphism")
    p.add_argument("morphism")
    p.add_argument("--e1")
    p.add_argument("--e2")

    p = add("lemma2", _cmd_lemma2,
            help="product identity for transitions on a composite")
    p.add_argument("composite")
    p.add_argument("--events", nargs=4, metavar=("E1", "E2", "F1", "F2"))

    p = add("lemma3", _cmd_lemma3,
            help="restriction equivalence for atomic states")
    p.add_argument("composite")
    p.add_argument("--atoms", nargs=2, metavar=("E", "F"))
    p.add_argument("--state", help="state file; default: sweep all vertices")
    add_budget(p, DEFAULT_VERTEX_BUDGET)

    p = add("clone-search", _cmd_clone_search,
            help="search all ambient automorphisms for a cloner")
    p.add_argument("--composite", required=True)
    p.add_argument("--C", required=True, help="comma-separated factor atoms")
    p.add_argument("--f", required=True, help="blank factor atom")
    add_budget(p, DEFAULT_SEARCH_BUDGET)

    p = add("certify-theorem1", _cmd_certify,
            help="replay the no-cloning forcing argument numerically")
    p.add_argument("--composite", required=True)
    p.add_argument("--C", required=True)
    p.add_argument("--f", required=True)
    add_budget(p, DEFAULT_SEARCH_BUDGET)

    common = argparse.ArgumentParser(add_help=False, parents=[fmt])
    common.add_argument("--tolerance", type=float, default=hb.DEFAULT_TOL)
    hp = sub.add_parser("hilbert", help="matrix-model computations")
    hp.set_defaults(handler=_cmd_hilbert, format="human")
    hsub = hp.add_subparsers(dest="hilbert_command", required=True)
    q = hsub.add_parser("condprob", parents=[common])
    q.add_argument("--density", required=True)
    q.add_argument("--e", required=True)
    q.add_argument("--f", required=True)
    q = hsub.add_parser("transition", parents=[common])
    q.add_argument("--e", required=True)
    q.add_argument("--f", required=True)
    q = hsub.add_parser("atom", parents=[common])
    q.add_argument("--xi", required=True, help="inline vector, e.g. '1,0'")
    q.add_argument("--f", required=True)
    q = hsub.add_parser("embed", parents=[common])
    q.add_argument("--e", required=True)
    q.add_argument("--side", choices=("first", "second"), required=True)
    q.add_argument("--other-dim", type=int, required=True)
    q = hsub.add_parser("lemma2", parents=[common])
    q.add_argument("--dim", type=int, default=3)
    q.add_argument("--trials", type=int, default=100)
    q.add_argument("--seed", type=int, default=0)
    q = hsub.add_parser("clone-test", parents=[common])
    q.add_argument("--unitary", required=True)
    q.add_argument("--C", required=True, help="semicolon-separated vectors")
    q.add_argument("--f", required=True)
    q = hsub.add_parser("no-cloning", parents=[common])
    q.add_argument("--xi1", required=True)
    q.add_argument("--xi2", required=True)

    p = sub.add_parser("fixture", help="bundled example logics")
    p.set_defaults(handler=_cmd_fixture, format="human")
    fsub = p.add_subparsers(dest="fixture_command", required=True)
    fsub.add_parser("list", parents=[fmt])
    q = fsub.add_parser("info", parents=[fmt])
    q.add_argument("name")
    q = fsub.add_parser("export", parents=[fmt])
    q.add_argument("name")
    q.add_argument("path")

    return parser


def _render_human(payload, indent=0) -> str:
    lines = []
    pad = "  " * indent
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.append(_render_human(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
    elif isinstance(payload, list):
        for item in payload:
            if isinstance(item, (dict, list)):
                lines.append(_render_human(item, indent))
                lines.append(pad + "-")
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{payload}")
    return "\n".join(line for line in lines if line)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload = args.handler(args)
    except QLogicError as exc:
        code, payload = exc.exit_code, {"command": args.command,
                                        "error": exc.kind, "detail": str(exc)}
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(_render_human(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
