"""The three benchmark workloads: set-up, seeded queries and verdict oracles.

A workload is run as repetitions.  ``setup`` exports the fixture files a
repetition needs into a fresh directory, draws the repetition's queries
from its own random generator and builds any library objects it needs,
so every repetition starts with cold per-logic caches.  It returns the
repetition's operations.  An operation is one CLI invocation or one
library call; ``judge`` turns its result into a canonical text plus the
list of invariants it broke (empty when the verdict is right).  For CLI
operations the text is the exit code and stdout, which the stored
seed-commit reference hashes.  Library operations are judged by their
invariants only; their text serves the traced/untraced comparison.

Each workload pins the percentile its ``verdict_tail_ms`` reports
(``tail_percentile``): the highest that left at least ten samples beyond
it at the seed commit, or the median where no percentile did.  A fixed
percentile keeps the tail on the same kind of operation however fast the
program runs.

Which workload exercises which layer, and why, is in NOTES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# Timed calls go through module attributes so that the span wrappers,
# which replace the bindings inside qlogic, see them.
import qlogic.cli as cli
import qlogic.cloning as cloning
import qlogic.morphisms as morphisms
from qlogic.builders import boolean_algebra, mo_logic
from qlogic.composite import composite_from_dict
from qlogic.core import LogicDescription, validate_logic
from qlogic.states import state_polytope

MAX_ELEMENTS = 1024


@dataclass
class Op:
    key: str                                  # reference key, paths as @name
    call: Callable[[], object]                # the timed work
    judge: Callable[[object], tuple[str, list[str]]]
    cli: bool = True
    # whether the text is held to the seed-commit reference: False for
    # library results (search statistics and enumeration order are not
    # output) and for floats whose last digits depend on the BLAS/LAPACK
    # kernels the CPU selects
    exact: bool = True


def run_cli(argv):
    """One in-process CLI invocation; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_op(template, workdir: Path, expect, exact=True) -> Op:
    """``template`` names fixture files as ``@name``; ``expect(code,
    payload)`` returns the broken invariants."""
    argv = [str(workdir / f"{t[1:]}.json") if t.startswith("@") else t
            for t in template] + ["--format", "json"]

    def judge(result):
        code, out = result
        try:
            payload = json.loads(out)
        except ValueError:
            return f"exit={code}\n{out}", ["stdout is not one JSON document"]
        problems = [] if code in (0, 1) or payload.get("error") else [
            f"exit code {code} without an error payload"]
        if code == 3:
            problems.append("budget exhausted (exit 3)")
        problems += expect(code, payload)
        return f"exit={code}\n{out}", problems

    return Op(" ".join(template), lambda: run_cli(argv), judge, exact=exact)


def export(workdir: Path, names) -> None:
    for name in names:
        code, _ = run_cli(["fixture", "export", name,
                           str(workdir / f"{name}.json")])
        if code != 0:
            raise RuntimeError(f"fixture export {name} exited {code}")


def annotations(name: str) -> dict:
    code, out = run_cli(["fixture", "info", name, "--format", "json"])
    if code != 0:
        raise RuntimeError(f"fixture info {name} exited {code}")
    return json.loads(out)["annotations"]


def fresh_logic(path: Path):
    """A validated logic read from a file; callers discard it after drawing."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return validate_logic(LogicDescription.from_dict(data),
                          max_elements=MAX_ELEMENTS)


def fresh_composite(path: Path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return composite_from_dict(data, lambda ref: validate_logic(
        LogicDescription.from_dict(ref), max_elements=MAX_ELEMENTS))


# ---------------------------------------------------------------------------
# verdict oracles shared by the CLI workloads
# ---------------------------------------------------------------------------

def expect_condition(cond: str, holds: bool):
    def check(code, payload):
        out = []
        if payload.get("holds") is not holds:
            out.append(f"condition {cond} holds={payload.get('holds')}, "
                       f"manifest says {holds}")
        if code != (0 if holds else 1):
            out.append(f"exit {code} for holds={holds}")
        return out
    return check


def expect_transition(future: str, given: str, want_exit=None,
                      pinned: str | None = None):
    """A transition payload that is internally consistent; ``pinned`` is a
    value fixed by the structure (1 for e = f, 0 for orthogonal atoms)."""
    def check(code, payload):
        out = []
        if want_exit is not None and code != want_exit:
            out.append(f"exit {code}, expected {want_exit}")
        if (payload.get("future"), payload.get("given")) != (future, given):
            out.append("payload names the wrong pair")
        exists = payload.get("exists")
        if code != (0 if exists else 1):
            out.append(f"exit {code} for exists={exists}")
        if exists:
            if not 0 <= Fraction(payload["value"]) <= 1:
                out.append(f"value {payload['value']} outside [0, 1]")
        elif exists is False:
            lo, hi = (Fraction(t) for t in payload["range"])
            if not 0 <= lo < hi <= 1:
                out.append(f"range {payload['range']} is not a proper "
                           "subinterval of [0, 1]")
        if pinned is not None and payload.get("value") != pinned:
            out.append(f"P({future}|{given}) should be {pinned}")
        return out
    return check


def expect_holds(code, payload):
    out = [] if payload.get("holds") is True else ["lemma does not hold"]
    return out + ([] if code == 0 else [f"exit {code}"])


# ---------------------------------------------------------------------------
# greechie-lp: large exact LPs on the two Greechie pastings
# ---------------------------------------------------------------------------

class GreechieLP:
    """``check F`` on both pastings plus two ``transprob`` queries on
    ``nonfaithful`` per repetition, drawn from the stored pool."""

    name = "greechie-lp"
    tail_percentile = 50    # 8 samples at the seed commit: none has ten beyond
    fixtures = ("nonfaithful", "stateless")

    def __init__(self, reference: dict):
        self.pool = reference["greechie_pool"]
        self.ann = {n: annotations(n) for n in self.fixtures}

    def fixed_ops(self, workdir):
        ann = self.ann
        return [
            cli_op(["check", "F", "@nonfaithful"], workdir,
                   expect_condition("F", ann["nonfaithful"]["F"])),
            cli_op(["check", "F", "@stateless"], workdir,
                   self._expect_empty),
        ]

    def _expect_empty(self, code, payload):
        if not self.ann["stateless"].get("empty_state_space"):
            return ["manifest no longer marks stateless as empty"]
        if code != 1 or payload.get("error") != "empty_state_space":
            return [f"exit {code} / {payload.get('error')}, expected 1 / "
                    "empty_state_space"]
        return []

    def transprob_op(self, workdir, entry):
        future, given, want = entry
        return cli_op(["transprob", "@nonfaithful", future, given], workdir,
                      expect_transition(future, given, want_exit=want))

    def setup(self, rng, workdir):
        export(workdir, self.fixtures)
        ops = self.fixed_ops(workdir)
        ops += [self.transprob_op(workdir, e) for e in rng.sample(self.pool, 2)]
        rng.shuffle(ops)
        return ops

    def all_ops(self, workdir):
        export(workdir, self.fixtures)
        return self.fixed_ops(workdir) + [
            self.transprob_op(workdir, e) for e in self.pool]


# ---------------------------------------------------------------------------
# clone-sweep: cloner search and certificates, automorphism enumeration
# ---------------------------------------------------------------------------

def _clone_op(comp, name, C, f) -> Op:
    factor = comp.factor
    key = (f"clone {name} C={','.join(factor.labels[a] for a in C)} "
           f"f={factor.labels[f]}")

    def call():
        problem = cloning.CloneProblem(comp, C, f)
        report = cloning.clone_search(problem)
        cert = cloning.theorem1_certificate(problem, report.cloner)
        return report, cert

    def judge(result):
        report, cert = result
        problems = []
        if report.cloner is None:
            problems.append("no cloner found on a Boolean product")
        if not (report.orthogonal and report.theorem_consistent):
            problems.append("cloner found for non-orthogonal atoms")
        if not cert.holds or any(p.transition not in (0, 1)
                                 for p in cert.pairs):
            problems.append("certificate does not force {0, 1} transitions")
        text = json.dumps({
            "cloner": list(report.cloner.map) if report.cloner else None,
            "scanned": report.scanned,
            "pairwise": {f"{a},{b}": str(tp.value)
                         for (a, b), tp in sorted(report.pairwise.items())},
            "certificate": [[list(p.pair), str(p.transition), str(p.direct),
                             str(p.pulled_back)] for p in cert.pairs],
        }, sort_keys=True)
        return text, problems

    return Op(key, call, judge, cli=False, exact=False)


def _autos_op(logic, name, order) -> Op:
    def judge(autos):
        maps = [a.map for a in autos]
        distinct = len(set(maps))
        problems = []
        if len(maps) != order or distinct != order:
            problems.append(f"{distinct} distinct automorphisms, "
                            f"group order is {order}")
        if tuple(range(logic.n)) not in maps:
            problems.append("identity missing")
        # a digest, not the maps as text: tens of thousands of maps as
        # JSON would add megabytes of the benchmark's own to peak_rss_mb
        digest = hashlib.sha256()
        for m in maps:
            digest.update(repr(m).encode())
        return digest.hexdigest(), problems

    return Op(f"automorphisms {name}", lambda: morphisms.automorphisms(logic),
              judge, cli=False, exact=False)


class CloneSweep:
    """Every clone problem on prod22 and prod33 (|C| = 1..k, every blank),
    plus ``automorphisms`` on MO6 (order 2^6 6!) and B7 (order 7!)."""

    name = "clone-sweep"
    tail_percentile = 75    # 145-174 samples: among the largest prod33 problems
    fixtures = ("prod22", "prod33")

    def __init__(self, reference: dict):
        pass

    def setup(self, rng, workdir):
        """The first problem on each ambient pays for its state-condition
        LPs, about 0.4 s on prod33.  It runs first and is the same in every
        repetition; the rest run in seed-drawn order.  Were it drawn, the
        median would move by one rank with it, and the ranks around the
        median lie 20-40% apart."""
        first, rest = self._ops(workdir)
        rng.shuffle(rest)
        return first + rest

    def all_ops(self, workdir):
        first, rest = self._ops(workdir)
        return first + rest

    def _ops(self, workdir):
        """(the first problem on each ambient, all other operations)"""
        export(workdir, self.fixtures)
        first, ops = [], []
        for name in self.fixtures:
            comp = fresh_composite(workdir / f"{name}.json")
            atoms = comp.factor.atoms
            problems = [_clone_op(comp, name, C, f)
                        for size in range(1, len(atoms) + 1)
                        for C in itertools.combinations(atoms, size)
                        for f in atoms]
            first.append(problems[0])
            ops += problems[1:]
        n = 6
        ops.append(_autos_op(validate_logic(mo_logic(n)), f"MO{n}",
                             2 ** n * math.factorial(n)))
        ops.append(_autos_op(validate_logic(boolean_algebra(7)), "B7",
                             math.factorial(7)))
        return first, ops


# ---------------------------------------------------------------------------
# cli-calculus: the paper's calculus through the CLI on small logics
# ---------------------------------------------------------------------------

VECTORS = ("1,0", "0,1", "0.6,0.8", "0.8,-0.6", "0.6,0.8j",
           "0.7071067811865476,0.7071067811865476",
           "0.7071067811865476,-0.7071067811865476")
HILBERT_DIMS = (2, 3, 4)
HILBERT_SEEDS = range(16)


def _state_file(workdir, name, index, vertex) -> str:
    fname = f"{name}-vertex-{index}"
    values = [f"{v.numerator}/{v.denominator}" for v in vertex.values]
    with open(workdir / f"{fname}.json", "w", encoding="utf-8") as fh:
        json.dump({"logic": f"{name}.json", "values": values}, fh)
    return fname


def _morphism_file(workdir, index, auto) -> str:
    fname = f"boolean3-auto-{index}"
    with open(workdir / f"{fname}.json", "w", encoding="utf-8") as fh:
        json.dump({"source": "boolean3.json", "target": "boolean3.json",
                   "map": list(auto.map)}, fh)
    return fname


def expect_no_cloning(code, payload):
    s = payload.get("overlap")
    if code != 0 or s is None or not -1e-12 <= s <= 1 + 1e-12:
        return [f"exit {code}, overlap {s}"]
    out = []
    if abs(payload["squared"] - s * s) > 1e-12:
        out.append("squared overlap is not overlap^2")
    if payload["cloneable"] != (min(abs(s), abs(s - 1)) <= 1e-9):
        out.append("cloneable disagrees with the overlap")
    return out


def expect_lemma2_matrix(code, payload):
    if code != 0 or not payload.get("max_residual", 1) <= payload.get(
            "tolerance", 0):
        return [f"exit {code}, residual {payload.get('max_residual')}"]
    return []


def expect_clone_search(code, payload):
    if code == 0 and payload.get("theorem_consistent") and payload.get(
            "cloner_found") and payload.get("orthogonal"):
        return []
    return ["Boolean product: expected a cloner on orthogonal atoms"]


def expect_certificate(code, payload):
    pairs = payload.get("pairs", [])
    if code == 0 and payload.get("holds") and pairs and all(
            p["transition"] in ("0/1", "1/1") for p in pairs):
        return []
    return ["certificate does not hold with {0, 1} transitions"]


class CliCalculus:
    """One repetition runs each command of the calculus once on small
    logics, with seed-drawn automorphisms, vertex states, atom pairs,
    clone problems and matrix-model inputs."""

    name = "cli-calculus"
    tail_percentile = 95    # 231-297 samples: lemma2/lemma3 on prod33
    fixtures = ("MO2", "MO3", "boolean3", "boolean4", "prod22", "prod33",
                "nonfaithful", "stateless")
    small = ("MO2", "MO3", "boolean4")
    greechie = ("nonfaithful", "stateless")

    def __init__(self, reference: dict):
        self.ann = {n: annotations(n) for n in self.fixtures}

    # -- the query space, from fresh validated instances --------------------

    def space(self, workdir):
        export(workdir, self.fixtures)
        logic = {n: fresh_logic(workdir / f"{n}.json")
                 for n in ("boolean3", "boolean4", "MO3", "nonfaithful")}
        factor = fresh_composite(workdir / "prod22.json").factor
        sp = {"autos": morphisms.automorphisms(logic["boolean3"])}
        for name in ("boolean4", "MO3"):
            L = logic[name]
            sp[name] = [(i, v, [L.labels[e] for e in range(L.n)
                                if v[e] > 0])
                        for i, v in enumerate(state_polytope(L).vertices)]
        mo3 = logic["MO3"]
        sp["MO3_pairs"] = [(mo3.labels[f], mo3.labels[e], f == e,
                            mo3.orthogonal(f, e))
                           for f in mo3.atoms for e in mo3.atoms]
        nf = logic["nonfaithful"]
        sp["nf_orth"] = [(nf.labels[a], nf.labels[b])
                         for a, b in itertools.combinations(nf.atoms, 2)
                         if nf.orthogonal(a, b)]
        atoms = factor.atoms
        sp["clone"] = [(",".join(factor.labels[a] for a in C), factor.labels[f])
                       for size in range(1, len(atoms) + 1)
                       for C in itertools.combinations(atoms, size)
                       for f in atoms]
        sp["hilbert"] = [(d, s) for d in HILBERT_DIMS for s in HILBERT_SEEDS]
        sp["vectors"] = list(itertools.permutations(VECTORS, 2))
        return sp

    # -- operation builders ---------------------------------------------------

    def fixed_ops(self, w):
        ann = self.ann
        ops = [cli_op([cmd, f"@{p}"], w, expect_holds)
               for cmd in ("lemma2", "lemma3") for p in ("prod22", "prod33")]
        for cmd, field in (("check-I", "compat_images"),
                           ("check-J", "atom_meets")):
            ops.append(cli_op([cmd, "@prod22"], w, expect_condition(
                cmd, ann["prod22"][field] == "holds")))
        for name in self.small:
            for cond in "FGH":
                ops.append(cli_op(["check", cond, f"@{name}"], w,
                                  expect_condition(cond, ann[name][cond])))
            ops.append(cli_op(["states", f"@{name}"], w,
                              self._expect_states(name)))
        ops.append(cli_op(["autos", "@boolean4"], w,
                          self._expect_count("autos", "count",
                                             ann["boolean4"]["aut_order"])))
        for name in self.greechie:
            ops.append(cli_op(["validate", f"@{name}"], w,
                              self._expect_valid(name)))
            ops.append(cli_op(["atoms", f"@{name}"], w,
                              self._expect_count("atoms", "count",
                                                 ann[name]["atoms"])))
        return ops

    def _expect_states(self, name):
        def check(code, payload):
            verts = payload.get("vertices", [])
            if code != 0 or not verts or payload["vertex_count"] != len(verts):
                return [f"exit {code}, {len(verts)} vertices"]
            if any(v["0"] != "0/1" or v["1"] != "1/1" for v in verts):
                return ["a vertex is not normalized"]
            if self.ann[name]["boolean"] and len(verts) != self.ann[name]["atoms"]:
                return ["a Boolean logic needs one vertex per atom"]
            return []
        return check

    def _expect_count(self, what, field, want):
        def check(code, payload):
            if code != 0 or payload.get(field) != want:
                return [f"{what}: exit {code}, {field} "
                        f"{payload.get(field)}, manifest says {want}"]
            return []
        return check

    def _expect_valid(self, name):
        ann = self.ann[name]

        def check(code, payload):
            got = (code, payload.get("verdict"), payload.get("elements"),
                   payload.get("atoms"))
            want = (0, "valid", ann["n"], ann["atoms"])
            return [] if got == want else [f"validate {got}, expected {want}"]
        return check

    def lemma1_op(self, w, index):
        return cli_op(["lemma1", f"@boolean3-auto-{index}"], w, expect_holds)

    def condprob_op(self, w, name, index, given):
        boolean = self.ann[name]["boolean"]

        def check(code, payload):
            kind = payload.get("kind")
            out = []
            if code != (0 if kind == "unique" else 1):
                out.append(f"exit {code} for kind {kind}")
            if boolean and kind != "unique":
                out.append("conditionals on a Boolean logic are unique")
            if kind == "unique" and payload["state"][given] != "1/1":
                out.append("the conditional does not give the condition 1")
            if payload.get("formulation_discrepancies"):
                out.append("classical cross-check found discrepancies")
            return out

        return cli_op(["condprob", f"@{name}-vertex-{index}", "--given", given],
                      w, check)

    def mo3_transprob_op(self, w, pair):
        future, given, same, orth = pair
        pinned = "1/1" if same else "0/1" if orth else None
        return cli_op(["transprob", "@MO3", future, given], w,
                      expect_transition(future, given, pinned=pinned))

    def mo3_compat_op(self, w, pair):
        a, b, same, orth = pair

        def check(code, payload):
            # atoms of MO3 are compatible exactly when they share a block
            want = same or orth
            if payload.get("compatible") is not want or code != (
                    0 if want else 1):
                return [f"compat {a},{b}: exit {code}, expected "
                        f"compatible={want}"]
            return []
        return cli_op(["compat", "@MO3", "--members", f"{a},{b}"], w, check)

    def nf_compat_op(self, w, pair):
        def check(code, payload):
            if code != 0 or payload.get("compatible") is not True:
                return ["orthogonal atoms must be compatible"]
            return []
        return cli_op(["compat", "@nonfaithful", "--members", ",".join(pair)],
                      w, check)

    def clone_ops(self, w, problem):
        C, f = problem
        args = ["--composite", "@prod22", "--C", C, "--f", f]
        return [cli_op(["clone-search"] + args, w, expect_clone_search),
                cli_op(["certify-theorem1"] + args, w, expect_certificate)]

    def hilbert_lemma2_op(self, w, dim_seed):
        dim, seed = dim_seed
        return cli_op(["hilbert", "lemma2", "--dim", str(dim), "--trials",
                       "100", "--seed", str(seed)], w, expect_lemma2_matrix,
                      exact=False)

    def no_cloning_op(self, w, vectors):
        return cli_op(["hilbert", "no-cloning", "--xi1", vectors[0],
                       "--xi2", vectors[1]], w, expect_no_cloning,
                      exact=False)

    # -- repetitions ----------------------------------------------------------

    def setup(self, rng, w):
        sp = self.space(w)
        ops = self.fixed_ops(w)
        index = rng.randrange(len(sp["autos"]))
        _morphism_file(w, index, sp["autos"][index])
        ops.append(self.lemma1_op(w, index))
        for name in ("boolean4", "MO3"):
            index, vertex, givens = rng.choice(sp[name])
            _state_file(w, name, index, vertex)
            ops.append(self.condprob_op(w, name, index, rng.choice(givens)))
        ops.append(self.mo3_transprob_op(w, rng.choice(sp["MO3_pairs"])))
        ops.append(self.mo3_compat_op(w, rng.choice(
            [p for p in sp["MO3_pairs"] if not p[2]])))
        ops.append(self.nf_compat_op(w, rng.choice(sp["nf_orth"])))
        ops += self.clone_ops(w, rng.choice(sp["clone"]))
        ops.append(self.hilbert_lemma2_op(w, rng.choice(sp["hilbert"])))
        ops.append(self.no_cloning_op(w, rng.choice(sp["vectors"])))
        rng.shuffle(ops)
        return ops

    def all_ops(self, w):
        sp = self.space(w)
        ops = self.fixed_ops(w)
        for index, auto in enumerate(sp["autos"]):
            _morphism_file(w, index, auto)
            ops.append(self.lemma1_op(w, index))
        for name in ("boolean4", "MO3"):
            for index, vertex, givens in sp[name]:
                _state_file(w, name, index, vertex)
                ops += [self.condprob_op(w, name, index, g) for g in givens]
        ops += [self.mo3_transprob_op(w, p) for p in sp["MO3_pairs"]]
        ops += [self.mo3_compat_op(w, p) for p in sp["MO3_pairs"] if not p[2]]
        ops += [self.nf_compat_op(w, p) for p in sp["nf_orth"]]
        for problem in sp["clone"]:
            ops += self.clone_ops(w, problem)
        ops += [self.hilbert_lemma2_op(w, p) for p in sp["hilbert"]]
        ops += [self.no_cloning_op(w, v) for v in sp["vectors"]]
        return ops


WORKLOADS = {w.name: w for w in (GreechieLP, CloneSweep, CliCalculus)}
