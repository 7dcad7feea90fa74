"""The benchmark's operations, run in process, against their stored outputs.

``perfbench/reference.json`` holds the SHA-256 of the exit code and
stdout of every exact operation in the query spaces of the cli-calculus
and greechie-lp workloads, as the benchmark's seed commit printed them.
The benchmark fails an operation whose output moves; this runs every
such operation once through ``perfbench/workloads.py``, so that a moved
output fails here too, named by its operation.  Operations whose output
is not exact (the ``hilbert`` floats) and the clone problems of
clone-sweep, which are library calls, are held to their workload's
invariant judges instead.
"""

import hashlib
import json

import pytest

from perfbench_import import PERFBENCH, load

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(
    encoding="utf-8"))
EXACT = ("cli-calculus", "greechie-lp")
CASES = [(name, key) for name in EXACT
         for key in sorted(REFERENCE["outputs"][name])]


@pytest.fixture(scope="module")
def workloads():
    return load("workloads")


@pytest.fixture(scope="module")
def outputs(workloads, tmp_path_factory):
    """{workload: {operation key: [(exact, digest, problems), ...]}} over
    every operation of ``all_ops``."""
    results = {}
    for name in EXACT:
        workdir = tmp_path_factory.mktemp(name)
        runs = results[name] = {}
        for op in workloads.WORKLOADS[name](REFERENCE).all_ops(workdir):
            text, problems = op.judge(op.call())
            digest = hashlib.sha256(text.encode()).hexdigest()
            runs.setdefault(op.key, []).append((op.exact, digest, problems))
    return results


@pytest.mark.parametrize("workload, key", CASES,
                         ids=[f"{name}: {key}" for name, key in CASES])
def test_output_matches_reference(outputs, workload, key):
    runs = outputs[workload].get(key)
    assert runs, f"{key}: no operation of {workload} has this key"
    want = REFERENCE["outputs"][workload][key]
    for exact, digest, problems in runs:
        assert exact and not problems, f"{key}: {problems}"
        assert digest == want, f"{key}: output differs from the reference"


@pytest.mark.parametrize("workload", EXACT)
def test_every_exact_operation_has_a_reference(outputs, workload):
    exact = {key for key, runs in outputs[workload].items()
             if any(exact for exact, _, _ in runs)}
    assert exact == set(REFERENCE["outputs"][workload])


@pytest.mark.parametrize("workload", EXACT)
def test_inexact_operations_keep_their_invariants(outputs, workload):
    broken = {key: problems for key, runs in outputs[workload].items()
              for exact, _, problems in runs if not exact and problems}
    assert broken == {}


def test_clone_problems_pass_their_judge(workloads, tmp_path):
    # every clone problem on prod22 and prod33, each on its workload's
    # cold composite; the automorphism listings are left to the benchmark
    ops = workloads.WORKLOADS["clone-sweep"](REFERENCE).all_ops(tmp_path)
    problems = [op for op in ops if not op.key.startswith("automorphisms")]
    assert len(problems) == 27
    broken = {}
    for op in problems:
        _, failures = op.judge(op.call())
        if failures:
            broken[op.key] = failures
    assert broken == {}
