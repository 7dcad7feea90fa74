"""Regenerate reference.json: the greechie-lp query pool and the digest of
every exact operation's output in every workload's query space.

    python3 perfbench/make_reference.py

Run it from the root of a checkout of the commit whose outputs are the
reference (the commit that added this benchmark).  The benchmark fails
any operation whose output differs from its stored digest, which is how
it holds later commits to byte-identical output.  Takes a few minutes:
choosing the pool solves one large LP per atom of ``nonfaithful``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOL_SIZE = 24


def greechie_pool(workdir: Path) -> list:
    """Ordered atom pairs (future, given) of ``nonfaithful`` whose given
    atom carries some state, with the exit code the seed commit gives.

    Atoms on which every state vanishes are left out: a transition from
    them is one infeasible LP ending in exit 2, which ``check F
    stateless`` already times."""
    from qlogic.states import reduced_space
    from workloads import export, fresh_logic, run_cli

    export(workdir, ["nonfaithful"])
    logic = fresh_logic(workdir / "nonfaithful.json")
    space = reduced_space(logic)
    live = [a for a in logic.atoms if space.feasible(space.face_rows(a))]
    rng = random.Random("greechie-pool")
    pairs = [(f, e) for e in live for f in logic.atoms if f != e]
    pool = []
    for f, e in rng.sample(pairs, POOL_SIZE):
        future, given = logic.labels[f], logic.labels[e]
        code, _ = run_cli(["transprob", str(workdir / "nonfaithful.json"),
                           future, given, "--format", "json"])
        pool.append([future, given, code])
        print(f"pool {future} {given} exit {code}", file=sys.stderr)
    return pool


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    reference = {"greechie_pool": [], "outputs": {}}
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        reference["greechie_pool"] = greechie_pool(Path(tmp))
        for name, cls in WORKLOADS.items():
            workdir = Path(tmp) / name
            workdir.mkdir()
            outputs = {}
            for op in cls(reference).all_ops(workdir):
                text, problems = op.judge(op.call())
                if problems:
                    raise SystemExit(f"{name}: {op.key}: {problems}")
                if op.exact:
                    outputs[op.key] = hashlib.sha256(text.encode()).hexdigest()
            reference["outputs"][name] = outputs
            print(f"{name}: {len(outputs)} outputs", file=sys.stderr)
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
