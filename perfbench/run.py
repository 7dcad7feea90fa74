"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload greechie-lp --seed 1 --seconds 28 --trace 0

Run from the root of a checkout.  The workload runs in a child process
(``worker.py``) with BLAS/OpenMP pinned to one thread, so that
``peak_rss_mb`` is the peak resident set of that workload alone.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("greechie-lp", "clone-sweep", "cli-calculus")
TIMEOUT_S = 170
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qlogic" / "__init__.py").is_file():
        print(f"no qlogic sources under {root / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({name: "1" for name in SINGLE_THREAD})
    scratch = root / ".perfbench_tmp" / str(os.getpid())
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch)]
    try:
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                                text=True)
        try:
            out, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"workload did not finish within {TIMEOUT_S} s",
                  file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run is using it, or it was never created
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    for name, metric in result["metrics"].items():
        print(f"{name:<45} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
