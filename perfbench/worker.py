"""Runs one workload in this process and prints its figures.

Started by ``run.py`` with the checkout as working directory; imports
qlogic from ``src/`` of that checkout and nowhere else.  The last line of
stdout is one JSON object for ``run.py``; the lines before it are for
people.  Exit code 0 means the workload ran to the end, whatever the
verdicts; 2 means it could not start.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
MAX_FAILURE_LINES = 5

# The 2-core machine this benchmark was written on alternates, every few
# seconds, between CPU speed states about 1.5x apart (neighbouring load on
# shared cores).  Over one run that moved the wall time of a repetition
# by up to 45% (IQR/median 0.28 for cli-calculus, 0.16 for clone-sweep).
# Every reported time is therefore scaled to a reference speed: a fixed
# pure-Python probe (exact Fraction arithmetic and dict stores, like the
# LP and search code) runs every PROBE_EVERY_S from an interval timer, in
# the middle of operations too, and an interval's wall time, less the
# probes in it, is multiplied by REF_PROBE_S over the median duration of
# the probes that ended within PROBE_WINDOW_S of it.  That brought the
# same spreads down to 0.065 and 0.072.  Probing inside operations, not
# only between them, halved the run-to-run variation of a 2.5 s operation
# (coefficient of variation 0.11 to 0.06).  REF_PROBE_S is near the
# probe's median duration on that machine, so reference seconds read
# roughly as its wall seconds.
REF_PROBE_S = 0.012
PROBE_EVERY_S = 0.25
PROBE_WINDOW_S = 1.0
PROBE_TERMS = 2000

# Set-up is timed several times per run and the median reported.  The
# import, the bulk of it, is timed in fresh interpreters: the worker's own
# import happens once, and one sample of it spread too much from run to
# run.  Each interpreter scales its import time by the probe it runs right
# after it; the worker's probes were no help, as the child need not run
# on the worker's core.
IMPORT_SAMPLES = 7
SETUP_SAMPLES = 9
IMPORT_CODE = """
import sys, time
sys.path[:0] = sys.argv[1:]
t = time.perf_counter()
import qlogic.cli
t = time.perf_counter() - t
from worker import timed_probe
print(t, sorted(timed_probe() for _ in range(3))[1])
"""

# The traced run fails when the operations' summed self times differ from
# their untraced twins' summed latencies, raised by the median tracing
# overhead, by more than this share.  Summed over a run the gap stayed
# below 0.05; a single pair of twins differed by up to the whole latency
# (machine noise, not the collector), so no per-operation bound holds.
SELF_GAP_NOISE = 0.15


def timed_probe() -> float:
    """Seconds the fixed probe takes."""
    t0 = perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, PROBE_TERMS):
        total += Fraction(1, i)
        seen[i] = total
    return perf_counter() - t0


class Clock:
    """Probe durations over time, to scale wall times to reference speed.

    Between ``start`` and ``stop`` a timer signal runs the probe every
    PROBE_EVERY_S.  ``now`` is wall time less the time spent in probes, so
    no interval measured with it holds a probe."""

    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []
        self.stolen = 0.0
        self._probing = False

    def now(self) -> float:
        while True:
            stolen = self.stolen
            t = perf_counter()
            if self.stolen == stolen:  # no probe ran in between
                return t - stolen

    def probe(self, *_signal) -> None:
        if self._probing:  # the timer fired during a probe
            return
        self._probing = True
        t0 = perf_counter()
        duration = timed_probe()
        self.stolen += perf_counter() - t0
        self.durations.append(duration)
        self.ends.append(self.now())
        self._probing = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.probe)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds for the interval [start, end], which must lie
        between two probes."""
        lo = bisect.bisect_left(self.ends, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + PROBE_WINDOW_S)
        speed = statistics.median(self.durations[lo:hi])
        return (end - start) * REF_PROBE_S / speed


def time_import() -> float:
    """Median reference seconds of ``import qlogic.cli`` in a fresh
    interpreter, timed inside it."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE, str(ROOT / "src"), str(HERE)],
            cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=60).stdout
        seconds, probe = map(float, out.split())
        samples.append(seconds * REF_PROBE_S / probe)
    return statistics.median(samples)


def import_qlogic() -> None:
    """Import qlogic from the checkout and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qlogic
    import qlogic.cli  # noqa: F401  (the CLI is what most operations drive)
    if Path(qlogic.__file__).resolve().parent != (src / "qlogic").resolve():
        raise ImportError(f"qlogic came from {qlogic.__file__}, not {src}")


class Run:
    """Repetitions of one workload with their timings and verdicts.

    Times are in reference seconds (see ``Clock``); ``raw_latencies``
    keeps them unscaled (wall time less probes) for the report."""

    def __init__(self, workload, seed: int, reference: dict, scratch: Path,
                 clock: Clock):
        self.workload = workload
        self.seed = seed
        self.digests = reference["outputs"][workload.name]
        self.scratch = scratch
        self.clock = clock
        self.setup_s: list[float] = []
        self.latencies: list[float] = []
        self.keys: list[str] = []
        self.raw_latencies: list[float] = []
        self.rep_op_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.compared = 0
        self.failures: list[str] = []
        self.outputs: dict[tuple[int, int], str] = {}

    def setup(self, rep: int):
        """Timed set-up of repetition ``rep``: (its directory, its ops)."""
        clock = self.clock
        workdir = self.scratch / f"rep{rep}"
        workdir.mkdir(parents=True)
        rng = random.Random(f"{self.workload.name}:{self.seed}:{rep}")
        # what earlier repetitions left in reference cycles goes now, not
        # at a point that depends on the seed-drawn order of operations
        gc.collect()
        t0 = clock.now()
        ops = self.workload.setup(rng, workdir)
        t1 = clock.now()
        self.setup_s.append(clock.scale(t0, t1))
        return workdir, ops

    def more_setups(self, count: int) -> None:
        """Set-ups without operations until ``count`` set-ups are timed."""
        while len(self.setup_s) < count:
            workdir, _ = self.setup(len(self.setup_s))
            shutil.rmtree(workdir)

    def repetition(self, rep: int) -> None:
        """Set up and run repetition ``rep``."""
        workdir, ops = self.setup(rep)
        try:
            intervals = [self.run_op(rep, index, op)
                         for index, op in enumerate(ops)]
        finally:
            shutil.rmtree(workdir)
        self.finish(intervals)

    def finish(self, intervals) -> None:
        """Record a repetition's operation intervals in reference seconds."""
        self.clock.probe()
        scaled = [self.clock.scale(start, end) for start, end in intervals]
        self.latencies += scaled
        self.raw_latencies += [end - start for start, end in intervals]
        self.rep_op_s.append(sum(scaled))

    def run_op(self, rep, index, op, tracer=None) -> tuple[float, float]:
        """Run one operation, with a tracer as a root span with the span
        wrappers installed around it only; returns its interval."""
        if tracer is None:
            return self._run_op(rep, index, op, None)
        tracer.install()
        try:
            return self._run_op(rep, index, op, tracer)
        finally:
            tracer.uninstall()

    def _run_op(self, rep, index, op, tracer) -> tuple[float, float]:
        self.attempted += 1
        self.keys.append(op.key)
        t0 = self.clock.now()
        try:
            result = op.call() if tracer is None else tracer.run_op(op.call)
            error = None
        except Exception:  # a traceback is a failed operation, not a crash
            error = traceback.format_exc(limit=3)
        t1 = self.clock.now()
        if error is not None:
            self._fail(op, f"raised\n{error}")
            return t0, t1
        if tracer is not None and op.cli:
            tracer.count("cli.stdout_bytes", len(result[1].encode()))
        text, problems = op.judge(result)
        digest = hashlib.sha256(text.encode()).hexdigest()
        self.outputs[(rep, index)] = digest
        want = self.digests.get(op.key)
        if want is not None:
            self.compared += 1
            if digest != want:
                problems.append("output differs from the seed-commit reference")
        if problems:
            self._fail(op, "; ".join(problems))
        return t0, t1

    def _fail(self, op, why: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_LINES:
            self.failures.append(f"{op.key}: {why}")

    @property
    def op_s(self) -> float:
        return sum(self.rep_op_s)

    def run_for(self, seconds: float) -> None:
        """Whole repetitions, at least one, ending at the repetition
        boundary nearest to ``seconds`` of operation time (the next
        repetition's length estimated from the mean so far)."""
        rep = 0
        while rep == 0 or self.op_s + self.op_s / rep / 2 <= seconds:
            self.repetition(rep)
            rep += 1


def tail(latencies, percentile: int) -> tuple[float, int]:
    """Nearest-rank ``percentile`` of ``latencies``: (value, samples beyond
    it)."""
    ordered = sorted(latencies)
    rank = -(-percentile * len(ordered) // 100)
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(run: Run, import_s: float) -> tuple[dict, list[str]]:
    pct = run.workload.tail_percentile
    value, beyond = tail(run.latencies, pct)
    ok = run.attempted - run.failed
    setup_s = statistics.median(run.setup_s)
    metrics = {
        "verdicts_per_s": (ok / run.op_s, "1/s"),
        "verdict_p50_ms": (statistics.median(run.latencies) * 1e3, "ms"),
        "verdict_tail_ms": (value * 1e3, "ms"),
        "setup_s": (import_s + setup_s, "s"),
    }
    raw_value, _ = tail(run.raw_latencies, pct)
    lines = [
        f"repetitions {len(run.rep_op_s)}, operations {run.attempted}, "
        f"operation time {run.op_s:.3f} reference s "
        f"({sum(run.raw_latencies):.3f} s wall)",
        f"verdict_tail_ms is p{pct} of {len(run.latencies)} samples, "
        f"{beyond} beyond it",
        f"unscaled p50 {statistics.median(run.raw_latencies) * 1e3:.3f} ms, "
        f"tail {raw_value * 1e3:.3f} ms; median probe "
        f"{statistics.median(run.clock.durations) * 1e3:.3f} ms against "
        f"{REF_PROBE_S * 1e3:g} ms reference",
        f"setup_s = median import {import_s:.4f} s of {IMPORT_SAMPLES} "
        f"+ median set-up {setup_s:.4f} s of {len(run.setup_s)}",
        f"failed_frac {run.failed / run.attempted:.4f} "
        f"({run.failed} of {run.attempted})",
        f"reference outputs compared: {run.compared} of {run.attempted}",
    ]
    return metrics, lines


def paired_repetition(plain: Run, run: Run, rep: int, tracer) -> None:
    """Repetition ``rep`` set up twice, with the same inputs but separate
    files and objects, so each side starts cold.  Each operation runs
    untraced and traced back to back, so the twins see the same machine
    state, in alternating order, so neither side always goes second."""
    plain_dir, plain_ops = plain.setup(rep)
    run_dir, run_ops = run.setup(rep)
    plain_intervals, run_intervals = [], []
    try:
        for index, (p, t) in enumerate(zip(plain_ops, run_ops)):
            if index % 2:
                plain_intervals.append(plain.run_op(rep, index, p))
            run_intervals.append(run.run_op(rep, index, t, tracer))
            if not index % 2:
                plain_intervals.append(plain.run_op(rep, index, p))
    finally:
        shutil.rmtree(plain_dir)
        shutil.rmtree(run_dir)
    plain.finish(plain_intervals)
    run.finish(run_intervals)


def traced(workload, seed, seconds, reference, scratch, clock):
    """Whole paired repetitions (see ``paired_repetition``) until
    ``seconds`` of operation time, at least two.  Returns (run, metrics,
    lines, consistent) for the traced side."""
    from tracing import Tracer

    plain = Run(workload, seed, reference, scratch / "plain", clock)
    run = Run(workload, seed, reference, scratch / "traced", clock)
    tracer = Tracer(clock.now)
    builds = []
    reps = 0
    while reps < 2 or (plain.op_s + run.op_s) * (reps + 1) / reps <= seconds:
        before = tracer.stats["states.reduced_space"].calls
        paired_repetition(plain, run, reps, tracer)
        builds.append(tracer.stats["states.reduced_space"].calls - before)
        reps += 1
    consistent = True
    lines = []
    mismatched = [key for key, digest in run.outputs.items()
                  if plain.outputs.get(key) != digest]
    if mismatched:
        consistent = False
        lines.append(f"traced stdout differs from untraced on {mismatched}")
    if len(set(builds)) != 1:
        consistent = False
        lines.append(f"reduced-space builds differ across repetitions: "
                     f"{builds}")
    left = tracer.leftovers()
    if left:
        consistent = False
        lines.append(f"wrappers left installed: {left}")
    metrics = tracer.per_layer(reps, run.op_s / sum(run.raw_latencies))
    # per-operation ratios: the twins ran back to back, and the median
    # ignores the odd stall on one side
    overhead = statistics.median(
        t / u for t, u in zip(run.latencies, plain.latencies)) - 1
    # each operation's summed self times (scaled like its latency) against
    # its untraced twin's latency raised by the overhead
    own = [o * t / raw for o, t, raw in zip(tracer.op_self_s, run.latencies,
                                            run.raw_latencies)]
    gaps = [abs(o - (1 + overhead) * u) / u
            for o, u in zip(own, plain.latencies)]
    worst = max(range(len(gaps)), key=gaps.__getitem__)
    gap = abs(sum(own) - (1 + overhead) * plain.op_s) / plain.op_s
    if gap > SELF_GAP_NOISE:
        consistent = False
        lines.append(f"summed self times are {gap:.3f} of the untraced "
                     f"operation time away from it plus overhead")
    metrics["trace.self_gap_frac"] = (gap, "ratio")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["trace.verdicts_per_s"] = (
        (run.attempted - run.failed) / run.op_s, "1/s")
    metrics["trace.untraced_verdicts_per_s"] = (
        (plain.attempted - plain.failed) / plain.op_s, "1/s")
    metrics["trace.repetitions"] = (reps, "count")
    quartiles = statistics.quantiles(gaps, n=4)
    lines.append(f"traced {reps} repetitions; reduced-space builds per "
                 f"repetition {builds}; overhead {overhead:+.3f}; gap between "
                 f"summed self times and untraced latency plus overhead "
                 f"{gap:.4f} over the run, per operation quartiles "
                 f"{quartiles[0]:.3f}/{quartiles[1]:.3f}/{quartiles[2]:.3f}, "
                 f"largest {gaps[worst]:.3f} ({run.keys[worst]})")
    lines += tracer.table()
    run.attempted += plain.attempted
    run.failed += plain.failed
    run.failures = plain.failures + run.failures
    return run, metrics, lines, consistent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)

    try:
        import_qlogic()
    except ImportError as exc:
        print(f"cannot import qlogic from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import numpy

    from workloads import WORKLOADS

    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    scratch = Path(args.scratch)
    workload = WORKLOADS[args.workload](reference)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"seconds {args.seconds:g}, trace {args.trace}; "
          f"nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {numpy.__version__}, "
          f"OMP/OPENBLAS threads {os.environ.get('OMP_NUM_THREADS')}/"
          f"{os.environ.get('OPENBLAS_NUM_THREADS')}")
    clock = Clock()
    clock.start()
    try:
        if args.trace:
            run, metrics, lines, consistent = traced(
                workload, args.seed, args.seconds, reference, scratch, clock)
        else:
            run = Run(workload, args.seed, reference, scratch, clock)
            run.run_for(args.seconds)
            run.more_setups(SETUP_SAMPLES)
    finally:
        clock.stop()
    if not args.trace:
        metrics, lines = end_to_end(run, time_import())
        consistent = True
    for line in lines + run.failures:
        print(line)
    print(json.dumps({
        "correct": consistent and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
