"""Span wrappers installed around the public functions of each qlogic layer.

A wrapper records calls, busy seconds (inclusive) and self seconds (busy
minus the time covered by child spans) per span name.  Spans are folded
into per-name totals as they close, so a long traced run needs no memory
per call.  Several qlogic modules import names from each other
(``states`` binds ``is_compatible_subset``, ``cloning`` binds
``_iter_atom_perms`` and ``_atom_extender``, ``rational_lp._simplex``
looks up the global ``_pivot``), so ``install`` replaces a function in
every ``qlogic`` module that binds it and ``uninstall`` puts each binding
back.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from dataclasses import dataclass
from typing import Callable


@dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


def _solve_lp_hook(tracer, args, result, lp_before):
    A, c = args[0], args[2]
    rows = len(A)
    tracer.count("rational_lp.solve_lp.tableau_cells", rows * (len(c) + rows))
    if result.status == "infeasible":
        tracer.count("rational_lp.solve_lp.infeasible")


def _transition_hook(tracer, args, result, lp_before):
    if tracer.stats["rational_lp.solve_lp"].calls == lp_before:
        tracer.count("states.transition_probability.hits")


def _extend_hook(tracer, args, result, lp_before):
    if result is not None:
        tracer.count("morphisms.extend.accepted")


def _clone_search_hook(tracer, args, result, lp_before):
    tracer.count("cloning.candidates_scanned", result.scanned)
    if result.cloner is not None:
        tracer.count("cloning.cloners_found")


# (module, attribute, class or None, span name, hook)
WRAPPED = (
    ("qlogic.core", "validate_logic", None, "core.validate_logic", None),
    ("qlogic.rational_lp", "solve_lp", None, "rational_lp.solve_lp",
     _solve_lp_hook),
    ("qlogic.rational_lp", "_pivot", None, "rational_lp.pivot", None),
    ("qlogic.rational_lp", "enumerate_vertices_basis", None,
     "rational_lp.enumerate_vertices_basis", None),
    ("qlogic.states", "__init__", "ReducedStateSpace",
     "states.reduced_space", None),
    ("qlogic.states", "check_condition_F", None,
     "states.check_condition_F", None),
    ("qlogic.states", "check_condition_G", None,
     "states.check_condition_G", None),
    ("qlogic.states", "check_condition_H", None,
     "states.check_condition_H", None),
    ("qlogic.states", "atomic_state", None, "states.atomic_state", None),
    ("qlogic.states", "conditional_probability", None,
     "states.conditional_probability", None),
    ("qlogic.states", "transition_probability", None,
     "states.transition_probability", _transition_hook),
    ("qlogic.compat", "is_compatible_subset", None,
     "compat.is_compatible_subset", None),
    ("qlogic.compat", "is_boolean_subalgebra", None,
     "compat.is_boolean_subalgebra", None),
    ("qlogic.compat", "closure", None, "compat.closure", None),
    ("qlogic.morphisms", "extend", "_AtomExtender", "morphisms.extend",
     _extend_hook),
    ("qlogic.morphisms", "automorphisms", None, "morphisms.automorphisms",
     None),
    ("qlogic.cloning", "clone_search", None, "cloning.clone_search",
     _clone_search_hook),
    ("qlogic.cloning", "is_cloning_transformation", None,
     "cloning.is_cloning_transformation", None),
    ("qlogic.cloning", "theorem1_certificate", None,
     "cloning.theorem1_certificate", None),
    ("qlogic.composite", "check_lemma2", None, "composite.check_lemma2", None),
    ("qlogic.composite", "check_lemma3", None, "composite.check_lemma3", None),
    ("qlogic.composite", "check_condition_I", None,
     "composite.check_condition_I", None),
    ("qlogic.cli", "main", None, "cli.main", None),
    ("qlogic.hilbert", "lemma2_matrix_check", None,
     "hilbert.lemma2_matrix_check", None),
)


class Tracer:
    """Per-name span totals and counters for one traced phase."""

    def __init__(self, now: Callable[[], float]):
        self._now = now                        # the benchmark's clock
        self.stats: dict[str, SpanStats] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list[float]] = []   # [start, child seconds]
        self._plan: list[tuple[object, str, object]] | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: set[int] = set()
        self.self_total = 0.0                  # self seconds of closed spans
        self.op_self_s: list[float] = []       # per operation, summed self s
        for _, _, _, name, _ in WRAPPED:
            self.stats[name] = SpanStats()
        self.stats["op"] = SpanStats()

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _open(self) -> list[float]:
        frame = [self._now(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list[float]) -> None:
        end = self._now()
        self._stack.pop()
        dur = end - frame[0]
        own = dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        st = self.stats[name]
        st.calls += 1
        st.busy_s += dur
        st.self_s += own
        self.self_total += own

    def span(self, name: str, fn, hook=None):
        """Wrap ``fn`` so each call is recorded as a span called ``name``."""
        solve_stats = self.stats["rational_lp.solve_lp"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            lp_before = solve_stats.calls
            frame = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame)
            if hook is not None:
                hook(self, args, result, lp_before)
            return result

        self._wrappers.add(id(wrapper))
        return wrapper

    def run_op(self, call):
        """Run one benchmark operation as the root span ``op`` and record
        the sum of the self times in its span tree."""
        before = self.self_total
        frame = self._open()
        try:
            return call()
        finally:
            self._close("op", frame)
            self.op_self_s.append(self.self_total - before)

    # -- results -----------------------------------------------------------

    def per_layer(self, reps: int, speed: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}; totals are per
        repetition, rates and ratios are over the whole traced phase, and
        times are wall times multiplied by ``speed`` (reference seconds
        per wall second over the traced phase)."""
        stats, counters = self.stats, self.counters
        out = {}

        def span(name, *fields):
            for field in fields:
                if field == "calls":
                    value, unit = getattr(stats[name], field), "count"
                else:
                    value, unit = getattr(stats[name], field) * speed, "s"
                out[f"{name}.{field}"] = (value / reps, unit)

        def total(metric, value, unit="count"):
            out[metric] = (value / reps, unit)

        def ratio(metric, num, den, unit):
            out[metric] = (num / den if den else 0.0, unit)

        pivot, extend = stats["rational_lp.pivot"], stats["morphisms.extend"]
        span("core.validate_logic", "calls", "busy_s")
        span("rational_lp.solve_lp", "calls", "busy_s")
        total("rational_lp.solve_lp.infeasible",
              counters.get("rational_lp.solve_lp.infeasible", 0))
        total("rational_lp.pivots", pivot.calls)
        ratio("rational_lp.us_per_pivot", pivot.busy_s * speed * 1e6,
              pivot.calls, "us")
        total("rational_lp.solve_lp.tableau_cells",
              counters.get("rational_lp.solve_lp.tableau_cells", 0))
        span("rational_lp.enumerate_vertices_basis", "calls", "busy_s")
        total("states.reduced_space.builds",
              stats["states.reduced_space"].calls)
        span("states.reduced_space", "busy_s")
        for cond in "FGH":
            span(f"states.check_condition_{cond}", "busy_s")
        span("states.atomic_state", "calls", "busy_s")
        span("states.conditional_probability", "calls", "busy_s")
        span("states.transition_probability", "calls", "busy_s")
        ratio("states.transition_probability.hit_ratio",
              counters.get("states.transition_probability.hits", 0),
              stats["states.transition_probability"].calls, "ratio")
        span("compat.is_compatible_subset", "calls", "busy_s")
        total("compat.closed_sets_examined",
              stats["compat.is_boolean_subalgebra"].calls)
        span("compat.closure", "busy_s")
        span("morphisms.extend", "calls")
        total("morphisms.extend.accepted",
              counters.get("morphisms.extend.accepted", 0))
        span("morphisms.extend", "busy_s")
        ratio("morphisms.us_per_extend", extend.busy_s * speed * 1e6,
              extend.calls, "us")
        span("morphisms.automorphisms", "busy_s")
        span("cloning.clone_search", "calls", "busy_s")
        scanned = counters.get("cloning.candidates_scanned", 0)
        total("cloning.candidates_scanned", scanned)
        ratio("cloning.scanned_per_cloner", scanned,
              counters.get("cloning.cloners_found", 0), "count")
        span("cloning.is_cloning_transformation", "calls")
        span("cloning.theorem1_certificate", "busy_s")
        span("composite.check_lemma2", "calls", "busy_s")
        span("composite.check_lemma3", "calls", "busy_s")
        span("composite.check_condition_I", "busy_s")
        span("cli.main", "calls", "self_s")
        total("cli.stdout_bytes", counters.get("cli.stdout_bytes", 0),
              "bytes")
        span("hilbert.lemma2_matrix_check", "calls", "busy_s")
        return out

    def table(self) -> list[str]:
        rows = sorted(((st.self_s, name, st) for name, st in self.stats.items()
                       if st.calls), reverse=True)
        lines = [f"{'span':<40} {'calls':>9} {'busy_s':>10} {'self_s':>10}"]
        lines += [f"{name:<40} {st.calls:>9} {st.busy_s:>10.4f} "
                  f"{st.self_s:>10.4f}" for _, name, st in rows]
        return lines

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._plan is None:
            self._plan = self._bindings()
        for owner, attr, wrapper in self._plan:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def _bindings(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, wrapper) for every binding to replace.  All of
        qlogic is imported first, so no module can bind a name later."""
        import qlogic
        for info in pkgutil.iter_modules(qlogic.__path__, "qlogic."):
            importlib.import_module(info.name)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "qlogic"
                                         or name.startswith("qlogic."))]
        plan = []
        for modname, attr, clsname, span_name, hook in WRAPPED:
            home = sys.modules[modname]
            if clsname is not None:
                cls = getattr(home, clsname)
                plan.append((cls, attr, self.span(span_name,
                                                  cls.__dict__[attr], hook)))
                continue
            original = getattr(home, attr)
            wrapper = self.span(span_name, original, hook)
            plan += [(mod, key, wrapper) for mod in modules
                     for key, value in vars(mod).items() if value is original]
        return plan

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def leftovers(self) -> list[str]:
        """Bindings in qlogic that still hold one of this tracer's wrappers."""
        owners = [(name, m) for name, m in sorted(sys.modules.items())
                  if m is not None and (name == "qlogic"
                                        or name.startswith("qlogic."))]
        for modname, _, clsname, _, _ in WRAPPED:
            if clsname is not None:
                owners.append((f"{modname}.{clsname}",
                               getattr(sys.modules[modname], clsname)))
        return [f"{name}.{key}" for name, owner in owners
                for key, value in list(vars(owner).items())
                if id(value) in self._wrappers]
