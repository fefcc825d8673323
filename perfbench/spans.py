"""Span tracing from outside the library.

``Tracer.install`` replaces public functions of the ``weightcalc`` modules
(and ``WeightFunction.evaluate_many``/``__call__`` at class level) with
wrappers that record one span per call.  A function imported by name into
another module is rebound in every ``weightcalc`` namespace that holds it,
so calls between modules are caught as well as calls from the benchmark.
The wrappers must be installed before any input is built: transforms such
as ``conjugate`` capture the bound ``evaluate_many`` of their operands when
they are constructed.

Spans live in flat in-memory lists (name, start, end, parent, operation id,
pass index) and are only written out and aggregated after the timed loop.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

import oracles

#: (module, function, span name) wrapped as plain spans.
_FUNCTION_SPANS = [
    ("functions", "associated", "functions.associated"),
    ("functions", "relation_fn", "functions.relation_fn"),
    ("functions", "gamma_indices", "functions.gamma_indices"),
    ("functions", "recover_sequence", "functions.recover_sequence"),
    ("functions", "tabulate", "functions.tabulate"),
    ("functions", "conjugate", "functions.conjugate"),
    ("functions", "biconjugate", "functions.biconjugate"),
    ("functions", "envelope_lower", "functions.envelope_lower"),
    ("functions", "envelope_upper", "functions.envelope_upper"),
    ("functions", "integral_form", "functions.integral_form"),
    ("functions", "c2_proxy", "functions.c2_proxy"),
    ("functions", "log_o_proxy", "functions.log_o_proxy"),
    ("functions", "slowly_varying_sequence_test", "functions.slowly_varying_sequence_test"),
    ("sequences", "relation", "sequences.relation"),
    ("sequences", "is_log_convex", "sequences.is_log_convex"),
    ("sequences", "conjugate_sequence", "sequences.conjugate_sequence"),
    ("sequences", "has_divergent_roots", "sequences.has_divergent_roots"),
    ("sequences", "small_roots_vanish", "sequences.small_roots_vanish"),
    ("sequences", "almost_decreasing_regularize", "sequences.almost_decreasing_regularize"),
    ("sequences", "normalize_head", "sequences.normalize_head"),
    ("sequences", "uniform_bound", "sequences.uniform_bound"),
    ("bmt", "associated_matrix", "bmt.associated_matrix"),
    ("bmt", "conjugate_matrix", "bmt.conjugate_matrix"),
    ("bmt", "constancy_check", "bmt.constancy_check"),
    ("bmt", "bmt_report", "bmt.bmt_report"),
]

#: Evaluation kinds reported as per-layer metrics; other kinds still get
#: spans (``functions.eval.<kind>``) but no metric.
EVAL_KINDS = (
    "associated", "conjugate", "biconjugate", "envelope_lower",
    "envelope_upper", "sampled", "power", "normalized",
)
EVAL_PER_POINT = ("associated", "conjugate", "envelope_lower", "envelope_upper")
CALL_LAYERS = (
    "functions.associated", "functions.relation_fn", "functions.gamma_indices",
    "functions.recover_sequence", "functions.tabulate",
    "sequences.check_moderate_growth", "sequences.relation",
    "sequences.is_log_convex", "sequences.conjugate_sequence",
    "sequences.has_divergent_roots", "sequences.almost_decreasing_regularize",
    "bmt.associated_matrix", "bmt.conjugate_matrix", "bmt.constancy_check",
    "bmt.bmt_report",
)
CHECK_IDS = (
    "BICONJ_CONVEX", "BMT_SANDWICH", "CONJ_WELLDEF_EQUIV", "ENVELOPE_ID",
    "ENV_DUALITY", "GEVREY_CONJ", "GROWTHREL_SEQ", "INDEX", "INDEX_TRANSFER",
    "MATRIX_CONST", "NEWEXPABSORB", "REL_TRANSFER", "ROOT_ALMOST_DECR",
    "SEQ_FN_CONJ_BRIDGE", "SLOWLY_VARYING", "UNIFORM_BOUND",
)
SWEEP_CLASSES = (
    "assoc_eval", "conjugate.closed", "conjugate.assoc", "biconjugate",
    "envelope_lower.assoc", "envelope_lower.closed", "envelope_upper.assoc",
    "envelope_upper.closed", "relation_fn", "gamma_indices",
    "recover_sequence", "phi_star_many", "associated_matrix", "bmt_report",
    "refusal",
)


class Tracer:
    """In-memory span recorder with per-span counters."""

    def __init__(self):
        self.name: list = []
        self.t0: list = []
        self.t1: list = []
        self.parent: list = []
        self.op: list = []
        self.pass_no: list = []
        self.counts: dict = {}  # span index -> {counter: value}
        self._stack: list = []
        self.current_op = -1
        self.current_pass = -1
        self._sequence_class: dict = {}  # id -> (weakref to sequence, "convex"/"nonconvex")
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.pass_no.append(self.current_pass)
        self.t1.append(0.0)
        self._stack.append(idx)
        self.t0.append(time.perf_counter())
        return idx

    def finish(self, idx: int):
        self.t1[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, idx: int, **values):
        slot = self.counts.setdefault(idx, {})
        for key, value in values.items():
            slot[key] = slot.get(key, 0) + value

    def call(self, name: str, fn, *args, counts=None):
        """Run ``fn(*args)`` inside a span; ``counts(result)`` gives counters.

        An exception marks the span with ``errors`` and propagates.
        """
        idx = self.begin(name)
        try:
            out = fn(*args)
        except Exception:
            self.count(idx, errors=1)
            raise
        finally:
            self.finish(idx)
        if counts is not None:
            self.count(idx, **counts(out))
        return out

    def declare_sequence_class(self, seq, convex: bool):
        """Record the class the benchmark generated a sequence with."""
        self._sequence_class[id(seq)] = (weakref.ref(seq), "convex" if convex else "nonconvex")

    def _minorant_class(self, seq) -> str:
        known = self._sequence_class.get(id(seq))
        if known is not None and known[0]() is seq:
            return known[1]
        # sequences built inside the library: classify by the input itself
        idx = self.begin("trace.classify")
        try:
            lv = seq.log_values
            return "convex" if oracles.convex(lv, 1e-12 * max(1.0, float(np.max(np.abs(lv))))) else "nonconvex"
        finally:
            self.finish(idx)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the library; ``weightcalc`` must already be imported."""
        import weightcalc.functions as functions_mod

        modules = {
            name: sys.modules[f"weightcalc.{name}"]
            for name in ("functions", "sequences", "grids", "bmt")
        }
        for mod_name, attr, span_name in _FUNCTION_SPANS:
            original = getattr(modules[mod_name], attr)
            self._rebind(original, self._wrap(original, span_name))
        seqs, grids, bmt = modules["sequences"], modules["grids"], modules["bmt"]
        self._rebind(seqs.log_convex_minorant, self._wrap(
            seqs.log_convex_minorant,
            lambda m: f"sequences.log_convex_minorant.{self._minorant_class(m)}",
            lambda m: {"elements": m.p_max + 1}))
        self._rebind(seqs.check_moderate_growth, self._wrap(
            seqs.check_moderate_growth, "sequences.check_moderate_growth",
            lambda m, *_: {"pairs": (m.p_max + 1) * (m.p_max + 2) // 2}))
        self._rebind(bmt.phi_star_many, self._wrap(
            bmt.phi_star_many, "bmt.phi_star_many", lambda _omega, xs, *_: {"points": int(np.size(xs))}))
        self._rebind(grids.golden_max_vec, self._golden(grids.golden_max_vec))

        cls = functions_mod.WeightFunction
        for attr, points in (("evaluate_many", np.size), ("__call__", lambda _t: 1)):
            original = getattr(cls, attr)
            setattr(cls, attr, self._wrap(original, lambda wf, _t: f"functions.eval.{wf.kind}",
                                          lambda _wf, t, points=points: {"points": int(points(t))}))
            self._undo.append((cls, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "weightcalc" and not mod_name.startswith("weightcalc."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def _wrap(self, fn, name, counts=None):
        """Span around ``fn``.  ``name`` is a string or a function of the
        call's positional arguments; ``counts(*args)`` gives the counters
        recorded when the call ends.  An exception adds ``errors``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name(*args) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.count(idx, errors=1)
                raise
            finally:
                tracer.finish(idx)
                if counts is not None:
                    tracer.count(idx, **counts(*args))

        return wrapper

    def _golden(self, fn):
        """Span around golden_max_vec that also counts objective points by
        wrapping the ``f`` passed in."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, lo, hi, *args, **kwargs):
            evals = [0]

            def counted(xs):
                evals[0] += int(np.size(xs))
                return f(xs)

            idx = tracer.begin("grids.golden_max_vec")
            try:
                return fn(counted, lo, hi, *args, **kwargs)
            finally:
                tracer.finish(idx)
                tracer.count(idx, points=int(np.size(lo)), objective_evals=evals[0])

        return wrapper

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Span duration minus the time covered by its direct children."""
        t0 = np.asarray(self.t0)
        dur = np.asarray(self.t1) - t0
        parent = np.asarray(self.parent, dtype=np.int64)
        child_time = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        return dur - child_time

    def write(self, path: str, extra: dict):
        """Spans as JSON lines, header first; written after the timed loop."""
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(json.dumps(extra) + "\n")
            for i, name in enumerate(self.name):
                record = [name, self.t0[i], self.t1[i], self.parent[i], self.op[i], self.pass_no[i]]
                if i in self.counts:
                    record.append(self.counts[i])
                stream.write(json.dumps(record) + "\n")


def span_cost_seconds(n: int = 20000) -> float:
    """Measured cost of one empty span (begin + finish) on this machine."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(n):
        tracer.finish(tracer.begin("x"))
    return (time.perf_counter() - start) / n


def layer_metrics(tracer: Tracer, op_spans: list, complete: list, pass_s: float, span_cost: float) -> dict:
    """Per-layer metrics per pass, from the spans of the complete passes.

    ``op_spans`` holds (span index, workload-level name, cycle) of every
    operation run; ``complete`` lists the cycles that ran every operation.
    """
    self_s = tracer.self_times()
    names = tracer.name
    keep = np.isin(np.asarray(tracer.pass_no, dtype=np.int64), complete)
    passes = len(complete)
    complete = set(complete)
    op_spans = [(idx, label) for idx, label, cycle in op_spans if cycle in complete]
    total = defaultdict(float)
    calls = defaultdict(int)
    counters = defaultdict(lambda: defaultdict(int))
    for i in np.flatnonzero(keep):
        name = names[i]
        total[name] += self_s[i]
        calls[name] += 1
        for key, value in tracer.counts.get(int(i), {}).items():
            counters[name][key] += value

    per = 1.0 / passes
    out: dict = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    op_total = defaultdict(float)
    for idx, label in op_spans:
        op_total[label] += tracer.t1[idx] - tracer.t0[idx]
    for check in CHECK_IDS:
        put(f"checks.{check}.s", op_total.get(f"checks.{check}", 0.0) * per, "s")
    for cls in SWEEP_CLASSES:
        put(f"sweep.{cls}.s", op_total.get(f"sweep.{cls}", 0.0) * per, "s")

    for kind in EVAL_KINDS:
        name = f"functions.eval.{kind}"
        put(f"{name}.self_s", total[name] * per, "s")
        put(f"{name}.calls", calls[name] * per, "count")
        put(f"{name}.points", counters[name]["points"] * per, "count")
        put(f"{name}.errors", counters[name]["errors"] * per, "count")
    for kind in EVAL_PER_POINT:
        name = f"functions.eval.{kind}"
        pts = counters[name]["points"]
        put(f"{name}.us_per_point", 1e6 * total[name] / pts if pts else 0.0, "us")
    for name in CALL_LAYERS:
        put(f"{name}.self_s", total[name] * per, "s")
        put(f"{name}.calls", calls[name] * per, "count")
    put("sequences.check_moderate_growth.pairs",
        counters["sequences.check_moderate_growth"]["pairs"] * per, "count")

    g = "grids.golden_max_vec"
    put(f"{g}.self_s", total[g] * per, "s")
    put(f"{g}.calls", calls[g] * per, "count")
    put(f"{g}.points", counters[g]["points"] * per, "count")
    put(f"{g}.objective_evals", counters[g]["objective_evals"] * per, "count")

    for kind in ("convex", "nonconvex"):
        name = f"sequences.log_convex_minorant.{kind}"
        elements = counters[name]["elements"]
        put(f"{name}.self_s", total[name] * per, "s")
        put(f"{name}.elements", elements * per, "count")
        put(f"{name}.us_per_element", 1e6 * total[name] / elements if elements else 0.0, "us")

    p = "bmt.phi_star_many"
    pts = counters[p]["points"]
    put(f"{p}.self_s", total[p] * per, "s")
    put(f"{p}.calls", calls[p] * per, "count")
    put(f"{p}.points", pts * per, "count")
    put(f"{p}.us_per_point", 1e6 * total[p] / pts if pts else 0.0, "us")

    for stage in ("dump", "load"):
        name = f"serialization.{stage}"
        put(f"{name}.self_s", total[name] * per, "s")
        put(f"{name}.bytes", counters[name]["bytes"] * per, "bytes")

    # operation spans are the workload level; library spans directly under
    # them are the top level of the library
    op_index = {idx for idx, _ in op_spans}
    parent = tracer.parent
    covered = sum(
        tracer.t1[i] - tracer.t0[i] for i in np.flatnonzero(keep) if parent[i] in op_index
    )
    op_time = sum(tracer.t1[idx] - tracer.t0[idx] for idx in op_index)
    library_spans = int(keep.sum()) - len(op_index)
    put("trace.pass_s", pass_s, "s")
    put("trace.spans", library_spans * per, "count")
    put("trace.overhead_est_frac", library_spans * per * span_cost / pass_s if pass_s else 0.0, "ratio")
    put("trace.unattributed_frac", 1.0 - covered / op_time if op_time else 0.0, "ratio")
    return out
