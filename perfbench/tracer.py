"""Spans and work counters around the calls into each multisym layer.

The tracer wraps public entry points from outside the library: it rebinds
every module-level name that refers to a traced function (``spans``,
``cli``, ``operators``, ``certify``, ``witness`` and ``expressions`` import
``orbit_min``, ``row_orbit``, ``elementary`` and friends by name) and
replaces the traced methods on their classes.  Each call becomes a span
with a name, a start, an end and a parent span; spans are appended to flat
arrays in start order and analysed when the run ends, so a request's spans
are the contiguous block that starts at its ``cli.main`` root.

A layer is a module.  A span's self time is its duration minus the
durations of its direct children, so the self times of one request's
spans add up to the duration of its root span.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from array import array
from collections import Counter

# (module, attribute) -> span name; "Class.method" patches the class
TRACED = {
    ("poly", "Poly.__mul__"): "poly.mul",
    ("poly", "Poly.__add__"): "poly.add",
    ("invariants", "row_orbit"): "invariants.row_orbit",
    ("invariants", "orbit_min"): "invariants.orbit_min",
    ("invariants", "orbit_sum"): "invariants.orbit_sum",
    ("invariants", "power_sum"): "invariants.power_sum",
    ("invariants", "elementary"): "invariants.elementary",
    ("invariants", "elementary_column"): "invariants.elementary_column",
    ("invariants", "is_invariant"): "invariants.is_invariant",
    ("spans", "orbit_reps"): "spans.orbit_reps",
    ("spans", "orbit_reps_multidegree"): "spans.orbit_reps_multidegree",
    ("spans", "SpanBasis.__init__"): "spans.basis_init",
    ("spans", "SpanBasis.vector_of"): "spans.vector_of",
    ("spans", "SpanBasis.insert_vector"): "spans.insert_vector",
    ("spans", "in_p_algebra"): "spans.in_p_algebra",
    ("spans", "p_multidegree_span"): "spans.p_multidegree_span",
    ("spans", "p_algebra_span"): "spans.p_algebra_span",
    ("spans", "square_span"): "spans.square_span",
    ("spans", "square_ideal_quotient"): "spans.square_ideal_quotient",
    ("spans", "ideal_truncation_span"): "spans.ideal_truncation_span",
    ("spans", "gl_span"): "spans.gl_span",
    ("operators", "validate_polarization_closed_form"): "operators.validate",
    ("operators", "newton_terms"): "operators.newton_terms",
    ("operators", "newton_rewrite"): "operators.newton_rewrite",
    ("operators", "power_to_elementary_one_column"): "operators.newton_one_column",
    ("operators", "polarize"): "operators.polarize",
    ("operators", "polarize_raw"): "operators.polarize_raw",
    ("operators", "flatten_tuple"): "operators.flatten_tuple",
    ("operators", "frobenius_split"): "operators.frobenius_split",
    ("certify", "certify_pth_power"): "certify.certify_pth_power",
    ("certify", "certify_power_sum"): "certify.certify_power_sum",
    ("certify", "verify"): "certify.verify",
    ("witness", "witness_check"): "witness.witness_check",
    ("expressions", "parse_expression"): "expressions.parse_expression",
    ("expressions", "recognize"): "expressions.recognize",
    ("cli", "main"): "cli.main",
}

ROOT = "cli.main"
SETUP = "setup"
LAYERS = ("poly", "invariants", "spans", "certify", "operators", "witness",
          "expressions", "cli")
BUILD = ("certify.certify_pth_power", "certify.certify_power_sum")
NEWTON = ("operators.newton_terms", "operators.newton_rewrite",
          "operators.newton_one_column")

# per-layer metric name -> unit; run.py and BENCHMARK.json list the same
PER_LAYER_UNITS = {
    "poly.mul_calls": "count",
    "poly.mul_term_pairs": "count",
    "poly.mul_out_terms": "count",
    "poly.mul_s": "s",
    "poly.add_calls": "count",
    "poly.add_s": "s",
    "invariants.row_orbit_calls": "count",
    "invariants.row_images": "count",
    "invariants.orbit_min_calls": "count",
    "invariants.orbit_min_distinct": "count",
    "invariants.orbit_min_reuse": "ratio",
    "invariants.self_s": "s",
    "spans.orbit_reps_calls": "count",
    "spans.orbit_reps_out": "count",
    "spans.bases": "count",
    "spans.columns_max": "count",
    "spans.cap_use": "ratio",
    "spans.vector_of_calls": "count",
    "spans.insert_calls": "count",
    "spans.insert_grew": "count",
    "spans.insert_useful": "ratio",
    "spans.self_s": "s",
    "certify.certs": "count",
    "certify.terms": "count",
    "certify.trace_steps": "count",
    "certify.build_s": "s",
    "certify.verify_incl_s": "s",
    "certify.self_s": "s",
    "operators.validate_s": "s",
    "operators.newton_calls": "count",
    "operators.polarize_calls": "count",
    "operators.frobenius_split_calls": "count",
    "operators.self_s": "s",
    "witness.calls": "count",
    "witness.self_s": "s",
    "expressions.parse_calls": "count",
    "expressions.self_s": "s",
    "cli.requests": "count",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# counters that depend only on the requests sent, never on the machine
WORK_COUNTERS = (
    "poly.mul_calls", "poly.mul_term_pairs", "poly.mul_out_terms",
    "poly.add_calls", "invariants.row_orbit_calls", "invariants.row_images",
    "invariants.orbit_min_calls", "invariants.orbit_min_distinct",
    "spans.orbit_reps_calls", "spans.orbit_reps_out", "spans.bases",
    "spans.columns_max", "spans.vector_of_calls", "spans.insert_calls",
    "spans.insert_grew", "certify.certs", "certify.terms",
    "certify.trace_steps", "operators.newton_calls",
    "operators.polarize_calls", "operators.frobenius_split_calls",
    "witness.calls", "expressions.parse_calls", "cli.requests",
)


def derive(raws: list[dict], overhead_ratio: float) -> dict:
    """The per-layer metrics of a run from the raw sums of its sessions."""
    total = {k: sum(r[k] for r in raws) for k in raws[0]}
    m = {k: total[k] for k in PER_LAYER_UNITS if k in total}
    m["spans.columns_max"] = max(r["spans.columns_max"] for r in raws)
    m["spans.cap_use"] = max(r["spans.cap_use"] for r in raws)
    calls = total["invariants.orbit_min_calls"]
    m["invariants.orbit_min_reuse"] = (
        1 - total["invariants.orbit_min_distinct"] / calls if calls else 0.0)
    inserts = total["spans.insert_calls"]
    m["spans.insert_useful"] = (
        total["spans.insert_grew"] / inserts if inserts else 0.0)
    m["trace.overhead_ratio"] = overhead_ratio
    return {k: m[k] for k in PER_LAYER_UNITS}


def layer_shares(raws: list[dict]) -> dict:
    """Each layer's self time as a share of the requests' root spans."""
    root = sum(r["root_s"] for r in raws)
    return {layer: sum(r[f"{layer}.self_s"] for r in raws) / root
            for layer in LAYERS}


class Tracer:
    """Records spans and counters while installed; `uninstall` restores
    every binding it replaced."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.orbit_keys: set = set()
        self.columns_max = 0
        self.columns_cap = 1
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, after=None):
        """A wrapper that records one span per call of fn.  `after` sees
        (args, kwargs, result, parent name id) once the span has ended."""
        nid = self.name_id(name)
        start, end, parent, names = self.start, self.end, self.parent, self.name
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            names.append(nid)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if after is not None:
                psid = stack[-1]
                after(args, kwargs, result, names[psid] if psid >= 0 else -1)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        import importlib
        for mod_name, _ in TRACED:
            importlib.import_module("multisym." + mod_name)
        modules = [m for k, m in sys.modules.items()
                   if k == "multisym" or k.startswith("multisym.")]
        hooks = self._hooks()
        for (mod_name, attr), span_name in TRACED.items():
            module = sys.modules["multisym." + mod_name]
            after = hooks.get(span_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self.wrap(span_name, original, after))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(span_name, original, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _hooks(self) -> dict:
        from multisym.poly import Poly
        from multisym.spans import DEFAULT_CAP, SpanBasis
        c = self.counters
        build_ids = {self.name_id(n) for n in BUILD}
        basis_sig = inspect.signature(SpanBasis.__init__)

        def mul(args, kwargs, result, _):
            a, b = args
            c["poly.mul_calls"] += 1
            if isinstance(b, Poly):
                c["poly.mul_term_pairs"] += len(a.terms) * len(b.terms)
            c["poly.mul_out_terms"] += len(result.terms)

        def add(args, kwargs, result, _):
            c["poly.add_calls"] += 1

        def row_orbit(args, kwargs, result, _):
            c["invariants.row_orbit_calls"] += 1
            c["invariants.row_images"] += math.factorial(args[1])

        def orbit_min(args, kwargs, result, _):
            c["invariants.orbit_min_calls"] += 1
            self.orbit_keys.add((args[0].exps, args[1]))

        def orbit_reps(args, kwargs, result, _):
            c["spans.orbit_reps_calls"] += 1
            c["spans.orbit_reps_out"] += len(result)

        def basis_init(args, kwargs, result, _):
            c["spans.bases"] += 1
            bound = basis_sig.bind(*args, **kwargs)
            ncols = len(bound.arguments["self"].reps)
            if ncols > self.columns_max:
                self.columns_max = ncols
                self.columns_cap = bound.arguments.get("cap", DEFAULT_CAP)

        def vector_of(args, kwargs, result, _):
            c["spans.vector_of_calls"] += 1

        def insert(args, kwargs, result, _):
            c["spans.insert_calls"] += 1
            c["spans.insert_grew"] += bool(result)

        def build(args, kwargs, result, parent_id):
            if parent_id not in build_ids:
                c["certify.certs"] += 1
                c["certify.terms"] += len(result.terms)
                c["certify.trace_steps"] += len(result.trace)

        def counter(key):
            def hook(args, kwargs, result, _):
                c[key] += 1
            return hook

        hooks = {
            "poly.mul": mul, "poly.add": add,
            "invariants.row_orbit": row_orbit,
            "invariants.orbit_min": orbit_min,
            "spans.orbit_reps": orbit_reps,
            "spans.orbit_reps_multidegree": orbit_reps,
            "spans.basis_init": basis_init,
            "spans.vector_of": vector_of,
            "spans.insert_vector": insert,
            "operators.polarize_raw": counter("operators.polarize_calls"),
            "operators.frobenius_split":
                counter("operators.frobenius_split_calls"),
            "witness.witness_check": counter("witness.calls"),
            "expressions.parse_expression": counter("expressions.parse_calls"),
            "cli.main": counter("cli.requests"),
        }
        for name in BUILD:
            hooks[name] = build
        for name in NEWTON:
            hooks[name] = counter("operators.newton_calls")
        return hooks

    # -- analysis ------------------------------------------------------------

    def analyse(self) -> tuple[dict, dict]:
        """Raw per-layer sums over the request spans (combine them with
        `derive`), plus a summary of the span tree.  Raises when the self
        times of a request do not add up to its root span."""
        import numpy as np

        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        n = len(dur)
        child = np.bincount(parent + 1, weights=dur, minlength=n + 1)[1:]
        self_t = dur - child

        roots = np.flatnonzero(parent == -1)
        request_of = np.repeat(np.arange(len(roots)),
                               np.diff(np.append(roots, n)))
        is_request = name[roots] == self._ids.get(ROOT, -2)
        req = is_request[request_of]
        per_root = np.bincount(request_of, weights=self_t,
                               minlength=len(roots))
        err = np.abs(per_root - dur[roots])
        if err.size and err.max() > 1e-6:
            raise AssertionError(
                f"self times miss their root span by {err.max():.3g} s")

        layer_of = np.array([
            LAYERS.index(nm.split(".")[0]) if nm.split(".")[0] in LAYERS
            else -1 for nm in self.names], dtype=np.int64)
        span_layer = layer_of[name]
        parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)

        def ids(names):
            return [self._ids[x] for x in names if x in self._ids]

        def outermost(names) -> float:
            mask = np.isin(name, ids(names)) & ~np.isin(parent_name, ids(names))
            return float(dur[mask & req].sum())

        raw = {k: self.counters[k] for k in WORK_COUNTERS}
        raw["invariants.orbit_min_distinct"] = len(self.orbit_keys)
        raw["spans.columns_max"] = self.columns_max
        raw["spans.cap_use"] = self.columns_max / self.columns_cap
        raw["poly.mul_s"] = float(self_t[req & np.isin(name, ids(["poly.mul"]))].sum())
        raw["poly.add_s"] = float(self_t[req & np.isin(name, ids(["poly.add"]))].sum())
        raw["certify.build_s"] = outermost(BUILD)
        raw["certify.verify_incl_s"] = outermost(["certify.verify"])
        raw["operators.validate_s"] = float(
            dur[np.isin(name, ids(["operators.validate"]))].sum())
        for i, layer in enumerate(LAYERS):
            raw[f"{layer}.self_s"] = float(self_t[req & (span_layer == i)].sum())
        raw["root_s"] = float(dur[roots[is_request]].sum())
        summary = {
            "spans": int(n),
            "requests": int(is_request.sum()),
            "self_sum_error_max_s": float(err.max()) if err.size else 0.0,
        }
        return raw, summary

    def save(self, path) -> None:
        """Write the raw spans: one row per span with its request index."""
        import numpy as np

        parent = np.frombuffer(self.parent, dtype=np.int64)
        roots = np.flatnonzero(parent == -1)
        bounds = np.append(roots, len(parent))
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            parent=parent,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            request=np.repeat(np.arange(len(roots)), np.diff(bounds)),
        )
