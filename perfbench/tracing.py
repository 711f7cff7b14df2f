"""Span recorder for the traced benchmark run.

Each layer is one module of ``transversal``.  ``Tracer.install`` replaces the
layer's public functions listed in ``LAYER_FUNCTIONS`` with recording wrappers,
in the defining module and in every ``transversal`` namespace that imported
them by name, so calls through ``from .x import f`` are seen as well.  A span
records its name, start, end, parent span and operation id, plus counts that
are computed from the call's arguments or read from its result.  Spans stay
in memory until ``write_jsonl`` is called at the end of the run.

The recorder assumes one thread: the program runs single-threaded with its
default worker count, and a span's parent is the span open when it started.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time

#: public functions wrapped per layer (module of ``transversal``)
LAYER_FUNCTIONS = {
    "transversality": ("q_exact", "q_montecarlo", "finner_check", "i_p", "jp_bound_check"),
    "volumes": (
        "kp_volume",
        "vis_p",
        "polar_zonotope_volume",
        "santalo_check",
        "covariance",
        "sigma2_plane",
    ),
    "lewis": ("lewis_solve", "isotropy_defect", "lewis_p2_closed_form"),
    "zonotope": (
        "zonotope_volume",
        "mixed_volume",
        "bezout_check",
        "sigma_plane",
        "projection_body",
        "project_zonotope",
    ),
    "inequality_lab": ("run_check", "run_suite", "write_report_json"),
    "reports": ("make_report", "fingerprint"),
    "cli": ("main",),
    "hypersurface": ("random_surface", "load_surface", "save_surface"),
}

LAYERS = tuple(LAYER_FUNCTIONS)

#: operation id of spans recorded outside a timed operation (set-up)
SETUP_OP = -1


# ---------------------------------------------------------------------------
# counts computed from arguments or read from results
# ---------------------------------------------------------------------------


def _falling(m, r):
    out = 1
    for i in range(r):
        out *= max(m - i, 0)
    return out


def tuple_counts(surfaces):
    """(ordered tuples, tuples that repeat an atom of one surface) for the
    given slot list; slots holding the same surface object share atoms."""
    total = math.prod(s.m for s in surfaces)
    groups = {}
    for s in surfaces:
        groups.setdefault(id(s), [s.m, 0])[1] += 1
    distinct = math.prod(_falling(m, r) for m, r in groups.values())
    return total, total - distinct


def _arg(args, kwargs, index, name):
    """A call's argument, whether passed by position or by name."""
    return args[index] if len(args) > index else kwargs[name]


def _slots(surfaces, j):
    if hasattr(surfaces, "m"):
        return [surfaces] * int(j)
    return list(surfaces)


def _note_q_exact(span, args, kwargs, result):
    surfaces = _slots(_arg(args, kwargs, 0, "surfaces"), _arg(args, kwargs, 1, "j"))
    span["tuples"], span["repeated"] = tuple_counts(surfaces)


def _note_finner(span, args, kwargs, result):
    cover = _arg(args, kwargs, 1, "cover")
    surfaces = _slots(_arg(args, kwargs, 0, "surfaces"), cover.j)
    tuples, repeated = tuple_counts(surfaces)
    # full tuple sum, one sum per cover block, then the refinement pass
    span["tuples"], span["repeated"] = 2 * tuples, 2 * repeated
    for block in cover.sets:
        t, r = tuple_counts([surfaces[i] for i in block])
        span["tuples"] += t
        span["repeated"] += r


def _note_kp_volume(span, args, kwargs, result):
    span["route"] = result.method if result.method in ("exact", "radial_mc") else "other"
    if result.method == "radial_mc":
        span["samples"] = int(result.n_samples)


def _note_lewis(span, args, kwargs, result):
    span["iterations"] = int(result.iterations)
    span["converged"] = bool(result.converged)


def _note_zonotope_volume(span, args, kwargs, result):
    z = _arg(args, kwargs, 0, "z")
    span["subsets"] = math.comb(z.m, z.d) if z.m >= z.d else 0


def _note_mixed_volume(span, args, kwargs, result):
    entries = list(_arg(args, kwargs, 2, "entries"))
    sizes = [getattr(e, "m", 1) for e in entries]
    span["mixed_tuples"] = math.prod(sizes) if entries else 0


def _note_run_check(span, args, kwargs, result):
    span["verdict"] = result.verdict


NOTES = {
    "transversality.q_exact": _note_q_exact,
    "transversality.finner_check": _note_finner,
    "volumes.kp_volume": _note_kp_volume,
    "lewis.lewis_solve": _note_lewis,
    "zonotope.zonotope_volume": _note_zonotope_volume,
    "zonotope.mixed_volume": _note_mixed_volume,
    "inequality_lab.run_check": _note_run_check,
}


# ---------------------------------------------------------------------------
# recorder
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory span recorder; records only while ``active`` is true."""

    def __init__(self):
        self.spans = []
        self.active = False
        self.op = SETUP_OP
        self._stack = []
        self._last_error = {}
        self._patched = []

    def wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = {
                "name": name,
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "op": self.op,
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count an exception once per layer: at the innermost span
                # of that layer it leaves
                if self._last_error.get(layer) is not exc:
                    self._last_error[layer] = exc
                    span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if note is not None:
                note(span, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every function of ``LAYER_FUNCTIONS`` wherever it is bound
        in an imported ``transversal`` module."""
        namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "transversal"]
        for layer, names in LAYER_FUNCTIONS.items():
            module = importlib.import_module(f"transversal.{layer}")
            for fname in names:
                original = getattr(module, fname)
                traced = self.wrap(f"{layer}.{fname}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, traced)
                            self._patched.append((ns, attr, original))

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched = []

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# self time and per-layer metrics
# ---------------------------------------------------------------------------


def _covered(intervals):
    """Length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per span: its duration minus the part its child spans cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for s in spans:
        kids = [(max(lo, s["start"]), min(hi, s["end"])) for lo, hi in children.get(s["id"], [])]
        out.append((s["end"] - s["start"]) - _covered([k for k in kids if k[1] > k[0]]))
    return out


def layer_metrics(spans):
    """Per-layer metrics over every recorded span (set-up included), plus the
    accounting of the timed operations' spans (``op >= 0``)."""
    selfs = self_times(spans)
    by_fn = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    errors = {layer: 0 for layer in LAYERS}
    counts = dict.fromkeys(("tuples", "repeated", "samples", "iterations", "subsets", "mixed_tuples"), 0)
    unconverged = inconclusive = 0
    routes = {"exact": 0, "radial_mc": 0, "other": 0}
    mc_self = 0.0
    op_self = 0.0
    for s, st in zip(spans, selfs):
        name = s["name"]
        layer = name.split(".", 1)[0]
        calls, total = by_fn.get(name, (0, 0.0))
        by_fn[name] = (calls + 1, total + st)
        layer_self[layer] += st
        if s["op"] >= 0:
            op_self += st
        errors[layer] += "error" in s
        for key in counts:
            counts[key] += s.get(key, 0)
        unconverged += s.get("converged") is False
        inconclusive += s.get("verdict") == "inconclusive"
        if "route" in s:
            routes[s["route"]] += 1
            if s["route"] == "radial_mc":
                mc_self += st

    def calls(name):
        return by_fn.get(name, (0, 0.0))[0]

    def self_s(name):
        return by_fn.get(name, (0, 0.0))[1]

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}
    for name in (
        "transversality.q_exact",
        "transversality.finner_check",
        "volumes.kp_volume",
        "volumes.polar_zonotope_volume",
        "lewis.lewis_solve",
        "zonotope.zonotope_volume",
        "zonotope.mixed_volume",
        "inequality_lab.run_check",
        "reports.make_report",
        "reports.fingerprint",
        "cli.main",
    ):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in (
        "zonotope.bezout_check",
        "zonotope.sigma_plane",
        "inequality_lab.run_suite",
        "inequality_lab.write_report_json",
        "hypersurface.random_surface",
        "hypersurface.load_surface",
        "hypersurface.save_surface",
    ):
        m[f"{name}.self_s"] = self_s(name)
    tuples, repeated = counts["tuples"], counts["repeated"]
    tuple_self = self_s("transversality.q_exact") + self_s("transversality.finner_check")
    m["transversality.tuples"] = tuples
    m["transversality.repeated_tuples"] = repeated
    m["transversality.useful_tuple_share"] = ratio(tuples - repeated, tuples)
    m["transversality.ns_per_tuple"] = ratio(tuple_self, tuples, 1e9)
    for route, n in routes.items():
        m[f"volumes.route.{route}.calls"] = n
    m["volumes.mc_samples"] = counts["samples"]
    m["volumes.radial_mc.ns_per_sample"] = ratio(mc_self, counts["samples"], 1e9)
    m["lewis.iterations"] = counts["iterations"]
    m["lewis.unconverged"] = unconverged
    m["lewis.us_per_iteration"] = ratio(self_s("lewis.lewis_solve"), counts["iterations"], 1e6)
    m["zonotope.subsets"] = counts["subsets"]
    m["zonotope.ns_per_subset"] = ratio(self_s("zonotope.zonotope_volume"), counts["subsets"], 1e9)
    m["zonotope.mixed_tuples"] = counts["mixed_tuples"]
    m["zonotope.us_per_mixed_tuple"] = ratio(self_s("zonotope.mixed_volume"), counts["mixed_tuples"], 1e6)
    m["inequality_lab.inconclusive"] = inconclusive
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
        m[f"{layer}.errors"] = errors[layer]
    m["trace.spans"] = len(spans)
    m["trace.self_sum_s"] = op_self
    return m
