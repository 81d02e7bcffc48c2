"""Thread-aware span tracer that wraps tannolab's layer functions from outside.

The tracer patches module functions and methods of the installed package for
the duration of a ``with Tracer():`` block and restores them afterwards; the
package itself carries no tracing code.  Every wrapped call records a span
``(id, parent id, name, start, end)`` into a buffer owned by the calling
thread.  Parent ids come from a per-thread stack; items that
``CheckContext.map_points`` hands to its thread pool are given the
submitting ``verify.map_points`` span as their parent explicitly, so a
layer's self time (its span time minus the union of its children's
intervals) stays correct across threads.  Spans stay in memory until
:meth:`Tracer.write_spans` is called at the end of a run.

Cache hits are counted without knowing the caches' key formats: a chart
lookup is a miss when ``KahlerChart._cached`` calls its builder, and a field
lookup is a miss when ``jets`` calls the field's ``_jets``.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

# (module, attribute path, span name).  A name may be shared by several
# functions; its metrics then sum over all of them.
SPANS = [
    ("tannolab.jets", "tconv_single", "jets.tconv_single"),
    ("tannolab.jets", "eval_scalar_expr", "jets.eval_scalar_expr"),
    ("tannolab.jets", "tinv", "jets.tinv"),
    ("tannolab.charts", "KahlerChart.metric_jets", "charts.metric_jets"),
    ("tannolab.charts", "KahlerChart.christoffel_jets", "charts.christoffel_jets"),
    ("tannolab.calculus", "scalar_covariant_jets", "calculus.scalar_covariant_jets"),
    ("tannolab.tanno", "transport_bundle", "tanno.transport_bundle"),
    ("tannolab.tanno", "_transport_rhs", "tanno.transport_rhs"),
    ("tannolab.tanno", "tanno_residual", "tanno.tanno_residual"),
    ("tannolab.manifolds", "integrate_geodesic", "manifolds.integrate_geodesic"),
    ("tannolab.manifolds", "_geodesic_rhs", "manifolds.geodesic_rhs"),
    ("tannolab.manifolds", "_run_rk4", "manifolds.rk4_round"),
    ("tannolab.operator", "assemble_L", "operator.assemble_L"),
    ("tannolab.operator", "StarField._jets", "operator.star_jets"),
    ("tannolab.operator", "projector_from_solution", "operator.projector_from_solution"),
    ("tannolab.signature", "positivity_scan", "signature.positivity_scan"),
    ("tannolab.signature", "_refine_extremum", "signature.refine_extremum"),
    ("tannolab.fd", "fd_gradient", "fd.oracle"),
    ("tannolab.fd", "fd_hessian", "fd.oracle"),
    ("tannolab.fd", "fd_third", "fd.oracle"),
    ("tannolab.fd", "christoffel_fd", "fd.oracle"),
]

# Counters derived from return values: {span name: (counter, fn(result) -> int)}.
RESULT_COUNTS = {
    "manifolds.rk4_round": ("manifolds.rk4_steps",
                            lambda out: len(out[0].samples) - 1),
    "manifolds.integrate_geodesic": ("manifolds.kept_steps",
                                     lambda out: len(out.samples) - 1),
    "signature.positivity_scan": ("signature.kept_candidates",
                                  lambda out: len(out.extremal_findings)),
}

MAP_POINTS = ("tannolab.verify", "CheckContext.map_points", "verify.map_points")
MAP_ITEM = "verify.map_points.item"
FIELD_JETS = [("tannolab.fields", "ScalarField.jets"),
              ("tannolab.fields", "MatrixField.jets")]


class _ThreadState:
    __slots__ = ("ident", "stack", "spans", "counts", "field_frames")

    def __init__(self):
        self.ident = threading.get_ident()
        self.stack = []
        self.spans = []
        self.counts = Counter()
        self.field_frames = []


def _resolve(module_name: str, path: str):
    """(owner, attribute) for 'func' or 'Class.method' in a module, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object]] = []
        self.charts: list = []
        self.unhooked: list[str] = []

    # -- recording ------------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            self._states.append(st)
        return st

    def _run(self, st, name, parent, fn, args, kwargs):
        sid = next(self._ids)
        if parent is None:
            parent = st.stack[-1] if st.stack else 0
        st.stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            st.stack.pop()
            st.spans.append((sid, parent, name, t0, t1))

    def _span(self, name, fn):
        state, run = self._state, self._run
        counted = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            out = run(st, name, None, fn, args, kwargs)
            if counted is not None:
                st.counts[counted[0]] += counted[1](out)
            return out
        return wrapper

    def _map_points(self, fn):
        state, run = self._state, self._run

        @functools.wraps(fn)
        def wrapper(ctx, item_fn, *args, **kwargs):
            parent = state().stack[-1]

            def item(q):
                return run(state(), MAP_ITEM, parent, item_fn, (q,), {})
            return fn(ctx, item, *args, **kwargs)
        return wrapper

    def _field_jets(self, fn):
        state, run = self._state, self._run

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            st.field_frames.append(False)
            try:
                return run(st, "fields.jets", None, fn, args, kwargs)
            finally:
                built = st.field_frames.pop()
                st.counts["fields.cache_miss" if built else "fields.cache_hit"] += 1
        return wrapper

    def _field_build(self, fn):
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frames = state().field_frames
            if frames:
                frames[-1] = True
            return fn(*args, **kwargs)
        return wrapper

    def _chart_cached(self, fn):
        state = self._state

        @functools.wraps(fn)
        def wrapper(chart, kind, p, order, builder):
            built = False

            def build():
                nonlocal built
                built = True
                return builder()
            out = fn(chart, kind, p, order, build)
            state().counts["charts.cache_miss" if built else "charts.cache_hit"] += 1
            return out
        return wrapper

    def _chart_init(self, fn):
        charts = self.charts

        @functools.wraps(fn)
        def wrapper(chart, *args, **kwargs):
            fn(chart, *args, **kwargs)
            charts.append(chart)
        return wrapper

    # -- patching -------------------------------------------------------------

    def _patch(self, module_name, path, make_wrapper, label):
        found = _resolve(module_name, path)
        if found is None:
            self.unhooked.append(f"{module_name}.{path} ({label})")
            return
        owner, attr = found
        original = vars(owner)[attr]
        wrapped = make_wrapper(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)
        if "." not in path:
            # Rebind every `from .module import name` copy in the package.
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or mod is None:
                    continue
                if mod_name != "tannolab" and not mod_name.startswith("tannolab."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def __enter__(self):
        from tannolab import fields
        classes, todo = [], [fields.ScalarField, fields.MatrixField]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if cls.__module__.startswith("tannolab") and "_jets" in vars(cls):
                classes.append(cls)
        for cls in classes:
            self._patch(cls.__module__, f"{cls.__name__}._jets",
                        self._field_build, "field cache")
        for module_name, path in FIELD_JETS:
            self._patch(module_name, path, self._field_jets, "fields.jets")
        self._patch("tannolab.charts", "KahlerChart._cached",
                    self._chart_cached, "chart cache")
        self._patch("tannolab.charts", "KahlerChart.__init__",
                    self._chart_init, "chart registry")
        for module_name, path, name in SPANS:
            self._patch(module_name, path,
                        lambda fn, name=name: self._span(name, fn), name)
        module_name, path, name = MAP_POINTS
        self._patch(module_name, path,
                    lambda fn: self._span(name, self._map_points(fn)), name)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    # -- results --------------------------------------------------------------

    def spans(self):
        """All spans as (id, parent, name, thread, start, end)."""
        return [(sid, parent, name, st.ident, t0, t1)
                for st in self._states
                for sid, parent, name, t0, t1 in st.spans]

    def counts(self) -> Counter:
        total = Counter()
        for st in self._states:
            total.update(st.counts)
        total["charts.cache_entries"] = sum(
            len(getattr(c, "_cache", ())) for c in self.charts)
        return total

    def write_spans(self, path) -> int:
        rows = self.spans()
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "thread", "start_s", "end_s"])
            writer.writerows(rows)
        return len(rows)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans, resolved_workers: int):
    """Per-name calls, inclusive and self seconds, plus pool efficiency."""
    children = defaultdict(list)
    for sid, parent, name, tid, t0, t1 in spans:
        children[parent].append((t0, t1, name, tid))
    calls, total_s, self_s = Counter(), defaultdict(float), defaultdict(float)
    busy = capacity = 0.0
    for sid, parent, name, tid, t0, t1 in spans:
        kids = children.get(sid, ())
        calls[name] += 1
        total_s[name] += t1 - t0
        self_s[name] += (t1 - t0) - _covered([(a, b) for a, b, _, _ in kids], t0, t1)
        if name == MAP_POINTS[2]:
            items = [k for k in kids if k[2] == MAP_ITEM]
            pooled = any(k[3] != tid for k in items)
            workers = min(resolved_workers, len(items)) if pooled else 1
            busy += sum(b - a for a, b, _, _ in items)
            capacity += (t1 - t0) * max(1, workers)
    return calls, total_s, self_s, (busy / capacity if capacity else 0.0)
