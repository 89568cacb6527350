"""Spans around the package's layer boundaries, recorded from outside.

The tracer wraps public functions of ``complex_core``, ``homology``,
``helly_engine`` and ``transversal_plane`` by rebinding every module-level
name in the package that refers to them, which is where callers look them
up at call time (``helly_engine`` imports ``union_members``,
``betti_number`` and friends by name).  ``uninstall`` restores the
originals.  Spans are kept in memory as (name, start, end, parent, trial)
rows and written out at the end; per-layer metrics are derived from them.

Counting work done after a wrapped call (ledger statuses, boundary-matrix
cells) is itself recorded as a ``tracer`` span, so it is charged to no
layer's self time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

TRACER = "tracer"
DRIVER = "driver"

# (span name, module, function): the layer boundaries that get spans.
SPANNED = (
    ("complex_core.intersect", "complex_core", "intersect_members"),
    ("complex_core.union", "complex_core", "union_members"),
    ("homology.betti_number", "homology", "betti_number"),
    ("homology.reduced_betti", "homology", "reduced_betti"),
    ("helly_engine.generate", "helly_engine", "random_family"),
    ("helly_engine.verify", "helly_engine", "run_verifier"),
    ("transversal_plane.profile", "transversal_plane", "transversal_profile"),
    ("transversal_plane.components", "transversal_plane", "components"),
    ("transversal_plane.disjointness", "transversal_plane", "disjointness_class"),
    ("transversal_plane.verify", "transversal_plane", "verify_theorem_321"),
    ("transversal_plane.generate", "transversal_plane", "random_stabbed_family"),
)
# Counted but not spanned: too fine-grained for a span of its own.
COUNTED = (("transversal_plane.polygon_draws", "transversal_plane", "random_convex_polygon"),)

PER_LAYER_METRICS = (
    ("complex_core.union.calls", "count"),
    ("complex_core.union.self_s", "s"),
    ("complex_core.union.simplices_out", "count"),
    ("complex_core.intersect.calls", "count"),
    ("complex_core.intersect.self_s", "s"),
    ("complex_core.intersect.simplices_out", "count"),
    ("helly_engine.verify.self_s", "s"),
    ("helly_engine.ledger.pass", "count"),
    ("helly_engine.ledger.fail", "count"),
    ("helly_engine.ledger.vacuous", "count"),
    ("helly_engine.generate.self_s", "s"),
    ("helly_engine.sat_ratio", "ratio"),
    ("homology.betti_number.calls", "count"),
    ("homology.betti_number.self_s", "s"),
    ("homology.reduced_betti.calls", "count"),
    ("homology.reduced_betti.self_s", "s"),
    ("homology.boundary_cells.gf2", "count"),
    ("homology.boundary_cells.q", "count"),
    ("transversal_plane.profile.calls", "count"),
    ("transversal_plane.profile.self_s", "s"),
    ("transversal_plane.profile.panels", "count"),
    ("transversal_plane.components.self_s", "s"),
    ("transversal_plane.disjointness.self_s", "s"),
    ("transversal_plane.verify.self_s", "s"),
    ("transversal_plane.generate.self_s", "s"),
    ("transversal_plane.generate.accept_ratio", "ratio"),
    ("driver.self_s", "s"),
    ("tracing_overhead_s", "s"),
    ("error_rate", "ratio"),
)


def _dim_counts(cx) -> dict:
    counts = defaultdict(int)
    for s in cx.simplices:
        counts[len(s) - 1] += 1
    return counts


def boundary_cells(cx, degree=None) -> int:
    """Rows x columns of the boundary matrices a homology call ranks.

    ``degree=None`` is ``reduced_betti`` (every boundary from 1 to the
    dimension); an integer is ``betti_number`` at that degree (the
    boundaries into and out of it, none for degrees below 1).
    """
    n = _dim_counts(cx)
    if not n:
        return 0
    dim = max(n)
    if degree is None:
        return sum(n[k - 1] * n[k] for k in range(1, dim + 1))
    if degree < 1 or degree > dim:
        return 0
    cells = n[degree - 1] * n[degree]
    if degree + 1 <= dim:
        cells += n[degree] * n[degree + 1]
    return cells


def _count_betti_number(counts, args, kwargs, result):
    cx, k = args[0], args[1]
    field = args[2] if len(args) > 2 else kwargs.get("field")
    counts[f"homology.boundary_cells.{_field_tag(field)}"] += boundary_cells(cx, k)


def _count_reduced_betti(counts, args, kwargs, result):
    field = args[1] if len(args) > 1 else kwargs.get("field")
    counts[f"homology.boundary_cells.{_field_tag(field)}"] += boundary_cells(args[0])


def _field_tag(field) -> str:
    return "gf2" if field is None else field.value


def _count_simplices(name):
    def count(counts, args, kwargs, result):
        counts[f"{name}.simplices_out"] += len(result.member_simplices)

    return count


def _count_ledger(counts, args, kwargs, result):
    for entry in result.ledger.entries:
        counts[f"helly_engine.ledger.{entry.status}"] += 1


def _count_panels(counts, args, kwargs, result):
    counts["transversal_plane.profile.panels"] += len(result.panels)


def _count_members(counts, args, kwargs, result):
    counts["transversal_plane.generate.members"] += result.size


COUNTERS = {
    "complex_core.intersect": _count_simplices("complex_core.intersect"),
    "complex_core.union": _count_simplices("complex_core.union"),
    "homology.betti_number": _count_betti_number,
    "homology.reduced_betti": _count_reduced_betti,
    "helly_engine.verify": _count_ledger,
    "transversal_plane.profile": _count_panels,
    "transversal_plane.generate": _count_members,
}


class Tracer:
    """Records spans for one process; install, run trials, uninstall."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, trial]
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []  # (module, attribute, original)
        self.trial = None

    # -- spans -------------------------------------------------------------
    def _open(self, name) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.trial])
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id) -> None:
        self.spans[span_id][2] = time.perf_counter()
        self._stack.pop()

    def run_trial(self, trial, fn, *args):
        """Run one trial under a root ``driver`` span."""
        self.trial = trial
        span_id = self._open(DRIVER)
        try:
            return fn(*args)
        finally:
            self._close(span_id)
            self.trial = None

    def _wrap(self, name, original, counter):
        def traced(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            span_id = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span_id)
            if counter is not None:
                tracer_id = self._open(TRACER)
                counter(self.counts, args, kwargs, result)
                self._close(tracer_id)
            return result

        traced.__wrapped__ = original
        return traced

    def _count_only(self, name, original):
        def counted(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            return original(*args, **kwargs)

        counted.__wrapped__ = original
        return counted

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = []
        for name, module, attr in SPANNED:
            original = getattr(_module(module), attr)
            wrappers.append((original, self._wrap(name, original, COUNTERS.get(name))))
        for name, module, attr in COUNTED:
            original = getattr(_module(module), attr)
            wrappers.append((original, self._count_only(name, original)))
        by_id = {id(orig): (orig, wrapper) for orig, wrapper in wrappers}
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ------------------------------------------------------------
    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"columns": ["name", "start", "end", "parent", "trial"], "spans": self.spans},
                fh,
            )


def _module(short):
    __import__(f"helly_topo.{short}")
    return sys.modules[f"helly_topo.{short}"]


def _package_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "helly_topo" or name.startswith("helly_topo."))
    ]


def self_times(spans) -> dict:
    """Total self time per span name: each span's duration minus the
    durations of the spans whose parent it is."""
    child_time = defaultdict(float)
    for name, start, end, parent, _trial in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals = defaultdict(float)
    for span_id, (name, start, end, _parent, _trial) in enumerate(spans):
        totals[name] += (end - start) - child_time[span_id]
    return dict(totals)


def layer_metrics(tracer: Tracer, *, trials: int, satisfied: int, errors: int,
                  overhead_s: float) -> dict:
    """Every per-layer metric from one traced run, with its unit."""
    selfs = self_times(tracer.spans)
    c = tracer.counts
    draws = c["transversal_plane.polygon_draws.calls"]
    derived = {
        "helly_engine.sat_ratio": satisfied / trials,
        "transversal_plane.generate.accept_ratio":
            c["transversal_plane.generate.members"] / draws if draws else 0.0,
        "tracing_overhead_s": overhead_s,
        "error_rate": errors / trials,
    }
    metrics = {}
    for metric, unit in PER_LAYER_METRICS:
        if metric in derived:
            value = derived[metric]
        elif metric.endswith(".self_s"):
            value = selfs.get(metric[: -len(".self_s")], 0.0)
        else:
            value = c[metric]
        metrics[metric] = {"value": value, "unit": unit}
    return metrics
