"""Per-layer spans recorded from outside the package, by wrapping its functions.

A ``Tracer`` replaces each traced function with a timing wrapper in every
latdir module that binds it (``latdir.cli.enumerate_points`` and
``latdir.diophantine.enumerate_points`` are the same function under two
names), and puts the originals back on ``restore``.  Spans are kept in
memory as ``[name, start, end, parent]`` and reduced to per-layer totals,
call counts and self times by ``layer_metrics``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager


def _points(fn, args, kwargs, out):
    return {"lattice.points": len(out)}


def _samples(fn, args, kwargs, out):
    return {"limit.samples": out.total}


def _nodes(fn, args, kwargs, out):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return {"escape.nodes": int(bound.arguments["n_quad"])}


# (module, attribute, span name, counter or None).  An attribute
# "Class.method" is patched on the class.
TARGETS = [
    ("latdir.lattice", "enumerate_points", "lattice.enumerate_points", _points),
    ("latdir.lattice", "directions", "lattice.directions", None),
    ("latdir.stats", "pair_correlation", "stats.pair_correlation", None),
    ("latdir.stats", "spacing_histogram", "stats.spacing_histogram", None),
    ("latdir.stats", "mixed_moment", "stats.mixed_moment", None),
    ("latdir.stats", "pair_correlation_integral", "stats.pair_correlation_integral", None),
    ("latdir.stats", "window_counts", "stats.window_counts", None),
    ("latdir.limit", "sample_count_distribution", "limit.sample_count_distribution", _samples),
    ("latdir.limit", "iwasawa_matrix", "limit.iwasawa_matrix", None),
    ("latdir.limit", "cone_counts", "limit.cone_counts", None),
    ("latdir.limit", "CountDistribution.moment", "limit.distribution_stats", None),
    ("latdir.limit", "CountDistribution.moment_mom", "limit.distribution_stats", None),
    ("latdir.limit", "CountDistribution.survival", "limit.distribution_stats", None),
    ("latdir.limit", "tail_exponent", "limit.distribution_stats", None),
    ("latdir.limit", "siegel_average", "limit.siegel_average", None),
    ("latdir.escape", "horocycle_escape_integral", "escape.horocycle_escape_integral", _nodes),
    ("latdir.escape", "cusp_window_sum", "escape.cusp_window_sum", None),
    ("latdir.diophantine", "dioph_scan", "diophantine.dioph_scan", None),
    ("latdir.diophantine", "rational_divergence_probe", "diophantine.rational_divergence_probe",
     None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                self.counts.update(count(fn, args, kwargs, out))
            return out

        return traced

    def install(self):
        """Patch every target in every loaded latdir module that binds it."""
        modules = [m for k, m in sys.modules.items() if k == "latdir" or k.startswith("latdir.")]
        for mod_name, attr, name, count in TARGETS:
            home = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(orig, name, count))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(orig, name, count)
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    self._set(mod, attr, wrapped)

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def reset(self):
        self.spans.clear()
        self.counts.clear()


def self_times(spans, which) -> list[float]:
    """Self time of each span index in ``which``: its duration minus its direct children's.

    Spans never overlap, because the traced code is single-threaded.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [spans[i][2] - spans[i][1] - child_time[i] for i in which]


def layer_metrics(spans, counts) -> dict:
    """Totals per span name: ``.s`` (outermost spans only), ``.calls`` and ``.self_s``."""
    own = self_times(spans, range(len(spans)))
    out: dict = {}
    for i, (name, start, end, parent) in enumerate(spans):
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (end - start)
    out.update(counts)
    return out
