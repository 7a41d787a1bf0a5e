"""Span recording around the public functions of the twopoint layers.

The package source is not edited: :class:`Recorder` replaces the listed
functions with timing wrappers at run time and restores them afterwards.
A span is ``[name, start, end, parent, op, peak_alloc_mb]``; spans are
kept in memory and written out by the caller when the run ends.

Peak allocation comes from ``tracemalloc``, switched on only inside the
spans named in :data:`ALLOC_SPANS` and only when the recorder is built
with ``measure_alloc``.  ``tracemalloc`` slows allocation-heavy Python
code many times over (the Bernoulli tail model by about 15x), so the
caller profiles memory on a separate operation whose times are not used.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
import tracemalloc
from collections import defaultdict

#: traced functions per module; ``measure`` names are ZeroMeanMeasure members
TRACED = {
    "cli": ("main", "load_samples", "emit"),
    "estimator": ("empirical_partners", "bootstrap_ci", "denominator"),
    "selfnorm": ("conservative_test", "s_w", "s_y", "bernoulli_tail_model"),
    "measure": ("from_samples", "from_atoms", "u_segments", "reciprocate",
                "v_map"),
    "disintegration": ("decompose", "ratio_moments", "mixture_expect",
                       "side_masses_from_levels", "sample_pairs"),
    "optimal": ("canonical_cost",),
}

ALLOC_SPANS = ("estimator.bootstrap_ci", "selfnorm.bernoulli_tail_model",
               "disintegration.sample_pairs")

NAME, START, END, PARENT, OP, ALLOC = range(6)


class Recorder:
    """Collects spans while its wrappers are installed."""

    def __init__(self, measure_alloc: bool = False):
        self.spans: list = []
        self.measure_alloc = measure_alloc
        self._stack: list = []

    def _call(self, name, fn, args, kwargs):
        # the operation id is stamped by the caller once the op has ended
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        alloc = (self.measure_alloc and name in ALLOC_SPANS
                 and not tracemalloc.is_tracing())
        if alloc:
            tracemalloc.start()
        span[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            if alloc:
                span[ALLOC] = tracemalloc.get_traced_memory()[1] / 2 ** 20
                tracemalloc.stop()
            self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route every reference to a traced function through a wrapper,
        including re-exports such as ``twopoint.decompose``."""
        import twopoint
        from twopoint import (cli, disintegration, estimator, measure,
                              optimal, selfnorm)
        modules = {"cli": cli, "estimator": estimator, "selfnorm": selfnorm,
                   "measure": measure, "disintegration": disintegration,
                   "optimal": optimal}
        namespaces = [twopoint, *modules.values()]
        cls = measure.ZeroMeanMeasure
        undo = []

        def patch(obj, attr, new):
            undo.append((obj, attr, vars(obj)[attr]))
            setattr(obj, attr, new)

        for layer, names in TRACED.items():
            for fname in names:
                span = f"{layer}.{fname}"
                if layer == "measure":
                    raw = vars(cls)[fname]
                    if isinstance(raw, classmethod):
                        patch(cls, fname,
                              classmethod(self._wrap(span, raw.__func__)))
                    else:
                        patch(cls, fname, self._wrap(span, raw))
                    continue
                orig = getattr(modules[layer], fname)
                wrapper = self._wrap(span, orig)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is orig:
                            patch(ns, attr, wrapper)
        try:
            yield self
        finally:
            for obj, attr, val in reversed(undo):
                setattr(obj, attr, val)


def op_profile(spans) -> dict:
    """Self time, call count and peak allocation per span name for the
    spans of one operation.  Self time is a span's duration minus the
    durations of its direct children (children never overlap)."""
    child = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    self_s = defaultdict(float)
    calls = defaultdict(int)
    alloc = {}
    for i, s in enumerate(spans):
        self_s[s[NAME]] += s[END] - s[START] - child[i]
        calls[s[NAME]] += 1
        if s[ALLOC] is not None:
            alloc[s[NAME]] = max(alloc.get(s[NAME], 0.0), s[ALLOC])
    return {"self_s": dict(self_s), "calls": dict(calls), "alloc": alloc}


def layer_metrics(profiles, walls, alloc_profile, untraced_walls) -> dict:
    """Per-layer metrics from traced operations.

    ``profiles`` and ``walls`` hold one :func:`op_profile` and one wall
    time per traced operation; each ``self_s``, ``calls`` and ``share``
    is the median over them.  ``alloc_profile`` comes from the
    memory-profiled operation.  ``untraced_walls`` are the wall times of
    the same inputs run without wrappers, for ``tracing.overhead``.
    """
    out = {}
    for layer, names in TRACED.items():
        for fname in names:
            span = f"{layer}.{fname}"
            out[f"{span}.self_s"] = statistics.median(
                p["self_s"].get(span, 0.0) for p in profiles)
            out[f"{span}.calls"] = statistics.median(
                p["calls"].get(span, 0) for p in profiles)
        out[f"{layer}.share"] = statistics.median(
            sum(v for k, v in p["self_s"].items()
                if k.startswith(layer + ".")) / wall
            for p, wall in zip(profiles, walls))
    for span in ALLOC_SPANS:
        out[f"{span}.peak_alloc_mb"] = alloc_profile["alloc"].get(span, 0.0)
    out["tracing.overhead"] = (statistics.median(walls)
                               / statistics.median(untraced_walls) - 1.0)
    return out
