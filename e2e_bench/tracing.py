"""Outside-in span recorder for the traced benchmark run.

The recorder patches a layer's public callables at the names their callers
look them up by (a module attribute or a class attribute) and records one
span per call: label, layer, thread, start, end, and the enclosing span on
the same thread.  Spans stay in memory and are written out when the run
ends.  Nothing is patched unless a :class:`Tracer` is installed, so the
untimed end-to-end runs execute the program untouched.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import defaultdict

from repro.perfmodel.flops import (
    bta_batch_factorization_flops,
    bta_factorization_flops,
    bta_selected_inversion_flops,
)


class Span:
    __slots__ = ("label", "layer", "thread", "start", "end", "parent", "info")

    def __init__(self, label, layer, thread, start, parent):
        self.label = label
        self.layer = layer
        self.thread = thread
        self.start = start
        self.end = None
        self.parent = parent
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "layer": self.layer,
            "thread": self.thread,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "info": self.info,
        }


class Tracer:
    """Records spans around patched callables; :meth:`restore` unpatches."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def open(self, label: str) -> Span:
        stack = self._stack()
        span = Span(
            label,
            label.split(".", 1)[0],
            threading.get_ident(),
            time.perf_counter(),
            stack[-1] if stack else None,
        )
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def _inside(self, layer: str) -> bool:
        return any(self.spans[i].layer == layer for i in self._stack())

    def wrap(self, owner, attr: str, label: str, on_call=None, *, outermost=False) -> None:
        """Patch ``owner.attr`` so each call records a ``label`` span.

        ``on_call(span, args, kwargs)`` may attach ``span.info`` (shapes,
        batch sizes) before the call runs.  ``outermost=True`` records no
        span for a call made inside an open span of the same layer on the
        same thread.  Static and class methods keep their binding.
        """
        static = inspect.getattr_static(owner, attr)
        kind = type(static) if isinstance(static, (staticmethod, classmethod)) else None
        fn = static.__func__ if kind else static
        layer = label.split(".", 1)[0]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost and tracer._inside(layer):
                return fn(*args, **kwargs)
            span = tracer.open(label)
            try:
                if on_call is not None:
                    on_call(span, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        setattr(owner, attr, kind(traced) if kind else traced)
        self._patches.append((owner, attr, static))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def closed_spans(self) -> list:
        return [s for s in self.spans if s.end is not None]

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [s.as_dict() for s in self.spans], **extra}, fh)


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def label_stats(spans: list, label: str) -> dict:
    """One label's ``calls``, ``busy_s`` (summed over threads), ``wall_s``
    (union of intervals), ``threads``, ``mean_ms``, ``concurrency`` (busy
    over wall), ``flops_computed`` (the spans' computed flops) and
    ``gflops`` (computed flops over busy time)."""
    group = [s for s in spans if s.label == label]
    busy = sum(s.duration for s in group)
    wall = union_length((s.start, s.end) for s in group)
    flops = sum(s.info or 0.0 for s in group)
    return {
        "calls": len(group),
        "busy_s": busy,
        "wall_s": wall,
        "threads": len({s.thread for s in group}),
        "mean_ms": 1e3 * busy / len(group) if group else 0.0,
        "concurrency": busy / wall if wall else 0.0,
        "flops_computed": flops,
        "gflops": flops / busy / 1e9 if busy else 0.0,
        "durations": [s.duration for s in group],
    }


def emit(out: dict, spans: list, label: str, keys) -> None:
    """Copy the named :func:`label_stats` entries into ``out`` as ``label.key``."""
    st = label_stats(spans, label)
    for key in keys:
        out[f"{label}.{key}"] = st[key]


def layer_stats(tracer: Tracer, spans: list) -> dict:
    """Per layer, as ``layer.busy_s`` / ``layer.wall_s`` / ``layer.self_s``:
    busy time (per-thread unions summed), wall coverage (union across
    threads) and self time (span time not covered by child spans on the
    same thread)."""
    index = {id(s): i for i, s in enumerate(tracer.spans)}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    per_thread = defaultdict(list)
    by_layer = defaultdict(list)
    self_s = defaultdict(float)
    for s in spans:
        per_thread[(s.layer, s.thread)].append((s.start, s.end))
        by_layer[s.layer].append((s.start, s.end))
        kids = children.get(index[id(s)], ())
        self_s[s.layer] += s.duration - union_length((k.start, k.end) for k in kids)
    busy = defaultdict(float)
    for (layer, _), iv in per_thread.items():
        busy[layer] += union_length(iv)
    return {
        f"{layer}.{key}": value
        for layer, iv in by_layer.items()
        for key, value in (
            ("busy_s", busy[layer]), ("wall_s", union_length(iv)), ("self_s", self_s[layer])
        )
    }


# -- computed flops, from the performance model, attached to spans -----------


def factorize_flops(span, args, kwargs):
    A = args[0]
    span.info = bta_factorization_flops(A.n, A.b, A.a)


def factorize_batch_flops(span, args, kwargs):
    stack = args[0]
    t, n, b, _ = stack.diag.shape
    span.info = bta_batch_factorization_flops(t, n, b, stack.tip.shape[-1])


def selinv_flops(span, args, kwargs):
    factor = args[0]
    # The handle caches the diagonal; only the first call computes it.
    computed = getattr(factor, "_selinv_diag", None) is None
    span.info = bta_selected_inversion_flops(factor.n, factor.b, factor.a) if computed else 0.0
