"""Span recording for the benchmark's traced run.

Spans are recorded only by the benchmark's own code: the workloads wrap
their calls into epigraph in ``tracer.span(...)``, and while a traced pass
runs, ``Tracer.patched`` swaps a few module attributes that the package
looks up at call time (``epigraph.crusade.monotone_table`` inside
``resilience_table``, ``epigraph.verify.oracle_resilience_table`` inside
``check_oracle_agreement``, ``epigraph.simulation.simulate`` inside the
serial ``estimate_extinction`` loop, ...) for span-recording wrappers, so
nested calls show as child spans. Nothing in ``src/`` changes, and every
attribute is restored when the pass ends.

A span is ``[name, start, end, parent, item, attrs]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``item`` the workload item
(graph label) being processed, ``attrs`` a dict of exact counts or None.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: ``span`` costs one method call and records nothing."""

    item = None

    def span(self, name, **attrs):
        return _NULL


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item = None

    @contextlib.contextmanager
    def span(self, name, **attrs):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.item, attrs or None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, annotate=None):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if annotate is not None:
                    rec[5] = annotate(args, out)
            return out

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Swap ``(module, attr, span_name, annotate)`` targets for traced wrappers."""
        saved = []
        try:
            for module, attr, name, annotate in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, annotate))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


class SpanTotals:
    """Per span name: call count, inclusive and self seconds, summed attrs.

    Self time is a span's duration minus the durations of its direct
    children (children of one span never overlap: the run is one thread).
    """

    def __init__(self, spans):
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.attrs = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, _, attrs) in enumerate(spans):
            key = name
            if attrs and "policy" in attrs:
                key = f"{name}.{attrs['policy']}"
            self.calls[key] += 1
            self.total_s[key] += end - start
            self.self_s[key] += end - start - child[i]
            for k, v in (attrs or {}).items():
                if not isinstance(v, str):
                    self.attrs[key][k] += v

    def per_unit_ns(self, name, unit) -> float:
        """Self nanoseconds per unit of the ``unit`` attr; 0 when never called."""
        count = self.attrs[name][unit]
        return self.self_s[name] * 1e9 / count if count else 0.0
