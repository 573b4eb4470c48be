"""In-memory spans recorded by the benchmark around its calls into oscsynth.

A span is (name, start, end, parent, trace id). Names are
`<module>.<operation>`, so a layer's numbers are the spans of its module.
Nothing here reaches into the library: spans wrap the public calls the
benchmark makes.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class NullTracer:
    """Stand-in used for untraced passes: records nothing."""

    def span(self, name):
        return _NULL

    def count(self, name, value=1):
        pass


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, trace id]
        self.counters = defaultdict(float)
        self.trace_id = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.trace_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value=1):
        self.counters[name] += value

    def totals(self):
        """{span name: (calls, self seconds)}. Self time is a span's duration
        minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += (end - start) - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def dump(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": n, "start_s": s - t0, "end_s": e - t0, "parent": p, "trace": t}
                for n, s, e, p, t in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counters": dict(self.counters)}, fh)
