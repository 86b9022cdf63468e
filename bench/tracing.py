"""In-memory spans for the benchmark's traced runs.

A span has a name, a start, an end, the span that opened it and the index
of the operation it belongs to (None during set-up).  The layer of a span is
the part of its name before the first dot: ``fit.fit_spectrum[free]`` belongs
to ``fit``.  Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

_NO_SPAN = nullcontext()


class NullTracer:
    """Stands in for a Tracer when tracing is off; records nothing."""

    def span(self, name, size=None):
        return _NO_SPAN

    def size(self, n):
        pass


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent, op, size]
        self._open = []
        self._closed = None
        self.op = None

    @contextmanager
    def span(self, name, size=None):
        """Time the enclosed block.  `size` is a work count (pulses, bytes,
        iterations) kept with the span for rates."""
        rec = [name, time.perf_counter(), None,
               self._open[-1] if self._open else None, self.op, size]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()
            self._closed = rec

    def size(self, n):
        """Set the work count of the span that closed last."""
        self._closed[5] = n

    def self_times(self) -> list:
        """Each span's duration minus the part its direct children cover."""
        own = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def durations(self, name) -> list:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def sizes(self, name) -> list:
        return [s[5] for s in self.spans if s[0] == name]

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = [{"name": n, "start_s": s - t0, "end_s": e - t0, "parent": p,
                "op": op, "size": size}
               for n, s, e, p, op, size in self.spans]
        with open(path, "w") as fh:
            json.dump(doc, fh)
