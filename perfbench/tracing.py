"""In-memory spans and samples for the traced benchmark run.

A span records one timed call: its id, name, start and end (perf_counter
nanoseconds), the id of the span that was open when it started, and the
id of the benchmark item it belongs to.  Spans stay in memory while the
run lasts and are written out once, when it ends.  Samples are plain
per-item numbers (term counts, step counts) recorded at the same
boundaries.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []            # [id, name, start_ns, end_ns, parent_id, item_id]
        self.samples = defaultdict(list)
        self._open = []
        self._item = 0

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        span = self._open_span(name)
        try:
            span[2] = time.perf_counter_ns()
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter_ns()
            self._open.pop()

    @contextmanager
    def item(self, name):
        """Root span of one benchmark item; spans opened inside share its id."""
        self._item += 1
        span = self._open_span(name)
        try:
            span[2] = time.perf_counter_ns()
            yield span
        finally:
            span[3] = time.perf_counter_ns()
            self._open.pop()

    def _open_span(self, name):
        parent = self._open[-1] if self._open else None
        span = [len(self.spans), name, 0, 0, parent, self._item]
        self.spans.append(span)
        self._open.append(span[0])
        return span

    def sample(self, name, value):
        self.samples[name].append(value)

    def durations(self, name):
        """Durations in seconds of every span called ``name``."""
        return [(s[3] - s[2]) * 1e-9 for s in self.spans if s[1] == name]

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "item": item}) + "\n")
