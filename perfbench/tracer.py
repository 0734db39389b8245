"""In-memory span tracer for the benchmark.

Spans are recorded around calls into the library's layers by replacing a
public function at the name its caller looks it up under (for example
``pipeline.aided_step``, or ``kernels.batch_nearest``, which ``icp`` reads
through the package on every call). Nothing inside the library changes: the
wrappers are installed for one traced replay and removed after it.

A span holds (run id, span id, parent span id, name, start ns, end ns, ok).
A layer's self time is a span's duration minus the durations of its direct
children, so self times add up to the root span.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    run_id: str
    span_id: int
    parent_id: int
    name: str
    start_ns: int
    end_ns: int
    ok: bool

    @property
    def duration_s(self):
        return (self.end_ns - self.start_ns) * 1e-9


class Tracer:
    """Collects spans, and counters per run id; write them out once, when the
    run ends."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: defaultdict[str, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self.run_id = ""

    def _open(self):
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start, ok):
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[span_id] = Span(self.run_id, span_id, parent, name, start, end, ok)

    @contextlib.contextmanager
    def span(self, name):
        span_id, parent = self._open()
        start = time.perf_counter_ns()
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(span_id, parent, name, start, ok)

    def _wrapper(self, original, name, on_result):
        def traced(*args, **kwargs):
            span_id, parent = self._open()
            start = time.perf_counter_ns()
            ok = False
            try:
                result = original(*args, **kwargs)
                ok = True
            finally:
                self._close(span_id, parent, name, start, ok)
            if on_result is not None:
                on_result(self.counts[self.run_id], args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, run_id, targets):
        """Trace ``targets`` — (owner, attribute, span name, on_result or None)
        tuples — for the duration of the block, under ``run_id``."""
        self.run_id = run_id
        originals = []
        try:
            for owner, attr, name, on_result in targets:
                original = getattr(owner, attr)
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(original, name, on_result))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def finished(self, run_ids=None):
        return [s for s in self.spans if s is not None and (run_ids is None or s.run_id in run_ids)]

    def summary(self, run_ids=None):
        """Per span name: calls, errors, total (inclusive) seconds, self
        seconds and the list of durations."""
        spans = self.finished(run_ids)
        child_time = defaultdict(int)
        for s in spans:
            if s.parent_id >= 0:
                child_time[s.parent_id] += s.end_ns - s.start_ns
        out = defaultdict(lambda: {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        for s in spans:
            entry = out[s.name]
            entry["calls"] += 1
            entry["errors"] += 0 if s.ok else 1
            entry["total_s"] += s.duration_s
            entry["self_s"] += (s.end_ns - s.start_ns - child_time[s.span_id]) * 1e-9
            entry["durations"].append(s.duration_s)
        return out

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("run_id,span_id,parent_id,name,start_ns,end_ns,ok\n")
            for s in self.finished():
                fh.write(f"{s.run_id},{s.span_id},{s.parent_id},{s.name},{s.start_ns},{s.end_ns},{int(s.ok)}\n")
