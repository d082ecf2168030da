"""In-memory spans recorded around the benchmark's calls into wahlorder.

A span is (name, start, end, parent, instance): `parent` is the index of the
enclosing span (or None) and `instance` ties together every span of one
workload instance.  Spans live in a list until the run ends; `write` dumps
them as JSON lines.  With tracing off the benchmark uses NULL, whose `span`
returns a shared do-nothing context, so the untraced passes pay one method
call per stage.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from time import perf_counter


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans = []      # [name, start, end, parent, instance]
        self._stack = []
        self.instance = None

    def span(self, name: str):
        return _Span(self, name)

    def layer_self_times(self, first: int, last: int) -> dict:
        """Self time per span name over spans[first:last]: each span's
        duration minus the time its direct children cover (children never
        overlap, since one thread records them)."""
        spans = self.spans[first:last]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None and parent >= first:
                child_time[parent - first] += end - start
        out = {}
        for (name, start, end, _, _), inner in zip(spans, child_time):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out

    def write(self, path):
        with open(path, 'w') as fh:
            for name, start, end, parent, instance in self.spans:
                fh.write(json.dumps({'name': name, 'start': start, 'end': end,
                                     'parent': parent,
                                     'instance': instance}) + '\n')


class _Span:
    __slots__ = ('tracer', 'name', 'index')

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, tr.clock(), 0.0, parent, tr.instance])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = tr.clock()
        tr._stack.pop()
        return False


class _NullTracer:
    _ctx = nullcontext()

    def span(self, name: str):
        return self._ctx


NULL = _NullTracer()
