"""In-memory spans around calls into pikac's layers.

Span ``i`` has a name, a start and an end from ``time.perf_counter``, the
index of its parent span (-1 for none) and an op id.  They are kept in flat
arrays, which the garbage collector does not scan, so that tracing does not
slow the collections the program itself triggers.  Spans are recorded by
wrapping the functions the benchmark calls into each module; nothing inside
the package changes.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.op = -1          # op id stamped on new spans; -1 during set-up
        self.calls = []       # (name, result, span index) of the current op
        self.raised = Counter()
        self._open = []

    def wrap(self, name, fn):
        names, starts, ends, stack, calls = (
            self.names, self.starts, self.ends, self._open, self.calls)

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            self.parents.append(stack[-1] if stack else -1)
            self.ops.append(self.op)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1    # also an op stopped at its time limit
                raise
            finally:
                ends[index] = perf_counter()
                stack.pop()
            calls.append((name, out, index))
            return out

        return traced

    @contextmanager
    def patched(self, points):
        """Replace each ``(owner, attribute, span name)`` by its traced
        wrapper for the duration of the block."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in points]
        try:
            for owner, attr, name in points:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def duration(self, i):
        return self.ends[i] - self.starts[i]

    def self_times(self, skip_op=lambda op: False):
        """Total time, self time and call count per span name.  Self time
        is a span's duration minus the durations of its children.  Spans
        of the ops whose id ``skip_op`` accepts are left out."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.duration(i)
        total, own, calls = Counter(), Counter(), Counter()
        for i, name in enumerate(self.names):
            if skip_op(self.ops[i]):
                continue
            total[name] += self.duration(i)
            own[name] += self.duration(i) - child[i]
            calls[name] += 1
        return total, own, calls

    def write(self, path):
        """Write every span as gzipped CSV, times in microseconds from the
        first span's start."""
        origin = self.starts[0] if self.names else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write("name,start_us,end_us,parent,op\n")
            for name, start, end, parent, op in zip(
                    self.names, self.starts, self.ends, self.parents, self.ops):
                out.write(f"{name},{(start - origin) * 1e6:.3f},"
                          f"{(end - origin) * 1e6:.3f},{parent},{op}\n")
