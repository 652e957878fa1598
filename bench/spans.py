"""In-memory span recorder for the traced benchmark run.

``Tracer.patch`` rebinds a function where a calling module looks it up (or
a method on its class) to a wrapper that records one span per call: name,
start, end, parent span and op id. Spans are kept in memory and written out
by the caller when the run ends. Calls made while no op is open (input
generation, correctness gates) pass straight through and are not recorded.
A span's self time is its duration minus the time its child spans cover;
calls are strictly nested on one thread, so that is the sum of the direct
children's durations.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.op = None  # id of the op being traced; None disables recording
        self.spans = []  # [name, start, end, parent index, op id]
        self._child = []  # time covered by each span's direct children
        self._stack = []
        self.counts = Counter()  # event counters recorded at the same boundaries
        self.sums = defaultdict(float)
        self._patched = []

    # -- recording -------------------------------------------------------------

    def wrap(self, name, fn, on_result=None):
        """``fn`` recording a span named ``name``; ``on_result(tracer, args, result)``
        runs after each recorded call to update counters."""
        spans, child, stack, clock = self.spans, self._child, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            child.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record = spans[index]
                record[1], record[2] = start, end
                if record[3] >= 0:
                    child[record[3]] += end - start
            if on_result is not None:
                on_result(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, on_result=None):
        """Rebind ``owner.attr`` (a module global or a class method) to a span recorder."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reporting ---------------------------------------------------------------

    def layer_totals(self) -> dict:
        """name -> (calls, self seconds)."""
        calls = Counter()
        self_s = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, self._child):
            calls[name] += 1
            self_s[name] += (end - start) - covered
        return {name: (calls[name], self_s[name]) for name in calls}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for (name, start, end, parent, op), covered in zip(self.spans, self._child):
                out.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "op": op, "self_s": (end - start) - covered,
                }) + "\n")
