"""Op timing scaled to a reference machine speed.

On a shared machine the speed of a core changes in bursts: work sharing a
physical core with a busy neighbour runs up to twice as slow, for anything
from milliseconds to seconds. Every timed op therefore runs between two
short, fixed probes of pure-Python work (small objects, attribute access,
dict and set building, keyed sorting: the instruction mix of graph code,
which slows down under contention by the same factor as the package's
code does, to within a few percent), and its wall time is
scaled by ``PROBE_REF_S / probe time``. A result reads as the time the op
would take where the probe takes ``PROBE_REF_S``, which is about the probe's
time on an uncontended core of a 2-vCPU x86-64 virtual machine. The
probe is standard library only, so changes to the package cannot move it.
"""

from __future__ import annotations

import time

PROBE_REF_S = 1.0e-4

clock = time.perf_counter


class _Item:
    __slots__ = ("index", "name", "group")

    def __init__(self, index, name, group):
        self.index = index
        self.name = name
        self.group = group

    def key(self):
        return (self.group, self.index)


def _probe_once() -> float:
    start = clock()
    items = [_Item(i, str(i), (i * 7) % 31) for i in range(150)]
    groups = {}
    for item in items:
        groups.setdefault(item.group, set()).add(item.name)
    sorted(items, key=_Item.key)
    sum(len(names) for names in groups.values() if "1" in names or len(names) > 2)
    return clock() - start


def probe() -> float:
    """Seconds the fixed probe takes right now (the faster of two runs)."""
    return min(_probe_once(), _probe_once())


def scale(seconds: float, probe_before: float, probe_after: float) -> float:
    return seconds * PROBE_REF_S * 2 / (probe_before + probe_after)


class OpTimer:
    """Collects scaled per-op times.

    ``begin``/``end`` bracket one op. ``lap`` ends the running op, if any,
    and starts the next one, for ops that follow each other with nothing in
    between (the rounds of an evolution, seen from the evaluator). ``split``
    probes inside a running op, so that each stretch of it is scaled by the
    probes at its own two ends.
    """

    def __init__(self):
        self.reset()

    def reset(self):
        self.latencies = []
        self._probe = None  # probe time at the start of the running stretch
        self._start = None  # clock at the start of the running stretch
        self._op = 0.0  # scaled time of the running op's finished stretches

    def _cut(self):
        stop = clock()
        after = probe()
        self._op += scale(stop - self._start, self._probe, after)
        self._probe = after
        self._start = clock()

    def begin(self):
        self._op = 0.0
        self._probe = probe()
        self._start = clock()

    def split(self):
        if self._start is not None:
            self._cut()

    def end(self):
        self._cut()
        self.latencies.append(self._op)
        self._start = None

    def lap(self):
        if self._start is None:
            self.begin()
            return
        self._cut()
        self.latencies.append(self._op)
        self._op = 0.0
