"""Scaling times to a nominal machine speed.

The benchmark runs on shared machines whose speed drifts by 30% and more
over tens of seconds, in phases that last several seconds: the same
1,200-op elementary pass ran at anywhere from 162 to 297 ops/s within
90 s.  Repeating or taking medians inside a 10-s run does not remove
that, because a whole run can fall into a slow phase.

So the run times a fixed pure-Python reference snippet between ops.  Its
time tracks the machine's current speed; each op's latency is multiplied
by `NOMINAL_S` over the median reference time of the samples taken after
that op and its `NEIGHBOURS` on each side (the speed changes within a
second, so wider windows track it worse).  On 90 s of elementary ops
this cut the spread of 10-s throughput figures from 0.25 to 0.02
(interquartile range over median), and on 80 s of engine-wide ops from
0.17 to 0.02.  The snippet does not touch wqometer, runs with the
garbage collector off so the program's heap cannot slow it, and takes
about 0.3 ms.

The fresh interpreters timed for setup_s are scaled by a bare interpreter
start (`python -c pass`) after each one instead, against
`INTERPRETER_NOMINAL_S`: there the snippet left a spread of 0.19 and
the bare start 0.07.  That reference lies outside wqometer too: it is
the interpreter without the package.

Raw times are kept beside the scaled ones in the run record.
"""

from __future__ import annotations

import gc
import statistics
import time

# nominal times, rounded from the medians measured on the machine the
# bounds were set on (2 vCPU Intel Xeon at 2.0 GHz, Python 3.11.7): 0.27 ms
# for `reference()`, 68-75 ms for a bare interpreter start
NOMINAL_S = 0.0003
INTERPRETER_NOMINAL_S = 0.07
NEIGHBOURS = 3  # ops on each side whose reference samples count
SAMPLE_EVERY_S = 0.02  # one more sample per this much op time
MAX_SAMPLES_PER_OP = 10


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def _tree(k: int) -> _Node:
    return _Node(None, None) if k == 0 else _Node(_tree(k - 1), _tree(k // 2))


def _count(t: _Node) -> int:
    return 1 if t.a is None else 1 + _count(t.a) + _count(t.b)


def reference() -> tuple[int, int, int]:
    """Fixed work in the style of the program: small tuples and dicts,
    a recursive tree walk and big-integer bit operations."""
    d: dict[tuple[int, int], int] = {}
    for i in range(600):
        t = (i % 37, (i * 7) % 13)
        d[t] = d.get(t, 0) + 1
    nodes = _count(_tree(12))
    x = 1
    for i in range(200):
        x = (x << 5) ^ (x >> 3) | i
    return len(d), nodes, x & 0xFFFF


class Speedometer:
    """Reference timings taken in groups, one group after each op, and
    the scale factor they give.  `reference` is timed, `nominal` is its
    time at nominal speed, and an op gets at most `max_samples`."""

    def __init__(self, reference=reference, nominal: float = NOMINAL_S,
                 max_samples: int = MAX_SAMPLES_PER_OP):
        self.reference = reference
        self.nominal = nominal
        self.max_samples = max_samples
        self.groups: list[list[float]] = []

    def _sample(self, count: int) -> list[float]:
        clock = time.perf_counter
        times = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                t0 = clock()
                self.reference()
                times.append(clock() - t0)
        finally:
            if enabled:
                gc.enable()
        return times

    def after_op(self, seconds: float) -> None:
        """Sample once after an op, more often after a long one."""
        count = min(self.max_samples, 1 + int(seconds / SAMPLE_EVERY_S))
        self.groups.append(self._sample(count))

    def factor(self, i: int) -> float:
        """`nominal` over the median reference time after op i and its
        NEIGHBOURS on each side."""
        near = self.groups[max(0, i - NEIGHBOURS): i + NEIGHBOURS + 1]
        return self.nominal / statistics.median(t for group in near for t in group)
