"""Spans around calls into wqometer, recorded from outside the program.

`Tracer` rebinds public functions to timing wrappers in every loaded
wqometer module that holds them, so calls from one layer into another
(engine -> rewrite, oracle.height -> quotient) are caught as well as the
benchmark's own calls.  Each span records its name, start, end, parent
span and op id; spans stay in memory until the run writes them out.

The hot predicates and ordinal functions are called hundreds of thousands
of times per run, so they are counted with cProfile in a separate pass
instead of being spanned: call counts do not depend on profiler overhead.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, function) pairs that get a span; the span is named after the
# module's last component and the function
SPANNED = (
    ("wqometer.expr", "parse_expr"),
    ("wqometer.rewrite", "normalize_elementary"),
    ("wqometer.rewrite", "eliminate_pf"),
    ("wqometer.engine", "invariants"),
    ("wqometer.engine", "pf_bounds"),
    ("wqometer.engine", "weak_mot"),
    ("wqometer.oracle", "build"),
    ("wqometer.oracle", "FinitePoset.from_pairs"),
    ("wqometer.oracle", "quotient"),
    ("wqometer.oracle", "mot"),
    ("wqometer.oracle", "height"),
    ("wqometer.oracle", "width"),
    ("wqometer.oracle", "iso"),
    ("wqometer.oracle", "check_engine"),
    ("wqometer.cli", "main"),
)


def _size_of(name: str, result) -> int:
    """Work size attached to a span: rewrite steps for a normalisation,
    elements for a finite order that was built."""
    if name == "rewrite.normalize_elementary":
        return len(result[1])
    if name in ("oracle.build", "oracle.FinitePoset.from_pairs"):
        return result.n
    return 0


class Tracer:
    """Context manager: spans for every call to a `SPANNED` function."""

    def __init__(self):
        # [name, start, end, parent index, op id, size]
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def span(*args, **kwargs):
            idx = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, 0]
            spans.append(record)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            record[5] = _size_of(name, result)
            return result

        return span

    def __enter__(self):
        modules = [m for k, m in sys.modules.items() if k == "wqometer" or k.startswith("wqometer.")]
        for module_name, attr in SPANNED:
            name = f"{module_name.rsplit('.', 1)[1]}.{attr}"
            owner = sys.modules[module_name]
            if "." in attr:  # a classmethod
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, classmethod(self._wrap(name, original.__func__)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        return self

    def _set(self, owner, key, value):
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()
        return False

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _size in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, *_rest) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)

    def totals(self, name: str) -> tuple[int, int, float]:
        """(calls, summed sizes, summed durations) of spans named `name`."""
        calls = size = 0
        dur = 0.0
        for n, start, end, _p, _op, s in self.spans:
            if n == name:
                calls += 1
                size += s
                dur += end - start
        return calls, size, dur


# functions counted, not spanned: (module file, function names)
COUNTED = {
    "expr.classify_calls": ("expr.py", ("is_elementary", "is_omega_elementary")),
    "expr.print_calls": ("expr.py", ("print_expr",)),
    "ordinal.calls": (
        "ordinal.py",
        ("cmp", "add", "mul", "nat_sum", "nat_prod", "two_pow", "hat_nat_sum",
         "omega_pow", "hstar", "odot"),
    ),
}


def count_calls(run) -> dict[str, int]:
    """Call counts of the `COUNTED` functions while `run()` executes,
    recursive calls included."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        run()
    finally:
        prof.disable()
    counts = dict.fromkeys(COUNTED, 0)
    for (filename, _line, func), (_cc, ncalls, *_rest) in pstats.Stats(prof).stats.items():
        path = Path(filename)
        if path.parent.name != "wqometer":
            continue
        for metric, (file, funcs) in COUNTED.items():
            if path.name == file and func in funcs:
                counts[metric] += ncalls
    return counts
