"""The ROADMAP Baseline figures, measured again (traced run only, not gated).

* `invariants` on the union chain `o(w+1)|...|o(w+1)` at 50, 100, 200 and
  400 leaves; 400 leaves records the RecursionError it ends in today.
* build, `mot`, `height` and `width` on `Pf(G(12))` and `o(60)*o(60)`.
* the CLI import breakdown, in `run.py`, with the other CLI figures.
"""

from __future__ import annotations

import statistics
import time

from wqometer import engine, expr, oracle

UNION_CHAIN_LEAVES = (50, 100, 200)
UNION_CHAIN_FAILING = 400
UNION_CHAIN_REPEATS = 5
ORACLE_INPUTS = {"pf_g12": "Pf(G(12))", "o60xo60": "o(60)*o(60)"}


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def union_chain() -> dict[str, float]:
    out = {}
    for leaves in UNION_CHAIN_LEAVES:
        e = expr.parse_expr("|".join(["o(w+1)"] * leaves))
        runs = [_timed(engine.invariants, e) for _ in range(UNION_CHAIN_REPEATS)]
        out[f"baseline.union_chain_{leaves}_ms"] = statistics.median(runs) * 1e3
    errors = 0
    try:
        engine.invariants(expr.parse_expr("|".join(["o(w+1)"] * UNION_CHAIN_FAILING)))
    except RecursionError:
        errors = 1
    out[f"baseline.union_chain_{UNION_CHAIN_FAILING}_recursion_errors"] = errors
    return out


def oracle_layers() -> dict[str, float]:
    out = {}
    for key, text in ORACLE_INPUTS.items():
        e = expr.parse_expr(text)
        t0 = time.perf_counter()
        p = oracle.build(e)
        out[f"baseline.{key}.build_s"] = time.perf_counter() - t0
        for fn in (oracle.mot, oracle.height, oracle.width):
            out[f"baseline.{key}.{fn.__name__}_s"] = _timed(fn, p)
    return out
