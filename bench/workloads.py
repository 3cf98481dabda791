"""The four workloads: what one op does, and how its output is checked.

Each workload pairs a corpus generator from `corpora` with an op that
calls wqometer's public API (or starts its CLI), a check that runs right
after each op, untimed, and a rendering of the op's result that feeds the
output digest.  `make_workloads` must run after `src/` is on `sys.path`.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from wqometer import cli, engine, expr, oracle, rewrite
from wqometer.ordinal import Ordinal

import corpora
import ordinals

RESIDUAL_CHECK_MAX = 20  # the oracle's own cap for the residual recursions
CHILD_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    name: str
    ops_per_second: float  # corpus size per second of --seconds
    make: Callable  # (rng, n_ops) -> items
    op: Callable  # item -> output; raises on failure
    check: Callable  # (item, output) -> list of problems
    show: Callable  # (item, output) -> the op's printed result
    traced_op: Callable | None = None  # in-process stand-in for the traced run
    # collect garbage after each op, untimed: set where ops leave reference
    # cycles big enough to move peak RSS by when the collector happens to run
    collect_after_op: bool = False


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------


def _report_text(rep) -> str:
    return f"o={rep.mot} h={rep.height} w={rep.width} weak={rep.weak_mot} notes={list(rep.notes)}"


def _roundtrip(e) -> list[str]:
    text = expr.print_expr(e)
    return [] if expr.parse_expr(text) == e else [f"print/parse round trip changed {text}"]


def _triple_bounds(rep) -> list[str]:
    """h <= o, w <= o and o <= h (x) w on an all-exact triple."""
    if not all(r.kind == "exact" for r in (rep.mot, rep.height, rep.width)):
        return []
    o, h, w = (ordinals.parse(str(r.value)) for r in (rep.mot, rep.height, rep.width))
    problems = []
    if h > o:
        problems.append(f"h {rep.height} exceeds o {rep.mot}")
    if w > o:
        problems.append(f"w {rep.width} exceeds o {rep.mot}")
    if o and o > ordinals.nat_prod(h, w):
        problems.append(f"o {rep.mot} exceeds h (x) w")
    return problems


# ---------------------------------------------------------------------------
# engine-elementary
# ---------------------------------------------------------------------------


def _elementary_op(item: corpora.ElementaryItem):
    e = expr.parse_expr(item.text)
    rep = engine.invariants(e)
    if item.expected is not None:
        # the criterion-01 rows have leaves below w^w, so they are not
        # elementary and there is no normal form to compute
        return e, rep, None, 0
    nf, trace = rewrite.normalize_elementary(e, item.strategy)
    return e, rep, nf, len(trace)


def _elementary_check(item, out) -> list[str]:
    e, rep, nf, _steps = out
    problems = _roundtrip(e) + _triple_bounds(rep)
    if item.expected is not None:
        got = tuple(str(r) for r in (rep.mot, rep.height, rep.width))
        if got != item.expected:
            problems.append(f"criterion 01 row {item.text}: {got} != {item.expected}")
        return problems
    if not all(r.kind == "exact" for r in (rep.mot, rep.height, rep.width)):
        problems.append(f"elementary term without exact invariants: {_report_text(rep)}")
    if rep.weak_mot is None:
        problems.append("elementary term without a weakened order type")
    other = "outermost" if item.strategy == "innermost" else "innermost"
    nf_other, _ = rewrite.normalize_elementary(e, other)
    if nf_other != nf:
        problems.append(f"normal forms differ: {expr.print_expr(nf)} vs {expr.print_expr(nf_other)}")
    if not (rewrite.is_normal(nf) and rewrite.is_normal(nf_other)):
        problems.append(f"normal form still rewrites: {expr.print_expr(nf)}")
    return problems


def _elementary_show(item, out) -> str:
    _e, rep, nf, steps = out
    shown = "-" if nf is None else expr.print_expr(nf)
    return f"{_report_text(rep)} nf={shown} steps={steps}"


# ---------------------------------------------------------------------------
# engine-wide
# ---------------------------------------------------------------------------


def _wide_op(item: corpora.WideItem):
    e = expr.parse_expr(item.text)
    return e, (engine.pf_bounds(e) if item.call == "pf_bounds" else engine.invariants(e))


def _wide_check(item, out) -> list[str]:
    e, rep = out
    return _roundtrip(e) + _triple_bounds(rep)


def _wide_show(item, out) -> str:
    return f"{item.call} {_report_text(out[1])}"


# ---------------------------------------------------------------------------
# oracle-finite
# ---------------------------------------------------------------------------


def _oracle_op(item: corpora.OracleItem):
    if item.text is None:
        p, rep = oracle.FinitePoset.from_pairs(item.n, item.pairs), None
    else:
        e = expr.parse_expr(item.text)
        p = oracle.build(e)
        rep = engine.invariants(e)
    values = (oracle.mot(p), oracle.height(p), oracle.width(p))
    same = None
    if item.iso is not None:
        a, b = (oracle.build(expr.parse_expr(text)) for text in item.iso[:2])
        same = oracle.iso(a, b)
    return p, values, rep, same


def _oracle_check(item, out) -> list[str]:
    p, (m, h, w), rep, same = out
    problems = []
    if item.expected is not None and (m, h, w) != item.expected:
        problems.append(f"{item.text}: (o, h, w) = {(m, h, w)}, closed form {item.expected}")
    if not max(h, w) <= m <= h * w:
        problems.append(f"max(h, w) <= o <= h*w fails for {(m, h, w)}")
    if item.text is None and m != len(set(p.rows)):
        # in a quasi-order, i ~ j exactly when i and j have the same up-set
        problems.append(f"o = {m} but there are {len(set(p.rows))} distinct up-sets")
    if p.n <= RESIDUAL_CHECK_MAX:
        residual = tuple(f(p) for f in (oracle.residual_mot, oracle.residual_height, oracle.residual_width))
        if residual != (m, h, w):
            problems.append(f"residual recursions give {residual}, direct {(m, h, w)}")
    if rep is not None:
        results = (rep.mot, rep.height, rep.width)
        for name, result, value in zip(("o", "h", "w"), results, (m, h, w)):
            if not result.admits(Ordinal.from_nat(value)):
                problems.append(f"engine {name} = {result} does not admit oracle value {value}")
    if item.iso is not None and same != item.iso[2]:
        problems.append(f"iso{item.iso[:2]} = {same}, expected {item.iso[2]}")
    return problems


def _oracle_show(item, out) -> str:
    p, values, rep, same = out
    engine = "-" if rep is None else _report_text(rep)
    return f"n={p.n} values={values} engine={engine} iso={same}"


# ---------------------------------------------------------------------------
# cli-oneshot
# ---------------------------------------------------------------------------


def cli_in_process(argv) -> tuple[int, str]:
    """`cli.main(argv)` with its stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def run_child(argv: list[str], env: dict[str, str], cwd: Path) -> tuple[int, str]:
    """Run a process to completion; return its exit code and stdout.

    The wait blocks, so it returns as soon as the child exits.
    `subprocess.run` with a timeout polls instead, sleeping up to 50 ms
    between polls, which showed as 50-ms steps in the measured times.  A
    timer kills a child that outlives CHILD_TIMEOUT_S."""
    with subprocess.Popen(
        argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    ) as proc:
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out, _ = proc.communicate()
        finally:
            killer.cancel()
    return proc.returncode, out


def child_env(src: Path) -> dict[str, str]:
    """The environment for `python -m wqometer`: this checkout's sources
    first, and no WQO_METER_SEED, which would override `--seed`."""
    env = {k: v for k, v in os.environ.items() if k != "WQO_METER_SEED"}
    env["PYTHONPATH"] = str(src)
    return env


def make_workloads(src: Path) -> dict[str, Workload]:
    env = child_env(src)
    root = src.parent

    def cli_process(argv):
        return run_child([sys.executable, "-m", "wqometer", *argv], env, root)

    def cli_check(argv, out) -> list[str]:
        code, stdout = out
        problems = []
        if code != 0:
            problems.append(f"exit code {code} for {argv}")
        want_code, want = cli_in_process(argv)
        if (want_code, want) != (code, stdout):
            problems.append(f"process output differs from cli.main for {argv}")
        return problems

    workloads = [
        Workload(
            "engine-elementary",
            ops_per_second=260,
            make=corpora.engine_elementary,
            op=_elementary_op,
            check=_elementary_check,
            show=_elementary_show,
        ),
        Workload(
            "engine-wide",
            ops_per_second=15,
            make=corpora.engine_wide,
            op=_wide_op,
            check=_wide_check,
            show=_wide_show,
        ),
        Workload(
            "oracle-finite",
            ops_per_second=10.5,
            make=corpora.oracle_finite,
            op=_oracle_op,
            check=_oracle_check,
            show=_oracle_show,
            # the recursive matching in `width` is a closure that refers to
            # itself, so its adjacency lists live until a full collection
            collect_after_op=True,
        ),
        Workload(
            "cli-oneshot",
            ops_per_second=8,
            make=corpora.cli_oneshot,
            op=cli_process,
            check=cli_check,
            show=lambda argv, out: f"{out[0]}\n{out[1]}",
            traced_op=cli_in_process,
        ),
    ]
    return {w.name: w for w in workloads}
