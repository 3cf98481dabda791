"""wqometer benchmark: one workload per run, seeded, single client, closed loop.

Usage, from the root of a checkout:

    python3 bench/run.py --workload engine-wide --seed 1 --seconds 10 --trace 0

`--trace 0` times the workload and prints the end-to-end metrics;
`--trace 1` is the separate traced run that prints the per-layer metrics.
Either way the last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`, and a full record goes to
`.bench_out/`.  The program is imported from this checkout's `src/`.

A timed run:
1. generates the corpus from the seed: `ops_per_second * seconds` ops, so
   the op count is fixed for a given `--seconds`;
2. times `SETUP_SAMPLES` fresh interpreters importing `wqometer` and
   `wqometer.cli` (setup_s is their median);
3. warms up on the corpus, then runs every op once, back to back; after
   each op, untimed, it samples the reference snippet of `speed.py` and
   checks the op's output;
4. scales every time to nominal machine speed (see `speed.py`).

The traced run covers all four workloads whatever `--workload` says,
because each per-layer metric is defined on the workload that exercises
its layer (see README.md).  For each workload it runs a shorter corpus
untraced, then with spans, then (engine workloads) under cProfile for the
call counts; then it reproduces the ROADMAP Baseline figures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpora
import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("engine-elementary", "engine-wide", "oracle-finite", "cli-oneshot")
COUNTED_WORKLOADS = ("engine-elementary", "engine-wide")
SETUP_SAMPLES = 11
WARMUP_SHARE = 0.25  # warm-up length as a share of --seconds
TRACE_SHARE = 0.2  # traced corpus size as a share of the timed one
MIN_OPS = 20
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
IMPORT_CODE = "import wqometer, wqometer.cli"


def _parse_args(argv):
    ap = argparse.ArgumentParser(description="wqometer benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


# ---------------------------------------------------------------------------
# environment and fresh interpreters
# ---------------------------------------------------------------------------


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return proc.stdout.strip() or "unknown"


def env_stamp() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "git_sha": _git_sha(),
    }


def spawn(code: str, env: dict) -> float:
    """Wall time of one fresh interpreter running `code`."""
    import workloads

    t0 = time.perf_counter()
    status, _ = workloads.run_child([sys.executable, "-c", code], env, ROOT)
    elapsed = time.perf_counter() - t0
    if status:
        raise RuntimeError(f"python -c {code!r} exited with {status}")
    return elapsed


def spawn_times(code: str, env: dict) -> tuple[float, float]:
    """Median wall time of `SETUP_SAMPLES` fresh interpreters running
    `code`, as (scaled, raw).  One unmeasured start comes first, so the
    bytecode cache is written before timing."""
    spawn(code, env)
    meter = speed.Speedometer(lambda: spawn("pass", env), speed.INTERPRETER_NOMINAL_S, 1)
    raw = []
    for _ in range(SETUP_SAMPLES):
        raw.append(spawn(code, env))
        meter.after_op(raw[-1])
    scaled = [x * meter.factor(i) for i, x in enumerate(raw)]
    return statistics.median(scaled), statistics.median(raw)


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


class Checker:
    """Checks each op's output as it arrives and digests what it printed.
    With `verify=False` it only digests."""

    def __init__(self, wl, verify: bool = True):
        self.wl = wl
        self.verify = verify
        self.failed: dict[int, list[str]] = {}
        self._digest = hashlib.sha256()

    def __call__(self, i: int, item, out, error: str | None) -> None:
        self._check(i, item, out, error)
        if self.wl.collect_after_op:
            del out
            gc.collect()

    def _check(self, i: int, item, out, error: str | None) -> None:
        if error is not None:
            problems, shown = [error], f"error {error}"
        else:
            try:
                problems = self.wl.check(item, out) if self.verify else []
                shown = self.wl.show(item, out)
            except Exception as exc:  # a check that crashes fails its op
                problems, shown = [f"check raised {type(exc).__name__}: {exc}"], "check error"
        self._digest.update(shown.encode() + b"\0")
        if problems:
            self.failed[i] = problems

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()[:16]


class Pass:
    """One pass over a corpus.  Only the op itself is timed; after it,
    `meter` samples the reference snippet and `after(i, item, output,
    error)` runs, both untimed."""

    def __init__(self, op, items, meter=None, after=None, tracer=None):
        clock = time.perf_counter
        self.latencies = [0.0] * len(items)
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.op = i
            out = error = None
            t0 = clock()
            try:
                out = op(item)
            except Exception as exc:  # an op boundary: record it and go on
                error = f"{type(exc).__name__}: {exc}"
            t1 = clock()
            self.latencies[i] = t1 - t0
            if meter is not None:
                meter.after_op(t1 - t0)
            if after is not None:
                after(i, item, out, error)
        self.meter = meter

    def scaled(self) -> list[float]:
        return [x * self.meter.factor(i) for i, x in enumerate(self.latencies)]


def warm_up(op, items, budget_s: float) -> None:
    """Run ops from the start of the corpus until `budget_s` has passed."""
    deadline = time.perf_counter() + budget_s
    for item in items:
        try:
            op(item)
        except Exception:  # failures are counted in the timed pass
            pass
        if time.perf_counter() >= deadline:
            break


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (value, percentile)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def n_ops(wl, seconds: int, share: float = 1.0) -> int:
    return max(MIN_OPS, round(wl.ops_per_second * seconds * share))


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def timed_run(wl, seed: int, seconds: int, env: dict) -> dict:
    items = wl.make(corpora.corpus_rng(wl.name, seed), n_ops(wl, seconds))
    setup_s, setup_raw = spawn_times(IMPORT_CODE, env)
    warm_up(wl.op, items, WARMUP_SHARE * seconds)
    gc.collect()
    checker = Checker(wl)
    run = Pass(wl.op, items, speed.Speedometer(), checker)
    # cli-oneshot: the largest child; the import-only children measured
    # for setup_s are smaller than any CLI process
    rss = peak_rss_mb(children=wl.name == "cli-oneshot")
    lat = run.scaled()
    n = len(items)
    tail_s, pct = tail(lat)
    raw_tail, _ = tail(run.latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    failed = checker.failed
    return {
        "attempted": n,
        "failed": failed,
        "digest": checker.digest,
        "metrics": metrics,
        "raw": {
            "setup_s": setup_raw,
            "ops_per_s": n / sum(run.latencies),
            "latency_p50_ms": statistics.median(run.latencies) * 1e3,
            "latency_tail_ms": raw_tail * 1e3,
        },
        "notes": {
            "latency_tail_ms": f"p{pct:.2f} of {n} ops",
            "setup_s": f"median of {SETUP_SAMPLES} fresh interpreters",
            "failed_frac": f"{len(failed) / n:.6g} (fraction; {len(failed)} of {n})",
        },
        "latencies_ms": [x * 1e3 for x in run.latencies],
        "scaled_latencies_ms": [x * 1e3 for x in lat],
    }


def _trace_workload(wl, seed: int, seconds: int) -> dict:
    items = wl.make(corpora.corpus_rng(wl.name, seed, "trace"), n_ops(wl, seconds, TRACE_SHARE))
    op = wl.traced_op or wl.op
    warm_up(op, items, 0.5)
    gc.collect()
    checker, outputs = Checker(wl), {}

    def keep(i, item, out, error):
        checker(i, item, out, error)
        if wl.name == "engine-wide" and error is None:
            outputs[i] = out[1]  # the reports, for the share of exact values

    plain = Pass(op, items, speed.Speedometer(), keep)
    shown = Checker(wl, verify=False)  # checks would add spans of their own
    with tracing.Tracer() as tracer:
        traced = Pass(op, items, speed.Speedometer(), shown, tracer)
    counts = tracing.count_calls(lambda: Pass(op, items)) if wl.name in COUNTED_WORKLOADS else {}
    failed = {f"{wl.name}:{i}": p for i, p in checker.failed.items()}
    if shown.digest != checker.digest:
        failed[f"{wl.name}:tracing"] = ["outputs under tracing differ from the untraced pass"]
    return {
        "items": items,
        "plain": plain,
        "traced": traced,
        "tracer": tracer,
        "counts": counts,
        "reports": list(outputs.values()),
        "failed": failed,
        "digest": checker.digest,
    }


def _component_kinds(reports) -> tuple[float, float]:
    kinds = [r.kind for rep in reports for r in (rep.mot, rep.height, rep.width)]
    return kinds.count("exact") / len(kinds), kinds.count("unsupported") / len(kinds)


def layer_metrics(t: dict, env: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, each taken from the workload named beside it
    in README.md."""
    import baseline

    elem, wide, orc, cli = (t[name] for name in WORKLOAD_NAMES)
    es, ws, os_ = (x["tracer"].self_times() for x in (elem, wide, orc))
    n_calls, n_steps, _ = elem["tracer"].totals("rewrite.normalize_elementary")
    q_calls, _, _ = orc["tracer"].totals("oracle.quotient")
    _, b_elems, _ = orc["tracer"].totals("oracle.build")
    _, p_elems, _ = orc["tracer"].totals("oracle.FinitePoset.from_pairs")
    main_calls, _, main_dur = cli["tracer"].totals("cli.main")
    exact, unsupported = _component_kinds(wide["reports"])
    _, bare = spawn_times("pass", env)
    _, imported = spawn_times("import wqometer.cli", env)
    plain = sum(sum(x["plain"].scaled()) for x in t.values())
    traced = sum(sum(x["traced"].scaled()) for x in t.values())
    m = {
        "expr.parse_s": (ws.get("expr.parse_expr", 0.0), "s"),
        "expr.classify_calls": (wide["counts"]["expr.classify_calls"], "count"),
        "expr.print_calls": (elem["counts"]["expr.print_calls"], "count"),
        "rewrite.normalize_s": (es.get("rewrite.normalize_elementary", 0.0), "s"),
        "rewrite.normalize_calls": (n_calls, "count"),
        "rewrite.steps": (n_steps, "count"),
        "rewrite.eliminate_pf_s": (ws.get("rewrite.eliminate_pf", 0.0), "s"),
        "rewrite.eliminate_pf_calls": (wide["tracer"].totals("rewrite.eliminate_pf")[0], "count"),
        "engine.invariants_self_s": (ws.get("engine.invariants", 0.0), "s"),
        "engine.pf_bounds_self_s": (ws.get("engine.pf_bounds", 0.0), "s"),
        "engine.exact_frac": (exact, "fraction"),
        "engine.unsupported_frac": (unsupported, "fraction"),
        "ordinal.calls": (wide["counts"]["ordinal.calls"], "count"),
        "oracle.build_s": (
            os_.get("oracle.build", 0.0) + os_.get("oracle.FinitePoset.from_pairs", 0.0),
            "s",
        ),
        "oracle.elements": (b_elems + p_elems, "count"),
        "oracle.quotient_s": (os_.get("oracle.quotient", 0.0), "s"),
        "oracle.quotient_calls": (q_calls, "count"),
        "oracle.mot_s": (os_.get("oracle.mot", 0.0), "s"),
        "oracle.height_s": (os_.get("oracle.height", 0.0), "s"),
        "oracle.width_s": (os_.get("oracle.width", 0.0), "s"),
        "oracle.iso_s": (os_.get("oracle.iso", 0.0), "s"),
        "cli.interp_start_ms": (bare * 1e3, "ms"),
        "cli.import_ms": ((imported - bare) * 1e3, "ms"),
        "cli.main_ms": (main_dur / max(1, main_calls) * 1e3, "ms"),
        "trace.overhead_frac": (traced / plain - 1.0, "fraction"),
    }
    for name, value in {**baseline.union_chain(), **baseline.oracle_layers()}.items():
        unit = name.rsplit("_", 1)[1]
        m[name] = (value, unit if unit in ("ms", "s") else "count")
    return m


def traced_run(workloads, seed: int, seconds: int, env: dict) -> dict:
    t = {name: _trace_workload(workloads[name], seed, seconds) for name in WORKLOAD_NAMES}
    return {
        "attempted": sum(len(x["items"]) for x in t.values()),
        "failed": {k: v for x in t.values() for k, v in x["failed"].items()},
        "digest": {name: x["digest"] for name, x in t.items()},
        "metrics": layer_metrics(t, env),
        "notes": {"spans": {name: len(x["tracer"].spans) for name, x in t.items()}},
        "spans": {name: x["tracer"].spans for name, x in t.items()},
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "wqometer" / "__init__.py").is_file():
        print(f"bench: no wqometer sources at {SRC}; run from a wqometer checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wqometer
    import workloads

    if Path(wqometer.__file__).resolve().parent != SRC / "wqometer":
        print(f"bench: imported wqometer from {wqometer.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # one CPU for the run and every process it starts, so the reference
    # snippet measures the speed of the CPU the ops run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    stamp = env_stamp()
    env = workloads.child_env(SRC)
    os.environ.pop("WQO_METER_SEED", None)  # cli.main would let it override --seed
    table = workloads.make_workloads(SRC)
    if args.trace:
        result = traced_run(table, args.seed, args.seconds, env)
    else:
        result = timed_run(table[args.workload], args.seed, args.seconds, env)

    failed = result["failed"]
    raw = result.get("raw", {})
    print(f"bench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env: " + ", ".join(f"{k}={v}" for k, v in stamp.items()))
    width = max(len(k) for k in result["metrics"])
    for name, (value, unit) in result["metrics"].items():
        notes = [result["notes"].get(name, "")]
        if name in raw:
            notes.append(f"(unscaled {raw[name]:.6g})")
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<8} {' '.join(n for n in notes if n)}")
    for name, note in result["notes"].items():
        if name not in result["metrics"]:
            print(f"  {name:<{width}}  {note}")
    print(f"digest: {result['digest']}")
    for where, problems in list(failed.items())[:10]:
        print(f"FAILED op {where}: {'; '.join(problems)}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": stamp,
        **{k: v for k, v in result.items() if k != "failed"},
        "failed": {str(k): v for k, v in failed.items()},
    }
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, default=str))

    summary = {
        "correct": not failed,
        "attempted": result["attempted"],
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
