"""Time the program with one of its sharing, caching or fast-path
mechanisms taken out, against the program as it is.

    python3 tools/ablate.py                      # every ablation
    python3 tools/ablate.py ordinal-eq --pairs 40
    python3 tools/ablate.py --list

Each ablation is data: a name, a module of `src/wqometer`, edits to it
(an anchor that must occur exactly once in the module, and the text that
replaces it), the benchmark workloads whose ops reach the edited code,
and what the edit takes out.  An entry marked `restores` puts back a
mechanism that was deleted, so that its row can be measured again.

For each ablation the tool copies `src/wqometer` unchanged to
`.bench_out/ablate/base/` and with the edits to `.bench_out/ablate/<name>/`,
and, per workload, runs process pairs (20 unless `--pairs` says
otherwise), alternating which side runs first.  Each process imports
one copy, with `bench/corpora.py` and `bench/workloads.py`, builds the
workload's seed-101 corpus, runs one
pass over it to warm, then times ROUNDS passes with each op's own
in-process call (`traced_op` for cli-oneshot) and reports the best total
and the best median op time, and the digest of what the ops printed.
The row gives, over the pairs, the median ratio edited/as-is of the
total and of the median op time (+x% means the edited copy was slower),
the pairs the edited copy won, and whether every output digest was the
same.  A ratio within one pair is steadier than raw times, which drift
by tens of percent within an hour on a shared machine.  The rows go to
`.bench_out/ablate/results.json`, merged into those of earlier runs by
(ablation, workload), the newest row for each.

Standard library only; it writes under `.bench_out/ablate/` and nowhere
else, and reads `bench/` without changing it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wqometer"
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out" / "ablate"
SEED = 101
ROUNDS = 5
# ops per pass: whole design cycles of each corpus, each pass well under a
# second here
OPS = {"engine-elementary": 1040, "engine-wide": 300, "oracle-finite": 105, "cli-oneshot": 84}
EE, EW, OF, CLI = OPS

ALL = (EE, EW, OF, CLI)
ENGINE = (EW, OF, CLI)  # the workloads that evaluate terms outside the elementary fragment
ORACLE = (OF, CLI)


class Ablation(NamedTuple):
    name: str
    module: str
    edits: tuple[tuple[str, str], ...]  # (anchor, replacement)
    workloads: tuple[str, ...]
    what: str
    restores: bool = False


ABLATIONS = (
    Ablation(
        "parse-sharing",
        "expr.py",
        (
            (
                "    groups: list[tuple[str | None, list]] = [(None, [])]\n",
                "    groups: list[tuple[str | None, list]] = [(None, [])]\n    shared: dict = {}\n",
            ),
            (
                "        name = _OPENS.get(tok)\n"
                '        if name is not None or tok.endswith("("):\n'
                '            groups.append((name or tok[:-1].rstrip(" \\t"), []))\n'
                "            continue\n"
                '        if tok and tok[0] in " \\t":\n'
                "            continue\n"
                "        node, end = _LEAVES.get(tok), pos\n"
                "        if node is None:\n"
                "            node, end = _read(text, p, tok)\n"
                "            if end == pos:  # the leaf is the whole token\n"
                "                _keep(tok, node)\n"
                "            i, pos = _resume(toks, i, pos, end)\n"
                "        out.append(node)\n",
                "        node = shared.get(tok)\n"
                "        if node is None:\n"
                "            name = _OPENS.get(tok)\n"
                '            if name is not None or tok.endswith("("):\n'
                '                groups.append((name or tok[:-1].rstrip(" \\t"), []))\n'
                "                continue\n"
                '            if tok and tok[0] in " \\t":\n'
                "                continue\n"
                "            node, end = _LEAVES.get(tok), pos\n"
                "            if node is None:\n"
                "                node, end = _read(text, p, tok)\n"
                "                if end == pos:  # the leaf is the whole token\n"
                "                    _keep(tok, node)\n"
                "            cls = type(node)\n"
                "            if cls in _OVER_LEAF:\n"
                "                x = shared.setdefault(_leaf_text(tok), node.arg)\n"
                "                node = shared.setdefault((cls, id(x)), node if x is node.arg else cls(x))\n"
                "            node = shared.setdefault(text[p:end], node)\n"
                "            i, pos = _resume(toks, i, pos, end)\n"
                "        out.append(node)\n",
            ),
            (
                "                    out[-1] = Words(out[-1])\n",
                "                    x = out[-1]\n"
                "                    out[-1] = shared.setdefault((Words, id(x)), Words(x))\n",
            ),
            (
                "                out[-1] = cls(out[-1], right)\n",
                "                left = out[-1]\n"
                "                out[-1] = shared.setdefault((cls, id(left), id(right)), cls(left, right))\n",
            ),
            (
                "node, end = _call(text, p, name, [out.pop()])\n                out.append(node)\n",
                "args = [out.pop()]\n"
                "                node, end = _call(text, p, name, args)\n"
                "                out.append(shared.setdefault((cls, id(args[0]), *args[1:]), node))\n",
            ),
            (
                "                out[-1] = cls(out[-1])\n",
                "                x = out[-1]\n"
                "                out[-1] = shared.setdefault((cls, id(x)), cls(x))\n",
            ),
        ),
        ALL,
        "the parser makes equal subterms of one text one object, through a per-call table (deleted)",
        restores=True,
    ),
    Ablation(
        "leaf-table",
        "expr.py",
        (("    _LEAVES[tok] = node\n", "    return\n"),),
        ALL,
        "`_LEAVES` keeps leaves and constructors over a leaf across parses",
    ),
    Ablation(
        "over-leaf-tokens",
        "expr.py",
        (
            (
                '    rf"|(?:{_OVER_LEAF_CALLS})\\((?:{_WHOLE_LEAF}|w)\\)"\n'
                '    rf"|(?:{_WHOLE_LEAF})(?:\\^<w)?|w\\^<w"\n',
                '    rf"|(?:{_WHOLE_LEAF})"\n',
            ),
        ),
        ALL,
        "`_TOKEN` reads a Pf, M or ^<w directly over a leaf as one token",
    ),
    Ablation(
        "facts-slot",
        "engine.py",
        (('getattr(x, "facts", None) or _leaf_facts(x)', "_leaf_facts(x)"),),
        ENGINE,
        "a leaf of the engine's fold keeps its triple and notes in `facts`",
    ),
    Ablation(
        "eliminated-slot",
        "rewrite.py",
        (('kept = getattr(e, "eliminated", None)', "kept = None"),),
        ENGINE,
        "a constructor over a leaf keeps its eliminated form in `eliminated`",
    ),
    Ablation(
        "redex-flag",
        "expr.py",
        (
            (
                "redex = redex or r2 or type(e.left) in kinds or type(e.right) in kinds",
                "redex = True",
            ),
            ("    redex = redex or type(e.arg) in kinds\n", "    redex = True\n"),
        ),
        (EE, EW, CLI),
        "`nf_shape` says whether a redex lies at or below a node, and `_pass` skips one without",
    ),
    Ablation(
        "max-dedup",
        "engine.py",
        (("    return max(xs)\n", "    return max(dict(zip(map(id, xs), xs)).values())\n"),),
        ENGINE,
        "`_max` compares each distinct value object once (deleted)",
        restores=True,
    ),
    Ablation(
        "union-count",
        "engine.py",
        (
            (
                "        parts = {id(t): t for t in kids}\n"
                "        mots, heights, widths = zip(*parts.values())\n"
                "        total = nat_sum\n"
                "        if len(parts) < len(kids):\n"
                "            counts = tuple(Counter(map(id, kids)).values())\n"
                "            total = lambda *xs: _nat_sum_copies(xs, counts)\n",
                "        mots, heights, widths = zip(*kids)\n        total = nat_sum\n",
            ),
        ),
        ENGINE,
        "the `|` rule lifts each distinct part triple once, with its count",
    ),
    Ablation(
        "ordinal-eq",
        "ordinal.py",
        (
            (
                "        h, k = self._hash, other._hash\n"
                "        try:\n"
                "            return (h is None or k is None or h == k) and self.terms == other.terms\n"
                "        except RecursionError:\n"
                "            return cmp(self, other) == 0\n",
                "        return cmp(self, other) == 0\n",
            ),
        ),
        ALL,
        "`Ordinal.__eq__` rejects by cached hash, then compares term tuples in C",
    ),
    Ablation(
        "hash-cache",
        "ordinal.py",
        (
            (
                "        h = self._hash\n"
                "        if h is None:\n"
                "            stack = [self]\n",
                "        return hash(self.terms)\n"
                "        if h is None:\n"
                "            stack = [self]\n",
            ),
        ),
        ALL,
        "`Ordinal.__hash__` keeps its hash",
    ),
    Ablation(
        "printable-mark",
        "ordinal.py",
        (("        _set_ok(x, True)\n", "        pass\n"),),
        ALL,
        "`_printable` marks an ordinal found to print, and stops at a marked one",
    ),
    Ablation(
        "nat-sum-merge",
        "ordinal.py",
        (("    if more:\n        return _nat_sum_copies(", "    if True:\n        return _nat_sum_copies("),),
        ALL,
        "`nat_sum` merges two arguments in one pass instead of the n-ary sort",
    ),
    Ablation(
        "add-below",
        "ordinal.py",
        (("if not terms or id(terms[0][0]) in below:", "if not terms:"),),
        ENGINE,
        "n-ary `add` skips a summand whose leading exponent was found below",
    ),
    Ablation(
        "chain-spine",
        "rewrite.py",
        (
            (
                '    if (t is not DisjUnion and t is not LexSum) or e.fragment == "elementary":\n'
                "        return eliminate_pf(e), None\n",
                "    if True:\n        return eliminate_pf(e), None\n",
            ),
        ),
        ENGINE,
        "the engine reads the spine `eliminate_pf` builds over a chain's parts (deleted)",
        restores=True,
    ),
    Ablation(
        "ascending-cache",
        "oracle.py",
        (("    order = q._asc\n", "    order = None\n"),),
        ORACLE,
        "`_ascending` keeps its order on the quotient in `_asc`",
    ),
    Ablation(
        "tarjan-quotient",
        "oracle.py",
        (
            (
                "    object.__setattr__(p, \"_quot\", q)\n    return p\n",
                "    return p\n",
            ),
            (
                "    if ncomp < n:\n        # the components are the classes",
                "    if False:\n        # the components are the classes",
            ),
        ),
        ORACLE,
        "the closure keeps the quotient its components give, so `quotient` does not group rows",
    ),
)


def unmatched() -> list[str]:
    """The edits whose anchor does not occur exactly once in its module."""
    out = []
    for ab in ABLATIONS:
        text = (SRC / ab.module).read_text(encoding="utf-8")
        for anchor, _ in ab.edits:
            if text.count(anchor) != 1:
                out.append(f"{ab.name}: {ab.module} holds {anchor!r} {text.count(anchor)} times")
    return out


def make_copy(dest: Path, ab: Ablation | None) -> Path:
    """A copy of `src/wqometer` as `dest/wqometer`, with the edits of `ab`;
    returns `dest`."""
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(SRC, dest / "wqometer", ignore=shutil.ignore_patterns("__pycache__"))
    if ab is not None:
        path = dest / "wqometer" / ab.module
        text = path.read_text(encoding="utf-8")
        for anchor, replacement in ab.edits:  # `main` checked each occurs once
            text = text.replace(anchor, replacement)
        path.write_text(text, encoding="utf-8")
    return dest


# ---------------------------------------------------------------------------
# one process: warm passes over one corpus with one copy
# ---------------------------------------------------------------------------


def child(copy: Path, workload: str, ops: int) -> dict:
    sys.path[:0] = [str(copy), str(BENCH)]
    import corpora
    import workloads
    import wqometer

    assert Path(wqometer.__file__).parent.parent == copy, wqometer.__file__
    wl = workloads.make_workloads(copy)[workload]
    op = wl.traced_op or wl.op
    items = wl.make(corpora.corpus_rng(workload, SEED), ops)
    digest = hashlib.sha256()
    clock = time.perf_counter
    totals, p50s = [], []
    for r in range(ROUNDS + 1):  # the first pass warms and digests
        gc.collect()
        lat = []
        for item in items:
            out = error = None
            t0 = clock()
            try:
                out = op(item)
            except Exception as exc:  # an op boundary, as in the benchmark
                error = f"{type(exc).__name__}: {exc}"
            lat.append(clock() - t0)
            if not r:
                shown = f"error {error}" if error else wl.show(item, out)
                digest.update(shown.encode() + b"\0")
            if wl.collect_after_op:
                del out
                gc.collect()
        if r:
            totals.append(sum(lat))
            p50s.append(statistics.median(lat))
    return {"total_s": min(totals), "p50_s": min(p50s), "digest": digest.hexdigest()[:16]}


def _run_child(copy: Path, workload: str) -> dict:
    argv = [sys.executable, __file__, "--child", str(copy), workload]
    out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------


def measure(ab: Ablation, base: Path, workload: str, pairs: int) -> dict:
    edited = make_copy(OUT / ab.name, ab)
    runs = []
    for i in range(pairs):
        sides = (base, edited) if i % 2 == 0 else (edited, base)
        got = {side: _run_child(side, workload) for side in sides}
        runs.append((got[base], got[edited]))
    total = [e["total_s"] / b["total_s"] for b, e in runs]
    p50 = [e["p50_s"] / b["p50_s"] for b, e in runs]
    return {
        "ablation": ab.name,
        "restores": ab.restores,
        "workload": workload,
        "pairs": pairs,
        "total_ratio": statistics.median(total),
        "p50_ratio": statistics.median(p50),
        "won": sum(t < 1 for t in total),
        "total_ratios": total,
        "same_output": len({x["digest"] for run in runs for x in run}) == 1,
        "base_total_s": statistics.median(b["total_s"] for b, _ in runs),
    }


def _row(r: dict) -> str:
    same = "same output" if r["same_output"] else "OUTPUT DIFFERS"
    return (
        f"{r['ablation']:<18} {r['workload']:<18} total {100 * (r['total_ratio'] - 1):+6.1f}%"
        f"  p50 {100 * (r['p50_ratio'] - 1):+6.1f}%  won {r['won']}/{r['pairs']}  {same}"
        + ("  (restores a deleted mechanism)" if r["restores"] else "")
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", help="ablations to run (default: all)")
    ap.add_argument("--workload", action="append", choices=OPS, help="only these workloads")
    ap.add_argument("--pairs", type=int, default=20)
    ap.add_argument("--list", action="store_true", help="list the ablations and exit")
    ap.add_argument("--child", nargs=2, metavar=("COPY", "WORKLOAD"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        copy, workload = args.child
        print(json.dumps(child(Path(copy), workload, OPS[workload])))
        return 0
    if args.list:
        for ab in ABLATIONS:
            print(f"{ab.name:<18} {ab.module:<11} {', '.join(ab.workloads)}: {ab.what}")
        return 0
    problems = unmatched()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    chosen = [ab for ab in ABLATIONS if not args.names or ab.name in args.names]
    unknown = set(args.names) - {ab.name for ab in ABLATIONS}
    if unknown:
        print(f"ablate: unknown ablation {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    base = make_copy(OUT / "base", None)
    results = []
    for ab in chosen:
        for workload in ab.workloads:
            if args.workload and workload not in args.workload:
                continue
            r = measure(ab, base, workload, args.pairs)
            results.append(r)
            print(_row(r), flush=True)
    path = OUT / "results.json"
    earlier = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    path.write_text(json.dumps(merge(earlier, results), indent=1) + "\n", encoding="utf-8")
    return 0


def merge(earlier: list[dict], rows: list[dict]) -> list[dict]:
    """The rows of an earlier run and of this one, one per (ablation,
    workload): a row of this run replaces the earlier one in its place,
    and the others follow in their order."""
    out = {(r["ablation"], r["workload"]): r for r in earlier}
    out.update(((r["ablation"], r["workload"]), r) for r in rows)
    return list(out.values())


if __name__ == "__main__":
    sys.exit(main())
