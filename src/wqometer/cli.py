"""Command-line front end.

Subcommands
-----------

* ``invariants <expr>``   full invariant report (o, h, w, weakened o, notes)
* ``normalize <expr>``    rewrite an elementary expression to normal form
* ``bounds <expr>``       powerset bounds: invariants of Pf(<expr>)
* ``weakmot <expr>``      weakened maximal order type (elementary once Pf
  is eliminated; the ``weak-o`` that ``invariants`` reports)
* ``oracle <expr|--poset f|--random n>``  brute-force invariants of a
  finite order, given as an expression, a JSON poset file, or a random
  quasi-order sampled reproducibly from ``--seed``
* ``check <expr>``        engine-vs-oracle comparison on a finite expression
* ``iso <expr1> <expr2>`` finite isomorphism test

Exit codes: 0 success, 1 check mismatch, 2 parse error, 3 hypothesis not
met, 4 unsupported computation, 5 size limit exceeded (an oracle build, or
a normal form that ``normalize`` would print).

Plain output renders ordinals in the parser's own literal syntax, so every
value printed can be fed back in.  ``--json`` switches to a stable
machine-readable schema.  The environment variable ``WQO_METER_SEED``
overrides ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import engine, oracle
from .errors import (
    HypothesisNotMet,
    ParseError,
    TooLargeError,
    UnsupportedComputation,
)
from .expr import parse_expr, print_expr
from .rewrite import normalize_elementary

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_UNSUPPORTED = 4
EXIT_TOO_LARGE = 5


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    common.add_argument(
        "--word-len-cap",
        type=int,
        default=None,
        metavar="N",
        help="truncate word constructors at N letters in oracle builds",
    )
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="seed for sampling commands (WQO_METER_SEED overrides)",
    )

    ap = argparse.ArgumentParser(
        prog="wqometer",
        description="ordinal invariants (o, h, w) of well-quasi-orders",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser(
        "invariants", parents=[common], help="invariant report for an expression"
    )
    p.add_argument("expr")

    p = sub.add_parser(
        "normalize",
        parents=[common],
        help="normal form of an elementary expression",
    )
    p.add_argument("expr")
    p.add_argument(
        "--trace", action="store_true", help="also print every rewrite step"
    )

    p = sub.add_parser(
        "bounds", parents=[common], help="powerset bounds: invariants of Pf(expr)"
    )
    p.add_argument("expr")

    p = sub.add_parser(
        "weakmot",
        parents=[common],
        help="weakened maximal order type (elementary expressions)",
    )
    p.add_argument("expr")

    p = sub.add_parser(
        "oracle", parents=[common], help="brute-force invariants of a finite order"
    )
    p.add_argument("expr", nargs="?")
    p.add_argument(
        "--poset",
        metavar="FILE",
        help='JSON poset {"n": int, "leq": [[i, j], ...]} instead of an expression',
    )
    p.add_argument(
        "--random",
        type=int,
        metavar="N",
        help="sample a random quasi-order on N elements (see --seed)",
    )

    p = sub.add_parser(
        "check", parents=[common], help="compare engine and oracle on a finite expression"
    )
    p.add_argument("expr")

    p = sub.add_parser("iso", parents=[common], help="finite isomorphism test")
    p.add_argument("expr1")
    p.add_argument("expr2")

    return ap


def _resolve_seed(args) -> int:
    env = os.environ.get("WQO_METER_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(env, 0, "an integer WQO_METER_SEED") from None
    return args.seed if args.seed is not None else 0


def _print_report(rep: engine.InvariantReport, heading: str, as_json: bool) -> None:
    if as_json:
        payload = {"expression": heading, **rep.to_json()}
        print(json.dumps(payload, indent=2))
        return
    print(f"expression: {heading}")
    print(f"o = {rep.mot}")
    print(f"h = {rep.height}")
    print(f"w = {rep.width}")
    if rep.weak_mot is not None:
        print(f"weak-o = {rep.weak_mot}")
    for note in rep.notes:
        print(f"note: {note}")


def _fmt_path(path: tuple[int, ...]) -> str:
    return "root" if not path else ".".join(str(i) for i in path)


def _cmd_invariants(args) -> int:
    e = parse_expr(args.expr)
    rep = engine.invariants(e)
    _print_report(rep, print_expr(e), args.json)
    return EXIT_OK


def _cmd_normalize(args) -> int:
    e = parse_expr(args.expr)
    nf, trace = normalize_elementary(e)
    if args.json:
        payload = {
            "input": print_expr(e),
            "normal_form": print_expr(nf),
            "trace": trace.to_json(),
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(print_expr(nf))
    if args.trace:
        for i, s in enumerate(trace.steps, 1):
            print(f"step {i}: {s.rule} at {_fmt_path(s.path)}: {s.before} => {s.after}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    e = parse_expr(args.expr)
    rep = engine.pf_bounds(e)
    _print_report(rep, f"Pf({print_expr(e)})", args.json)
    return EXIT_OK


def _cmd_weakmot(args) -> int:
    e = parse_expr(args.expr)
    v = engine.weak_mot(e)
    if args.json:
        print(json.dumps({"expression": print_expr(e), "weak_mot": str(v)}, indent=2))
    else:
        print(v)
    return EXIT_OK


def _load_poset(path: str) -> oracle.FinitePoset:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return oracle.FinitePoset.from_json(text)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(path, 0, "a poset JSON file", str(exc)) from exc


def _cmd_oracle(args) -> int:
    sampled = None
    if args.poset is not None:
        p = _load_poset(args.poset)
        heading = args.poset
    elif args.random is not None:
        if args.random < 0:
            raise ParseError(str(args.random), 0, "a non-negative --random size")
        if args.random > oracle.SIZE_LIMIT:
            raise TooLargeError("random quasi-order", args.random, oracle.SIZE_LIMIT)
        seed = _resolve_seed(args)
        p = oracle.random_quasi_order(random.Random(seed), args.random)
        heading = f"random(n={args.random}, seed={seed})"
        sampled = p.to_json()
    elif args.expr is not None:
        e = parse_expr(args.expr)
        p, heading = oracle.build(e, args.word_len_cap), print_expr(e)
    else:
        print("oracle: need an expression, --poset FILE or --random N", file=sys.stderr)
        return EXIT_PARSE
    values = {
        "n": p.n,
        "mot": oracle.mot(p),
        "height": oracle.height(p),
        "width": oracle.width(p),
    }
    if args.json:
        payload = {"expression": heading, **values}
        if sampled is not None:
            payload["poset"] = json.loads(sampled)
        print(json.dumps(payload, indent=2))
    else:
        print(f"expression: {heading}")
        for k in ("n", "mot", "height", "width"):
            print(f"{k} = {values[k]}")
        if sampled is not None:
            print(f"poset = {sampled}")
    return EXIT_OK


def _cmd_check(args) -> int:
    e = parse_expr(args.expr)
    res = oracle.check_engine(e, args.word_len_cap)
    if args.json:
        print(json.dumps(res.to_json(), indent=2))
    else:
        print(f"expression: {res.expression}")
        for entry in res.entries:
            print(
                f"{entry.invariant}: engine {entry.result}, "
                f"oracle {entry.expected} [{entry.status}]"
            )
        print(f"result: {'ok' if res.ok else 'mismatch'}")
    return EXIT_OK if res.ok else EXIT_MISMATCH


def _cmd_iso(args) -> int:
    p = oracle.build(parse_expr(args.expr1), args.word_len_cap)
    q = oracle.build(parse_expr(args.expr2), args.word_len_cap)
    ans = oracle.iso(p, q)
    if args.json:
        print(json.dumps({"isomorphic": ans}))
    else:
        print("isomorphic" if ans else "not isomorphic")
    return EXIT_OK


_COMMANDS = {
    "invariants": _cmd_invariants,
    "normalize": _cmd_normalize,
    "bounds": _cmd_bounds,
    "weakmot": _cmd_weakmot,
    "oracle": _cmd_oracle,
    "check": _cmd_check,
    "iso": _cmd_iso,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # each error's message begins with its kind, so it is printed as is
    try:
        _resolve_seed(args)  # validated up front so a bad env var fails loudly
        return _COMMANDS[args.cmd](args)
    except ParseError as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARSE
    except HypothesisNotMet as exc:
        print(exc, file=sys.stderr)
        return EXIT_HYPOTHESIS
    except UnsupportedComputation as exc:
        print(exc, file=sys.stderr)
        return EXIT_UNSUPPORTED
    except TooLargeError as exc:
        print(exc, file=sys.stderr)
        return EXIT_TOO_LARGE
    except RecursionError:
        print(UnsupportedComputation("expression-too-deep"), file=sys.stderr)
        return EXIT_UNSUPPORTED


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    raise SystemExit(main())
