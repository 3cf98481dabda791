"""Command-line front end.

Subcommands
-----------

* ``invariants <expr>``   full invariant report (o, h, w, weakened o, notes)
* ``normalize <expr>``    rewrite an elementary expression to normal form
* ``bounds <expr>``       powerset bounds: invariants of Pf(<expr>)
* ``weakmot <expr>``      weakened maximal order type (elementary once Pf
  is eliminated; the ``weak-o`` that ``invariants`` reports)
* ``oracle <expr|--poset f|--random n>``  brute-force invariants of a
  finite order, given as exactly one of an expression, a JSON poset file
  or a random quasi-order sampled reproducibly from ``--seed``
* ``check <expr>``        engine-vs-oracle comparison on a finite expression
* ``iso <expr1> <expr2>`` finite isomorphism test

Exit codes: 0 success, 1 check mismatch, 2 parse error, 3 hypothesis not
met, 4 unsupported computation, 5 size limit exceeded (an oracle build, or
a normal form that ``normalize`` would print).

Plain output renders ordinals in the parser's own literal syntax, so every
value printed can be fed back in.  ``--json`` switches to a stable
machine-readable schema.  The environment variable ``WQO_METER_SEED``
overrides ``--seed``.

Only ``argparse`` and the error types are imported with this module; each
command imports the modules it runs in its own body, so ``normalize``
never loads the engine or the oracle, and ``oracle`` and ``iso`` never
load the rewrite layer or the engine.
"""

import argparse
import os
import sys

from .errors import ParseError, TooLargeError, UnsupportedComputation, WqometerError

EXIT_OK = 0
EXIT_MISMATCH = 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    # the commands that build finite orders
    builds = argparse.ArgumentParser(add_help=False, parents=[common])
    builds.add_argument(
        "--word-len-cap",
        type=int,
        metavar="N",
        help="truncate word constructors at N letters in oracle builds",
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
        "oracle", parents=[builds], help="brute-force invariants of a finite order"
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
    p.add_argument(
        "--seed", type=int, metavar="N", help="seed for --random (WQO_METER_SEED overrides)"
    )

    p = sub.add_parser(
        "check", parents=[builds], help="compare engine and oracle on a finite expression"
    )
    p.add_argument("expr")

    p = sub.add_parser("iso", parents=[builds], help="finite isomorphism test")
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


def _word_len_cap(args) -> int | None:
    cap = args.word_len_cap
    if cap is not None and cap < 0:
        raise ParseError(str(cap), 0, "a non-negative --word-len-cap")
    return cap


def _print_json(payload, indent: int | None = 2) -> None:
    import json

    print(json.dumps(payload, indent=indent))


def _print_report(rep, heading: str, as_json: bool) -> None:
    if as_json:
        _print_json({"expression": heading, **rep.to_json()})
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
    from . import engine
    from .expr import parse_expr, print_expr

    e = parse_expr(args.expr)
    rep = engine.invariants(e)
    _print_report(rep, print_expr(e), args.json)
    return EXIT_OK


def _cmd_normalize(args) -> int:
    from .expr import parse_expr, print_expr
    from .rewrite import normalize_elementary

    e = parse_expr(args.expr)
    nf, trace = normalize_elementary(e)
    if args.json:
        payload = {
            "input": print_expr(e),
            "normal_form": print_expr(nf),
            "trace": trace.to_json(),
        }
        _print_json(payload)
        return EXIT_OK
    print(print_expr(nf))
    if args.trace:
        for i, s in enumerate(trace.steps, 1):
            print(f"step {i}: {s.rule} at {_fmt_path(s.path)}: {s.before} => {s.after}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    from . import engine
    from .expr import parse_expr, print_expr

    e = parse_expr(args.expr)
    rep = engine.pf_bounds(e)
    _print_report(rep, f"Pf({print_expr(e)})", args.json)
    return EXIT_OK


def _cmd_weakmot(args) -> int:
    from . import engine
    from .expr import parse_expr, print_expr

    e = parse_expr(args.expr)
    v = engine.weak_mot(e)
    if args.json:
        _print_json({"expression": print_expr(e), "weak_mot": str(v)})
    else:
        print(v)
    return EXIT_OK


def _load_poset(path: str):
    from . import oracle

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return oracle.FinitePoset.from_json(text)
    # a file not in UTF-8, and a malformed or too deeply nested one, all
    # raise ValueError
    except (OSError, ValueError) as exc:
        raise ParseError(path, 0, "a poset JSON file", str(exc)) from exc


def _cmd_oracle(args) -> int:
    from . import oracle

    if sum(a is not None for a in (args.expr, args.poset, args.random)) != 1:
        print("oracle: need exactly one of an expression, --poset FILE or --random N",
              file=sys.stderr)
        return ParseError.exit_code
    sampled = None
    if args.poset is not None:
        p = _load_poset(args.poset)
        heading = args.poset
    elif args.random is not None:
        if args.random < 0:
            raise ParseError(str(args.random), 0, "a non-negative --random size")
        if args.random > oracle.SIZE_LIMIT:
            raise TooLargeError("random quasi-order", args.random, oracle.SIZE_LIMIT)
        import random

        seed = _resolve_seed(args)
        p = oracle.random_quasi_order(random.Random(seed), args.random)
        heading = f"random(n={args.random}, seed={seed})"
        sampled = p.to_json()
    else:
        from .expr import parse_expr, print_expr

        e = parse_expr(args.expr)
        p, heading = oracle.build(e, _word_len_cap(args)), print_expr(e)
    values = {
        "n": p.n,
        "mot": oracle.mot(p),
        "height": oracle.height(p),
        "width": oracle.width(p),
    }
    if args.json:
        import json

        payload = {"expression": heading, **values}
        if sampled is not None:
            payload["poset"] = json.loads(sampled)
        _print_json(payload)
    else:
        print(f"expression: {heading}")
        for k in ("n", "mot", "height", "width"):
            print(f"{k} = {values[k]}")
        if sampled is not None:
            print(f"poset = {sampled}")
    return EXIT_OK


def _cmd_check(args) -> int:
    from . import oracle
    from .expr import parse_expr

    e = parse_expr(args.expr)
    res = oracle.check_engine(e, _word_len_cap(args))
    if args.json:
        _print_json(res.to_json())
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
    from . import oracle
    from .expr import parse_expr

    cap = _word_len_cap(args)
    p = oracle.build(parse_expr(args.expr1), cap)
    q = oracle.build(parse_expr(args.expr2), cap)
    ans = oracle.iso(p, q)
    if args.json:
        _print_json({"isomorphic": ans}, indent=None)
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
        return _COMMANDS[args.cmd](args)
    except WqometerError as exc:
        print(exc, file=sys.stderr)
        return exc.exit_code
    except RecursionError:
        print(UnsupportedComputation("expression-too-deep"), file=sys.stderr)
        return UnsupportedComputation.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    raise SystemExit(main())
