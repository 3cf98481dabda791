"""Seeded random generators shared by the test modules, and an
in-process check of the command line's exit code.

Everything takes an explicit `random.Random` so each test controls its
seed and failures reproduce exactly.
"""

from __future__ import annotations

import contextlib
import io
import random

from wqometer import (
    CartProd,
    DisjUnion,
    Gamma,
    LexProd,
    LexSum,
    Multisets,
    MultisetsN,
    Ord,
    Ordinal,
    Pf,
    PfPlus,
    Phi,
    Sim,
    SimExt,
    Words,
    ZERO,
    add,
    cli,
    nat_sum,
    omega_pow,
    parse_ordinal,
)
from wqometer.oracle import est_size


def random_ordinal(
    rng: random.Random,
    depth: int = 2,
    max_terms: int = 3,
    max_coeff: int = 3,
) -> Ordinal:
    """A random CNF ordinal; depth bounds the exponent nesting."""
    if depth == 0:
        return Ordinal.from_nat(rng.randint(0, 4))
    acc = ZERO
    for _ in range(rng.randint(0, max_terms)):
        e = random_ordinal(rng, depth - 1, max_terms, max_coeff)
        acc = nat_sum(acc, omega_pow(e, rng.randint(1, max_coeff)))
    return add(acc, Ordinal.from_nat(rng.randint(0, 3)))


def random_infinite_ordinal(rng: random.Random, depth: int = 2) -> Ordinal:
    while True:
        a = random_ordinal(rng, depth)
        if not a.is_finite:
            return a


def one_of_each() -> list:
    """One node of each of the 14 expression node classes."""
    leaf = Ord(parse_ordinal("w^2"))
    return [
        leaf, Gamma(2), Phi(parse_ordinal("w")), Sim(parse_ordinal("w^w")),
        SimExt(parse_ordinal("w^w"), 2), Words(leaf), Multisets(leaf), MultisetsN(leaf, 2),
        Pf(leaf), PfPlus(leaf), DisjUnion(leaf, leaf), LexSum(leaf, leaf),
        CartProd(leaf, leaf), LexProd(leaf, leaf),
    ]


# leaves allowed in elementary expressions: multiplicatively
# indecomposable and >= w^w
ELEMENTARY_LEAVES = tuple(
    parse_ordinal(t) for t in ("w^w", "w^(w^2)", "w^(w^3)", "w^(w^w)")
)


def random_elementary(rng: random.Random, size: int):
    """A random elementary expression with about `size` constructors."""
    if size <= 1:
        return Ord(rng.choice(ELEMENTARY_LEAVES))
    kind = rng.choice(("union", "prod", "words", "multisets", "pf", "pf"))
    if kind in ("union", "prod"):
        ls = rng.randint(1, size - 1)
        left = random_elementary(rng, ls)
        right = random_elementary(rng, size - 1 - ls or 1)
        return DisjUnion(left, right) if kind == "union" else CartProd(left, right)
    inner = random_elementary(rng, size - 1)
    if kind == "words":
        return Words(inner)
    if kind == "multisets":
        return Multisets(inner)
    return Pf(inner)


def random_union_product(rng: random.Random, factors: int):
    """A random elementary product of `factors` unions of two random small
    elementary terms: its normal form has at least 2^factors components,
    so from about 8 factors it is past `NF_SIZE_LIMIT`."""
    acc = None
    for _ in range(factors):
        u = DisjUnion(random_elementary(rng, rng.randint(1, 3)), random_elementary(rng, 1))
        acc = u if acc is None else CartProd(acc, u)
    return acc


def random_finite_expr(rng: random.Random, depth: int = 3, size_cap: int = 400):
    """A random expression denoting a finite quasi-order, small enough for
    the brute-force oracle."""
    while True:
        e = _finite_expr(rng, depth)
        try:
            if est_size(e) <= size_cap:
                return e
        except Exception:
            pass


def _finite_expr(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Ord(Ordinal.from_nat(rng.randint(0, 4)))
        return Gamma(rng.randint(1, 3))
    kind = rng.choice(
        ("union", "lexsum", "cart", "lexprod", "pf", "pfplus", "msetn")
    )
    if kind in ("union", "lexsum", "cart", "lexprod"):
        left = _finite_expr(rng, depth - 1)
        right = _finite_expr(rng, depth - 1)
        node = {
            "union": DisjUnion,
            "lexsum": LexSum,
            "cart": CartProd,
            "lexprod": LexProd,
        }[kind]
        return node(left, right)
    inner = _finite_expr(rng, depth - 1)
    if kind == "pf":
        return Pf(inner)
    if kind == "pfplus":
        return PfPlus(inner)
    return MultisetsN(inner, rng.randint(0, 2))


# the leaves, and the constructors over one part and over two, that
# `finite_terms` builds terms from
FINITE_LEAVES = (
    Ord(Ordinal.from_nat(0)), Ord(Ordinal.from_nat(1)), Ord(Ordinal.from_nat(2)),
    Ord(Ordinal.from_nat(3)), Gamma(2), Gamma(3),
)
FINITE_UNARY = (Pf, PfPlus, lambda x: MultisetsN(x, 2))
FINITE_BINARY = (DisjUnion, LexSum, CartProd, LexProd)


def finite_terms(nodes: int = 2, size_cap: int = 400) -> list:
    """Every term of at most `nodes` constructor nodes over FINITE_LEAVES,
    each once, in a fixed order: by number of constructor nodes, then
    constructor, then left part, then right part.  A term whose
    `est_size` is over `size_cap` is left out."""
    by_nodes = [list(FINITE_LEAVES)]
    for k in range(1, nodes + 1):
        level = [u(x) for u in FINITE_UNARY for x in by_nodes[k - 1]]
        level += [
            b(x, y)
            for b in FINITE_BINARY
            for i in range(k)
            for x in by_nodes[i]
            for y in by_nodes[k - 1 - i]
        ]
        by_nodes.append(level)
    return [e for level in by_nodes for e in level if est_size(e) <= size_cap]


def random_any_expr(rng: random.Random, depth: int = 3):
    """A random expression over the full grammar (may be infinite or
    unsupported); used for parser/printer round-trips."""
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.4:
            return Ord(random_ordinal(rng, 1))
        if roll < 0.7:
            return Gamma(rng.randint(1, 4))
        return Ord(rng.choice(ELEMENTARY_LEAVES))
    kind = rng.choice(
        (
            "union",
            "lexsum",
            "cart",
            "lexprod",
            "words",
            "multisets",
            "msetn",
            "pf",
            "pfplus",
        )
    )
    if kind in ("union", "lexsum", "cart", "lexprod"):
        node = {
            "union": DisjUnion,
            "lexsum": LexSum,
            "cart": CartProd,
            "lexprod": LexProd,
        }[kind]
        return node(random_any_expr(rng, depth - 1), random_any_expr(rng, depth - 1))
    inner = random_any_expr(rng, depth - 1)
    if kind == "words":
        return Words(inner)
    if kind == "multisets":
        return Multisets(inner)
    if kind == "msetn":
        return MultisetsN(inner, rng.randint(0, 3))
    if kind == "pf":
        return Pf(inner)
    return PfPlus(inner)


def documented_exit(argv: list[str]) -> int:
    """The exit code of `cli.main(argv)`, run in this process with its
    output captured, after checking that it is one of the documented 0-5
    and that no traceback was printed.  A command line that argparse
    refuses, or `-h`, ends in SystemExit, whose code counts; any other
    exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in range(6), (code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return code
