"""Expression grammar: parser/printer round trips, precedence, errors."""

import random
import re

import pytest
from hypothesis import given, strategies as st

from wqometer import (
    CartProd,
    DisjUnion,
    Gamma,
    LexProd,
    LexSum,
    Multisets,
    MultisetsN,
    Ord,
    OMEGA,
    ParseError,
    Pf,
    PfPlus,
    Phi,
    Sim,
    SimExt,
    Words,
    WqoExpr,
    expr_size,
    is_elementary,
    is_finite_expr,
    is_omega_elementary,
    parse_expr,
    parse_ordinal,
    print_expr,
)

from wqometer.expr import elementary_kind

from genlib import one_of_each, random_any_expr, random_infinite_ordinal, random_ordinal

o = parse_ordinal
W = Ord(OMEGA)


def test_atoms():
    assert parse_expr("w") == W
    assert parse_expr("3") == Ord(o("3"))
    assert parse_expr("w^2") == Ord(o("w^2"))
    assert parse_expr("o(w^2+w*3)") == Ord(o("w^2+w*3"))
    assert parse_expr("G(4)") == Gamma(4)
    assert parse_expr("Phi(w^2)") == Phi(o("w^2"))
    assert parse_expr("Sim(w^w)") == Sim(o("w^w"))
    assert parse_expr("SimExt(w^w, 3)") == SimExt(o("w^w"), 3)
    assert parse_expr("Mn(w, 2)") == MultisetsN(W, 2)


def test_operators():
    assert parse_expr("w|w") == DisjUnion(W, W)
    assert parse_expr("w++w") == LexSum(W, W)
    assert parse_expr("w+w") == LexSum(W, W)  # + between exprs is ++
    assert parse_expr("w*w") == CartProd(W, W)
    assert parse_expr("w.w") == LexProd(W, W)
    assert parse_expr("w^<w") == Words(W)
    assert parse_expr("M(w)") == Multisets(W)
    assert parse_expr("Pf(w)") == Pf(W)
    assert parse_expr("Pf+(w)") == PfPlus(W)


def test_precedence():
    # ++ loosest, then |, then * and ., then postfix ^<w
    assert parse_expr("w|w++w|w") == LexSum(DisjUnion(W, W), DisjUnion(W, W))
    assert parse_expr("w*w|w") == DisjUnion(CartProd(W, W), W)
    assert parse_expr("w|w*w") == DisjUnion(W, CartProd(W, W))
    assert parse_expr("w*w^<w") == CartProd(W, Words(W))
    assert parse_expr("(w|w)^<w") == Words(DisjUnion(W, W))
    assert parse_expr("w^<w^<w") == Words(Words(W))
    # left associativity
    assert parse_expr("w|w|w") == DisjUnion(DisjUnion(W, W), W)
    assert parse_expr("w++w++w") == LexSum(LexSum(W, W), W)
    assert parse_expr("w*w*w") == CartProd(CartProd(W, W), W)


def test_bare_vs_wrapped_ordinals():
    # a bare w^2 literal is one ordinal; o(...) admits full sums
    assert parse_expr("w^2") == Ord(o("w^2"))
    assert parse_expr("w+w") == LexSum(W, W)          # not the ordinal w+w
    assert parse_expr("o(w+w)") == Ord(o("w*2"))
    # w^<w must not grab "<" as an exponent
    assert parse_expr("w^<w") == Words(W)
    assert parse_expr("w^2^<w") == Words(Ord(o("w^2")))


def test_whitespace_tolerated():
    assert parse_expr(" Pf( w | w ) ") == Pf(DisjUnion(W, W))
    assert parse_expr("SimExt( w^w , 2 )") == SimExt(o("w^w"), 2)


def test_print_fixtures():
    assert print_expr(Multisets(Ord(o("w^w")))) == "M(o(w^w))"
    assert (
        print_expr(CartProd(Multisets(Ord(o("w^w"))), Multisets(Ord(o("w^w")))))
        == "M(o(w^w))*M(o(w^w))"
    )
    assert print_expr(Ord(o("3"))) == "3"
    assert print_expr(Ord(OMEGA)) == "o(w)"
    assert print_expr(PfPlus(W)) == "Pf+(o(w))"
    assert print_expr(LexSum(DisjUnion(W, W), W)) == "o(w)|o(w)++o(w)"
    assert print_expr(DisjUnion(LexSum(W, W), W)) == "(o(w)++o(w))|o(w)"
    assert print_expr(Words(Words(W))) == "o(w)^<w^<w"


def _family_leaves(rng: random.Random, e: WqoExpr) -> WqoExpr:
    """`e` with about half its leaves swapped for Phi, Sim and SimExt
    members, which `random_any_expr` never makes."""
    kids = e.children()
    if kids:
        return e.with_children(tuple(_family_leaves(rng, k) for k in kids))
    roll = rng.random()
    if roll < 0.2:
        return Phi(random_infinite_ordinal(rng, 1))
    if roll < 0.35:
        return Sim(random_ordinal(rng, 1))
    if roll < 0.5:
        return SimExt(random_ordinal(rng, 1), rng.randint(1, 3))
    return e


_HOLE = Gamma(271828182845)  # a leaf no random tree contains


def _reparenthesised(rng: random.Random, e: WqoExpr) -> str:
    """`e` spelled with every operand in parentheses and about a third of
    all subterms in one more pair, most of them redundant."""
    kids = e.children()
    s = print_expr(e.with_children((_HOLE,) * len(kids)))
    for k in kids:
        s = s.replace(print_expr(_HOLE), f"({_reparenthesised(rng, k)})", 1)
    return f"({s})" if rng.random() < 0.3 else s


def _blanks(rng: random.Random, text: str) -> str:
    """`text` with spaces and tabs between its tokens."""
    pieces = re.split(r"(\+\+|\^<w|Pf\+|[()|,.*+])", text)
    return "".join(p + rng.choice(("", "", " ", "\t", " \t ")) for p in pieces if p)


def test_round_trip_random():
    rng, noise = random.Random(20260814), random.Random(7)
    for i in range(400):
        e = random_any_expr(rng, depth=5)
        if i % 2:
            e = _family_leaves(noise, e)
        assert parse_expr(print_expr(e)) == e
        assert parse_expr(_blanks(noise, print_expr(e))) == e
        assert parse_expr(_blanks(noise, _reparenthesised(noise, e))) == e


_CHARS = ["(", ")", "|", "+", "*", ".", ",", "^", "<", " ", "\t", "\n", "-", "_", "x", "é", "²", "٣"]
_TOKENS = ["w", "++", "^<w", "o", "G", "Pf", "Pf+", "M", "Mn", "Phi", "Sim", "SimExt", "0", "1", "42"]


@given(st.lists(st.sampled_from(_TOKENS + _CHARS), max_size=30).map("".join))
def test_parser_returns_a_node_or_a_parse_error(text):
    try:
        assert isinstance(parse_expr(text), WqoExpr)
    except ParseError:
        pass


def concrete_node_classes() -> set[type]:
    """The node classes that have no subclasses, found by walking
    `__subclasses__()` down from `WqoExpr` (so the shared bases of the
    unary and binary constructors are left out)."""
    found, stack = set(), [WqoExpr]
    while stack:
        subs = stack.pop().__subclasses__()
        found.update(c for c in subs if not c.__subclasses__())
        stack.extend(subs)
    return found


def test_every_node_class_prints_and_parses_back():
    nodes = one_of_each()
    assert len(nodes) == 14
    assert {type(e) for e in nodes} == concrete_node_classes()
    for e in nodes:
        assert parse_expr(print_expr(e)) == e


_OPERAND = "a constructor (o, G, Pf, M, Mn, Phi, Sim, SimExt), '(', 'w' or a natural number"

# the exact message for each malformed input: where the parser stopped,
# what it wanted there and what it found
_PARSE_ERRORS = {
    "": "position 0: expected an expression, found 'end of input'",
    "w|": "position 2: expected an expression, found 'end of input'",
    "Pf(w": "position 4: expected ')', found 'end of input'",
    "G()": "position 2: expected a natural number, found ')'",
    "Pf(w))": "position 5: expected end of expression or an operator, found ')'",
    "w ^^ w": "position 2: expected end of expression or an operator, found '^^ w'",
    "Zeta(w)": f"position 0: expected {_OPERAND}, found 'Zeta(w)'",
    "Mn(w)": "position 4: expected ',', found ')'",
    "(w": "position 2: expected ')', found 'end of input'",
    "w)": "position 1: expected end of expression or an operator, found ')'",
    "Mn(w,-1)": "position 5: expected a natural number, found '-1)'",
    "SimExt(w^w)": "position 10: expected ',', found ')'",
    "w|*w": f"position 2: expected {_OPERAND}, found '*w'",
    "Pf+w": "position 3: expected '(', found 'w'",
    "o(w": "position 3: expected ')', found 'end of input'",
    "M w": "position 2: expected '(', found 'w'",
    "wx": f"position 0: expected {_OPERAND}, found 'wx'",
    "G(2": "position 3: expected ')', found 'end of input'",
    "Sim(w,2)": "position 5: expected ')', found ',2)'",
    "w^<": "position 1: expected end of expression or an operator, found '^<'",
    "3 4": "position 2: expected end of expression or an operator, found '4'",
    # a failed side condition points at the argument
    "G(0)": "position 2: expected k >= 1 in G(k), found '0)'",
    "G( 0 )": "position 3: expected k >= 1 in G(k), found '0 )'",
    "Phi(0)": "position 4: expected a >= 1 in Phi(a), found '0)'",
    "SimExt(w^w,0)": "position 11: expected m >= 1 in SimExt(a, m), found '0)'",
}


def test_parse_errors_have_positions():
    for bad, message in _PARSE_ERRORS.items():
        with pytest.raises(ParseError) as ei:
            parse_expr(bad)
        assert str(ei.value) == "parse error at " + message, bad


def test_classifiers():
    e = parse_expr("Pf(M(o(w^w))|o(w^(w^2))^<w)")
    assert is_elementary(e)
    assert not is_omega_elementary(e)
    assert not is_finite_expr(e)

    # leaf w^(w*2) is not multiplicatively indecomposable, leaf w is < w^w
    assert not is_elementary(parse_expr("o(w^w)|o(w^(w*2))"))
    assert not is_elementary(parse_expr("Pf(w)"))
    assert not is_elementary(parse_expr("o(w^w)++o(w^w)"))

    assert is_omega_elementary(parse_expr("Pf(M(w)|w^<w)"))
    assert not is_omega_elementary(parse_expr("Pf(o(w^w))"))

    assert is_finite_expr(parse_expr("Pf(G(3))*2++Pf+(G(2).3)"))
    assert is_finite_expr(parse_expr("Mn(G(2), 2)"))
    assert not is_finite_expr(parse_expr("w"))
    assert not is_finite_expr(parse_expr("G(2)^<w"))
    assert not is_finite_expr(parse_expr("M(G(2))"))
    assert not is_finite_expr(parse_expr("Phi(3)"))


# the two recursive predicates that `elementary_kind` replaced, kept as
# the reference it is checked against
_ELEMENTARY_NODES = (DisjUnion, CartProd, Words, Multisets, Pf)


def _ref_is_elementary(e: WqoExpr) -> bool:
    if isinstance(e, Ord):
        return e.value.is_multiplicatively_indecomposable and e.value >= o("w^w")
    if isinstance(e, _ELEMENTARY_NODES):
        return all(_ref_is_elementary(k) for k in e.children())
    return False


def _ref_is_omega_elementary(e: WqoExpr) -> bool:
    if isinstance(e, Ord):
        return e.value == OMEGA
    if isinstance(e, _ELEMENTARY_NODES):
        return all(_ref_is_omega_elementary(k) for k in e.children())
    return False


def _leaves_to_w(rng: random.Random, e: WqoExpr, share: float) -> WqoExpr:
    if isinstance(e, Ord):
        return W if rng.random() < share else e
    return e.with_children(tuple(_leaves_to_w(rng, k, share) for k in e.children()))


def test_classifier_matches_recursive_predicates():
    rng = random.Random(4242)
    kinds = {"elementary": 0, "omega": 0, None: 0}
    for _ in range(3000):
        e = random_any_expr(rng, depth=rng.randint(0, 4))
        if rng.random() < 0.5:
            # omega-elementary terms, and elementary ones with a stray w
            # leaf, are rare in the random grammar
            e = _leaves_to_w(rng, e, rng.choice((0.3, 1.0)))
        elem, omega = _ref_is_elementary(e), _ref_is_omega_elementary(e)
        want = "elementary" if elem else "omega" if omega else None
        assert elementary_kind(e) == want, print_expr(e)
        assert elementary_kind(e) == want  # cached answer
        assert is_elementary(e) == elem
        assert is_omega_elementary(e) == omega
        kinds[want] += 1
    assert min(kinds.values()) >= 50, kinds


def test_classifier_cache_is_invisible():
    e = parse_expr("Pf(M(w)|w^<w)")
    fresh = parse_expr("Pf(M(w)|w^<w)")
    assert elementary_kind(e) == "omega"
    assert e == fresh and hash(e) == hash(fresh)
    assert repr(e) == repr(fresh)
    assert e.children() == fresh.children()
    assert e.with_children(e.children()) == e


def test_deep_nesting_parses_at_default_recursion_limit():
    # the parser keeps its stacks on the heap, so depth costs no frames;
    # `==` and `print_expr` recurse, so the results are measured instead
    n = 10_000
    assert parse_expr("(" * n + "w" + ")" * n) == W
    for op, cls in (("|", DisjUnion), ("*", CartProd)):
        e, depth = parse_expr(op.join(["w"] * n)), 0
        while isinstance(e, cls):
            e, depth = e.left, depth + 1
        assert depth == n - 1  # left-deep
    tower = parse_expr("M(Pf(" * (n // 2) + "w" + "))" * (n // 2))
    assert expr_size(tower) == n + 1
    assert isinstance(tower, Multisets) and isinstance(tower.arg, Pf)


def test_expr_size():
    assert expr_size(W) == 1
    tower = W
    for _ in range(3000):
        tower = Multisets(tower)
    assert expr_size(tower) == 3001  # no recursion, so no depth limit
    assert expr_size(parse_expr("w|w")) == 3
    assert expr_size(parse_expr("Pf(w|w)")) == 4
