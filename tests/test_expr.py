"""Expression grammar: parser/printer round trips, precedence, errors."""

import random

import pytest

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

from genlib import random_any_expr

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


def test_round_trip_random():
    rng = random.Random(20260814)
    for _ in range(400):
        e = random_any_expr(rng, depth=5)
        assert parse_expr(print_expr(e)) == e


def test_parse_errors_have_positions():
    cases = ["", "w|", "Pf(w", "G(0)", "G()", "Pf(w))", "w ^^ w", "Zeta(w)", "Mn(w)"]
    for bad in cases:
        with pytest.raises(ParseError) as ei:
            parse_expr(bad)
        assert "position" in str(ei.value)


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


def test_expr_size():
    assert expr_size(W) == 1
    tower = W
    for _ in range(3000):
        tower = Multisets(tower)
    assert expr_size(tower) == 3001  # no recursion, so no depth limit
    assert expr_size(parse_expr("w|w")) == 3
    assert expr_size(parse_expr("Pf(w|w)")) == 4
