"""Metamorphic tests: terms that denote isomorphic wqos get the same or
compatible invariants.

The terms come from `genlib.random_any_expr`, seeded, so a failure
reproduces exactly.  A unit or zero law, or regrouping an n-ary chain,
must give the very same (o, h, w); swapping the factors of a union or of
a Cartesian product must give components whose intervals meet.
"""

import itertools
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
    OMEGA,
    ONE,
    Ord,
    Ordinal,
    Pf,
    PfPlus,
    Phi,
    Sim,
    Words,
    ZERO,
    eliminate_pf,
    invariants,
    print_expr,
)

from genlib import random_any_expr

_0, _1 = Ord(ZERO), Ord(ONE)

_rng = random.Random(5)
TERMS = [random_any_expr(_rng, _rng.randint(0, 3)) for _ in range(3000)]


def triple(e):
    r = invariants(e)
    return r.mot, r.height, r.width


@pytest.fixture(scope="module")
def base():
    return [triple(x) for x in TERMS]


# each law as the term it rewrites, built around X, and the term X or 0 it
# gives; a closed law (M(0) -> 1, ...) is checked as a factor or a part
# beside X, where dropping it changes the triple
LAWS = {
    "X|0": (lambda x: DisjUnion(x, _0), "X"),
    "0|X": (lambda x: DisjUnion(_0, x), "X"),
    "X++0": (lambda x: LexSum(x, _0), "X"),
    "0++X": (lambda x: LexSum(_0, x), "X"),
    "X*1": (lambda x: CartProd(x, _1), "X"),
    "1*X": (lambda x: CartProd(_1, x), "X"),
    "X.1": (lambda x: LexProd(x, _1), "X"),
    "1.X": (lambda x: LexProd(_1, x), "X"),
    "X*G(1)": (lambda x: CartProd(x, Gamma(1)), "X"),
    "G(1).X": (lambda x: LexProd(Gamma(1), x), "X"),
    "X*0": (lambda x: CartProd(x, _0), "0"),
    "0*X": (lambda x: CartProd(_0, x), "0"),
    "X.0": (lambda x: LexProd(x, _0), "0"),
    "0.X": (lambda x: LexProd(_0, x), "0"),
    "X*M(0)": (lambda x: CartProd(x, Multisets(_0)), "X"),
    "X*0^<w": (lambda x: CartProd(x, Words(_0)), "X"),
    "X*Pf(0)": (lambda x: CartProd(x, Pf(_0)), "X"),
    "X*Mn(X,0)": (lambda x: CartProd(x, MultisetsN(x, 0)), "X"),
    "X|Mn(0,1)": (lambda x: DisjUnion(x, MultisetsN(_0, 1)), "X"),
    "X|Mn(0,3)": (lambda x: DisjUnion(x, MultisetsN(_0, 3)), "X"),
    "X|Pf+(0)": (lambda x: DisjUnion(x, PfPlus(_0)), "X"),
}


@pytest.mark.parametrize("law", LAWS)
def test_unit_and_zero_laws_keep_the_triple(base, law):
    build, result = LAWS[law]
    zero = triple(_0)
    for x, want in zip(TERMS, base):
        assert triple(build(x)) == (want if result == "X" else zero), print_expr(x)


def test_only_zero_is_empty():
    # after elimination 0 is the only empty term, so every supported
    # component of any other term has a lower bound of at least 1: the
    # engine's rules need no case for an empty argument
    empty = 0
    for x, t in zip(TERMS, map(triple, TERMS)):
        if eliminate_pf(x) == _0:
            empty += 1
            assert t == triple(_0), print_expr(x)
        else:
            assert all(r.reason is not None or r.lower >= ONE for r in t), print_expr(x)
    assert empty >= 50, empty


# the family leaves, which `random_any_expr` does not draw
_TWO = Ordinal.from_nat(2)
_FAMILIES = [Phi(ONE), Phi(_TWO), Phi(OMEGA), Sim(OMEGA)]


def test_every_supported_mot_is_exact_or_at_least_two():
    # a word order's width is its o, which needs o(A) > 1: the rules give
    # o(A) = 1 only exactly, and words over 1 have a rule of their own
    terms = TERMS + [node(x) for node in (Pf, PfPlus) for x in _FAMILIES]
    for x, y in itertools.product(_FAMILIES, _FAMILIES + TERMS[:200]):
        terms += [CartProd(x, y), CartProd(y, x), LexProd(x, y), LexProd(y, x)]
    for x in terms:
        o = invariants(x).mot
        assert o.reason is not None or o.kind == "exact" or o.lower >= _TWO, (
            print_expr(x)
        )


def _triples_of_terms(seed: int, n: int) -> list:
    rng = random.Random(seed)
    return [tuple(random_any_expr(rng, rng.randint(0, 2)) for _ in range(3)) for _ in range(n)]


@pytest.mark.parametrize("node", [DisjUnion, LexSum], ids=["|", "++"])
def test_chains_are_associative(node):
    for a, b, c in _triples_of_terms(17, 1000):
        left, right = node(node(a, b), c), node(a, node(b, c))
        assert triple(left) == triple(right), print_expr(left)


def _meet(r, s) -> bool:
    """Whether two results can hold the same value: each interval holds
    the larger of the two lower bounds (an unsupported one holds all)."""
    if r.reason is not None or s.reason is not None:
        return True
    return r.admits(s.lower) if r.lower <= s.lower else s.admits(r.lower)


@pytest.mark.parametrize("node", [DisjUnion, CartProd], ids=["|", "*"])
def test_commuted_parts_give_intervals_that_meet(node):
    for a, b, _ in _triples_of_terms(23, 1000):
        ab, ba = node(a, b), node(b, a)
        assert all(map(_meet, triple(ab), triple(ba))), print_expr(ab)
