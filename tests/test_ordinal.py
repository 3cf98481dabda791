"""Ordinal arithmetic: frozen fixtures plus algebraic laws."""

import random
from functools import cmp_to_key, reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from wqometer import (
    ONE,
    OMEGA,
    ZERO,
    Ordinal,
    ParseError,
    UnsupportedComputation,
    add,
    cmp,
    decompose_omega,
    hat_nat_sum,
    hstar,
    left_subtract,
    mul,
    nat_prod,
    nat_sum,
    odot,
    omega_pow,
    parse_ordinal,
    pm,
    two_pow,
)

from genlib import random_ordinal

o = parse_ordinal


# --- construction and order ------------------------------------------------


def test_cnf_singletons():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(OMEGA) == "w"
    assert Ordinal.from_nat(0) == ZERO
    assert Ordinal.from_nat(1) == ONE


def test_parse_print_fixtures():
    for text in ("0", "1", "7", "w", "w*2", "w+1", "w^2*3+w*2+5", "w^(w^w)",
                 "w^(w+1)", "w^w*2+w^2"):
        assert str(o(text)) == text


def test_ordering_fixtures():
    chain = ["0", "1", "2", "w", "w+1", "w*2", "w^2", "w^2+w", "w^w", "w^(w^w)"]
    vals = [o(t) for t in chain]
    for i in range(len(vals)):
        for j in range(len(vals)):
            assert (cmp(vals[i], vals[j]) < 0) == (i < j)


def test_classification_flags():
    assert o("w").is_additively_indecomposable
    assert o("w^2").is_additively_indecomposable
    assert ONE.is_additively_indecomposable  # w^0
    assert not o("w*2").is_additively_indecomposable
    assert not o("w+1").is_additively_indecomposable

    assert o("w").is_multiplicatively_indecomposable
    assert o("w^w").is_multiplicatively_indecomposable
    assert o("w^(w^2)").is_multiplicatively_indecomposable
    for t in ("0", "1", "2", "w^2", "w*2", "w^(w*2)", "w^(w+1)"):
        assert not o(t).is_multiplicatively_indecomposable, t


def test_successor_limit():
    assert o("w+1").is_successor and not o("w+1").is_limit
    assert o("w").is_limit and not o("w").is_successor
    assert not ZERO.is_limit and not ZERO.is_successor
    assert o("w*2").is_limit
    assert o("w^2+5").is_successor


# --- ordinary arithmetic ----------------------------------------------------


def test_add_fixtures():
    assert add(o("1"), o("w")) == o("w")          # absorption
    assert add(o("w"), o("1")) == o("w+1")
    assert add(o("w+5"), o("w^2")) == o("w^2")
    assert add(o("w^2+w"), o("w*3+1")) == o("w^2+w*4+1")


def test_left_subtract_fixtures():
    assert left_subtract(o("w"), o("w*2")) == o("w")
    assert left_subtract(o("1"), o("w")) == o("w")
    assert left_subtract(o("1"), o("5")) == o("4")
    assert left_subtract(o("w^2"), o("w^2+w+3")) == o("w+3")
    with pytest.raises(ValueError):
        left_subtract(o("w"), o("1"))


def test_mul_fixtures():
    assert mul(o("w+1"), o("w")) == o("w^2")
    assert mul(o("w"), o("2")) == o("w*2")
    assert mul(o("2"), o("w")) == o("w")
    assert mul(o("w^2+1"), o("w+2")) == o("w^3+w^2*2+1")
    assert mul(o("w*2"), o("w*2")) == o("w^2*2")


def test_nat_sum_fixtures():
    assert nat_sum(o("w"), o("1")) == o("w+1")
    assert nat_sum(o("1"), o("w")) == o("w+1")   # unlike +
    assert nat_sum(o("w^2+w"), o("w*2+3")) == o("w^2+w*3+3")
    assert nat_sum(o("w*2"), o("w*2")) == o("w*4")
    # more than two arguments are summed at once
    assert nat_sum(o("w"), o("1"), o("w^2+w"), o("2")) == o("w^2+w*2+3")


def test_nat_sum_with_zero_is_the_other_argument():
    for x in (ZERO, o("3"), o("w^w+w*2")):
        assert nat_sum(x, ZERO) is x
        assert nat_sum(ZERO, x) is x


def test_nat_prod_fixtures():
    assert nat_prod(o("w"), o("w")) == o("w^2")
    assert nat_prod(o("w+1"), o("w+1")) == o("w^2+w*2+1")
    assert nat_prod(o("w*2"), o("w*2")) == o("w^2*4")
    assert nat_prod(o("w^w+1"), o("3")) == o("w^w*3+3")


# --- the specialised operations ---------------------------------------------


def test_decompose_omega_fixtures():
    assert decompose_omega(o("w")) == (ONE, 0)
    assert decompose_omega(o("w^2")) == (o("w"), 0)
    assert decompose_omega(o("w^2*3+w*4+5")) == (o("w*3+4"), 5)
    assert decompose_omega(o("w^w")) == (o("w^w"), 0)
    assert decompose_omega(o("w^(w+1)*2")) == (o("w^(w+1)*2"), 0)
    assert decompose_omega(o("5")) == (ZERO, 5)


def test_two_pow_fixtures():
    assert two_pow(o("w")) == o("w")
    assert two_pow(o("w^2")) == o("w^w")
    assert two_pow(o("5")) == o("32")
    assert two_pow(o("w+2")) == o("w*4")          # w^1 * 2^2
    assert two_pow(o("w^w")) == o("w^(w^w)")
    assert two_pow(ZERO) == ONE


def test_two_pow_guard():
    with pytest.raises(UnsupportedComputation):
        two_pow(Ordinal.from_nat(10_000_000))


def test_hat_nat_sum_fixtures():
    h = hat_nat_sum
    assert h(o("w*2"), o("w*2")) == o("w*3")
    assert h(o("w"), ZERO) == ZERO
    assert h(ZERO, o("w^w")) == ZERO
    assert h(o("w^w+1"), o("w^w+1")) == o("w^w*2+1")
    assert h(o("3"), o("4")) == o("6")
    assert h(o("w"), o("w")) == o("w")
    assert h(o("w+1"), o("w")) == o("w*2")
    assert h(o("w^2"), o("w*2")) == o("w^2")
    assert h(o("w^2+1"), o("w*2")) == o("w^2+w*2")
    assert h(o("w^2*3"), o("w^3")) == o("w^3")
    assert h(ONE, ONE) == ONE


def test_pm_fixtures():
    assert pm(o("5")) == o("4")
    assert pm(o("w")) == o("w")
    assert pm(o("w^w")) == o("w^w")
    assert pm(o("w+3")) == o("w+3")
    with pytest.raises(ValueError):
        pm(ZERO)


def test_hat_and_hstar_fixtures():
    assert hstar(o("w")) == o("w")
    assert hstar(o("w+1")) == o("w^2")
    assert hstar(o("3")) == o("w")
    assert hstar(o("w^2")) == o("w^2")
    assert hstar(o("w*2")) == o("w^2")


def test_odot_fixtures():
    assert odot(o("w"), o("w")) == o("w^2")
    assert odot(o("w"), o("w+1")) == o("w^2+w")
    assert odot(o("w"), ZERO) == ZERO
    assert odot(ONE, o("5")) == o("5")
    assert odot(o("w^2"), o("w*2+3")) == o("w^3*2+w^2*3")
    with pytest.raises(UnsupportedComputation):
        odot(o("w*2"), o("w"))
    with pytest.raises(UnsupportedComputation):
        odot(o("3"), o("w"))


# --- algebraic laws ----------------------------------------------------------


def _ordinals(depth=2):
    return st.builds(
        lambda seed: random_ordinal(random.Random(seed), depth),
        st.integers(min_value=0, max_value=10**9),
    )


@settings(max_examples=150, deadline=None)
@given(_ordinals(), _ordinals(), _ordinals())
def test_add_mul_laws(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))  # left distributivity
    assert add(a, ZERO) == a and add(ZERO, a) == a
    assert mul(a, ONE) == a and mul(ONE, a) == a
    assert mul(a, ZERO) == ZERO and mul(ZERO, a) == ZERO


@settings(max_examples=150, deadline=None)
@given(_ordinals(), _ordinals(), _ordinals())
def test_natural_operation_laws(a, b, c):
    assert nat_sum(a, b) == nat_sum(b, a)
    assert nat_prod(a, b) == nat_prod(b, a)
    assert nat_sum(nat_sum(a, b), c) == nat_sum(a, nat_sum(b, c))
    assert nat_prod(nat_prod(a, b), c) == nat_prod(a, nat_prod(b, c))
    assert nat_prod(a, nat_sum(b, c)) == nat_sum(nat_prod(a, b), nat_prod(a, c))
    # natural operations dominate the ordinary ones
    assert cmp(add(a, b), nat_sum(a, b)) <= 0
    assert cmp(mul(a, b), nat_prod(a, b)) <= 0


@settings(max_examples=150, deadline=None)
@given(_ordinals(), _ordinals())
def test_order_compatibility(a, b):
    s = nat_sum(a, b)
    assert cmp(a, s) <= 0 and cmp(b, s) <= 0
    if not a.is_zero:
        assert cmp(b, add(b, a)) < 0
    assert left_subtract(a, add(a, b)) == b


@settings(max_examples=150, deadline=None)
@given(_ordinals())
def test_two_pow_decompose_identity(a):
    q, n = decompose_omega(a)
    assert add(mul(OMEGA, q), Ordinal.from_nat(n)) == a
    if n <= 64:
        assert two_pow(a) == mul(omega_pow(q), Ordinal.from_nat(2**n))


@settings(max_examples=150, deadline=None)
@given(_ordinals(), _ordinals())
def test_hat_nat_sum_laws(a, b):
    h = hat_nat_sum(a, b)
    assert h == hat_nat_sum(b, a)
    if a.is_zero or b.is_zero:
        assert h == ZERO
    else:
        # dominated by the natural sum, dominates each summand's pm
        assert cmp(h, nat_sum(a, b)) <= 0
        assert cmp(h, ZERO) > 0


# --- the one-pass natural operations against their former spellings ---------


def _sorted_cnf(terms):
    """The ordinal summing w^e*c over `terms`, through the validating
    constructor."""
    acc = {}
    for e, c in terms:
        acc[e] = acc.get(e, 0) + c
    exps = sorted(acc, key=cmp_to_key(cmp), reverse=True)
    return Ordinal(tuple((e, acc[e]) for e in exps))


def _ref_nat_prod(a, b):
    """Natural product by accumulating every term product in a dict keyed
    by exponent and sorting the exponents."""
    return _sorted_cnf(
        (nat_sum(e, f), c * d) for e, c in a.terms for f, d in b.terms
    )


def _ref_hat_nat_sum(a, b):
    """`hat_nat_sum` by filtering the merged sum, then adding w^cut."""
    if a.is_zero or b.is_zero:
        return ZERO
    if a.is_successor and b.is_successor:
        return add(nat_sum(a.pred(), b.pred()), ONE)
    parts, cut = [], None
    for x in (a, b):
        if x.is_successor:
            parts.append(x.pred())
        else:
            e, c = x.terms[-1]
            parts.append(Ordinal(x.terms[:-1] + (((e, c - 1),) if c > 1 else ())))
            if cut is None or cmp(e, cut) > 0:
                cut = e
    merged = nat_sum(parts[0], parts[1])
    kept = Ordinal(tuple(t for t in merged.terms if cmp(t[0], cut) >= 0))
    return add(kept, omega_pow(cut))


def _ref_two_pow(a):
    """2^a = w^q * 2^n, multiplied out by `mul`."""
    q, n = decompose_omega(a)
    if q.is_zero:
        return Ordinal.from_nat(2**n)
    return mul(omega_pow(q), Ordinal.from_nat(2**n))


# nested normal forms over few small exponents, so that the rows of a
# natural product often meet at one exponent
_nested = st.recursive(
    st.integers(min_value=0, max_value=3).map(Ordinal.from_nat),
    lambda inner: st.lists(
        st.tuples(inner, st.integers(min_value=1, max_value=4)), max_size=4
    ).map(_sorted_cnf),
    max_leaves=10,
)
_one_term = st.builds(omega_pow, _nested, st.integers(min_value=1, max_value=4))
_cnf_ordinals = st.one_of(st.just(ZERO), _one_term, _nested)


@settings(max_examples=300, deadline=None)
@given(_cnf_ordinals, _cnf_ordinals)
@example(o("w^2"), o("w^3+w^2*2+w+4"))  # one term times many
@example(o("w^w*3+w^2+5"), o("w"))  # many terms times one
@example(o("w^2+w"), o("w+1"))  # w^(2+0) and w^(1+1) meet across rows
@example(o("w^w+w^2+w"), o("w^w+w^2+w"))  # every row meets another
@example(ZERO, o("w^2+1"))
@example(o("w+3"), ZERO)
@example(o("w^2+1"), o("w^2"))  # a limit and a successor
@example(o("w^2*2"), o("w*3"))  # the cut meets a kept exponent
def test_one_pass_natural_operations_match_their_references(a, b):
    assert nat_prod(a, b) == _ref_nat_prod(a, b)
    assert hat_nat_sum(a, b) == _ref_hat_nat_sum(a, b)
    for x in (a, b):
        if decompose_omega(x)[1] <= 64:
            assert two_pow(x) == _ref_two_pow(x)


def _revalidated(a: Ordinal) -> Ordinal:
    """`a` rebuilt through the validating constructor, exponents first."""
    return Ordinal(tuple((_revalidated(e), c) for e, c in a.terms))


@given(
    _ordinals(),
    _ordinals(),
    st.lists(_ordinals(), min_size=3, max_size=12),
    st.integers(min_value=0, max_value=10**30),
)
def test_arithmetic_results_are_in_cantor_normal_form(a, b, many, n):
    # every result passes the validating constructor, exponents included:
    # the arithmetic builds its results with `_cnf`, which relies on this
    lo, hi = sorted((a, b), key=cmp_to_key(cmp))
    results = [
        Ordinal.from_nat(n),
        omega_pow(a, n + 1),
        add(a, b),
        add(*many),
        left_subtract(lo, hi),
        left_subtract(a, add(a, b)),
        mul(a, b),
        nat_sum(a, b),
        nat_sum(*many),
        nat_prod(a, b),
        decompose_omega(a)[0],
        two_pow(a),
        hat_nat_sum(a, b),  # `_dec_last` and `pred` at a limit or successor
        odot(omega_pow(a), b),
        hstar(a),
    ]
    if not a.is_zero:
        results.append(pm(a))
    if a.is_successor:
        results.append(a.pred())
    for r in results:
        assert _revalidated(r) == r
    # the many-argument sums are the two-argument ones, folded
    assert nat_sum(*many) == reduce(nat_sum, many)
    assert add(*many) == reduce(add, many)


def test_the_public_constructor_validates():
    two = o("2")
    for bad in (
        ((ONE, 1), (OMEGA, 1)),  # increasing exponents
        ((OMEGA, 2), (OMEGA, 1)),  # a repeated exponent
        ((two, 1), (ONE, 0)),  # a coefficient of 0
        ((ONE, -1),),
        ((1, 1),),  # an exponent that is not an Ordinal
        ((two, 1), ("w", 1)),
    ):
        with pytest.raises(ValueError):
            Ordinal(bad)
    assert Ordinal(((two, 3), (ONE, 1), (ZERO, 2))) == o("w^2*3+w+2")
    # omega_pow builds its result unchecked, so it checks its arguments
    for e, c in ((2, 1), ("w", 1), (ONE, 0)):
        with pytest.raises(ValueError):
            omega_pow(e, c)


def test_parse_errors():
    # only the ASCII digits 0-9 are digits
    for bad in ("", "w^", "w+", "+w", "w**2", "(w", "w)", "²", "w^²", "w*٣"):
        with pytest.raises(ParseError):
            o(bad)


def test_unclosed_exponent_is_a_parse_error_at_its_end():
    with pytest.raises(ParseError) as ei:
        o("w^(2")
    assert str(ei.value) == "parse error at position 4: expected ')', found 'end of input'"


def test_zero_coefficients_are_parse_errors():
    # w*0 is not a CNF term; the error points at the coefficient
    for bad, pos in (("w*0", 2), ("w^2 * 0", 6), ("w^(w*0)", 5), ("w+w*00", 4)):
        with pytest.raises(ParseError) as ei:
            o(bad)
        assert ei.value.pos == pos, bad
        assert ei.value.expected == "a coefficient of at least 1"
    assert o("w*1") == OMEGA and o("w*01") == OMEGA


def test_literals_and_sums_past_the_print_limit_are_parse_errors():
    n = "9" * 4300  # the longest literal that converts
    assert o(n).nat == 10**4300 - 1
    assert str(o(f"w^{n}*{n}")) == f"w^{n}*{n}"
    for bad in (n + "9", f"w*{n}9", f"w^{n}9", f"w^(w*{n}9)"):
        with pytest.raises(ParseError):
            o(bad)
    # each literal converts, but their sum does not print
    for bad in (f"w*{n}+w*{n}", f"w^(w*{n}+w*{n})", f"{n}+{n}", f"w*{n}+w*1"):
        with pytest.raises(ParseError):
            o(bad)
    # a sum that merges no coefficients keeps the literals as they were read
    assert o(f"w*{n}+1") == add(omega_pow(ONE, int(n)), ONE)
    assert o(f"1+w*{n}") == omega_pow(ONE, int(n))
    m = "4" * 4299
    assert o(f"w*{m}+w*{m}") == omega_pow(ONE, 2 * int(m))
