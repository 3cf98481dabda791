"""Ordinal arithmetic: frozen fixtures plus algebraic laws."""

import copy
import pickle
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
from wqometer.ordinal import _NAT_CAP, _printable

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


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: Ordinal.from_nat(-1), "not negative"),
        (lambda: OMEGA.nat, "w is infinite"),
        (lambda: ZERO.leading_exponent, "0 has no leading exponent"),
        (lambda: o("w*2").pred(), r"w\*2 is not a successor"),
    ],
    ids=["from-nat", "nat", "leading-exponent", "pred"],
)
def test_a_partial_view_refuses_outside_its_domain(call, match):
    with pytest.raises(ValueError, match=match):
        call()


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


def _ref_add(*summands):
    """The ordinal sum in one left-to-right pass: each summand pops the
    trailing terms its leading exponent absorbs, merges an equal exponent
    and appends the rest."""
    out = list(summands[0].terms)
    for x in summands[1:]:
        if not x.terms:
            continue
        lead, c = x.terms[0]
        while out and (k := cmp(out[-1][0], lead)) < 0:
            out.pop()
        if out and k == 0:
            out[-1] = (lead, out[-1][1] + c)
            out.extend(x.terms[1:])
        else:
            out.extend(x.terms)
    return Ordinal(tuple(out))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_cnf_ordinals, min_size=1, max_size=6),
    st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=80),
)
@example([o("w^2+w*3+1"), o("w*2+5"), o("w^2")], [0, 1, 2, 1, 0, 1])
@example([o("w^w"), o("w+1"), ZERO], [1, 2, 1, 0, 1, 2])  # 0 and lost parts
def test_add_matches_the_left_to_right_reference(pool, picks):
    # the summands come from a small pool, so that the same exponent
    # objects recur, as the parts of a shared ++ chain do
    summands = [pool[i % len(pool)] for i in picks]
    total = add(*summands)
    assert total == _ref_add(*summands)
    assert _revalidated(total) == total


# --- comparison, equality, hashing and printing against recursive references --


def _ref_cmp(a, b):
    """The lexicographic order of normal forms, one frame per level."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        k = _ref_cmp(ea, eb)
        if k:
            return k
        if ca != cb:
            return -1 if ca < cb else 1
    return (len(a.terms) > len(b.terms)) - (len(a.terms) < len(b.terms))


def _ref_key(a):
    """The normal form as nested tuples, which hash as `a` does: each
    exponent's hash is that of its own terms tuple."""
    return tuple((_ref_key(e), c) for e, c in a.terms)


def _ref_str(a):
    if not a.terms:
        return "0"
    return "+".join(_ref_term_str(e, c) for e, c in a.terms)


def _ref_term_str(e, c):
    if not e.terms:
        return str(c)
    s = "w"
    if _ref_cmp(e, ONE):
        if e.is_finite:
            s += f"^{e.nat}"
        elif not _ref_cmp(e, OMEGA):
            s += "^w"
        else:
            s += f"^({_ref_str(e)})"
    if c > 1:
        s += f"*{c}"
    return s


def _check_against_references(a, b):
    k = _ref_cmp(a, b)
    assert cmp(a, b) == k and cmp(b, a) == -k
    assert (a == b) == (k == 0) and (a != b) == (k != 0)
    for x in (a, b):
        # a copy made of new objects, with no hash cached anywhere in it
        copy = _revalidated(x)
        assert copy is not x and copy == x and cmp(copy, x) == 0
        assert hash(copy) == hash(x) == hash(x.terms) == hash(_ref_key(x))
        assert str(copy) == str(x) == _ref_str(x)
        assert o(str(x)) == x


@settings(max_examples=300, deadline=None)
@given(_cnf_ordinals, _cnf_ordinals)
@example(o("w^w"), o("w^2"))  # one term each, different exponents
@example(o("w^(w+1)*2+w"), o("w^(w+1)*2+w+1"))  # a proper prefix
@example(o("w^(w^2*3)"), o("w^(w^2*4)"))  # a coefficient inside an exponent
def test_comparison_hash_and_text_match_recursive_references(a, b):
    _check_against_references(a, b)


def test_equality_agrees_with_cmp_whichever_hashes_are_cached():
    # `==` rejects on the term count and on two cached hashes before it
    # compares; pairs of equal and unequal length, equal ones as distinct
    # objects, each fresh and then with either side's hash cached
    rng = random.Random(33)
    seen = set()
    for _ in range(1500):
        a = random_ordinal(rng, 2, max_terms=2)
        b = a if rng.random() < 0.3 else random_ordinal(rng, 2, max_terms=2)
        k = cmp(a, b)
        seen.add((len(a.terms) == len(b.terms), k == 0))
        for hashed in ((), (0,), (1,), (0, 1)):
            pair = _revalidated(a), _revalidated(b)
            for i in hashed:
                hash(pair[i])
            x, y = pair
            assert (x == y) == (y == x) == (k == 0) and (x != y) == (k != 0)
    assert seen == {(True, True), (True, False), (False, False)}


def _tower(base: int, levels) -> Ordinal:
    """w^(...(w^base*c1 + t1)...)*cn + tn, built from fresh objects."""
    x = Ordinal.from_nat(base)
    for c, tail in levels:
        x = add(omega_pow(x, c), Ordinal.from_nat(tail))
    return x


_levels = st.lists(
    st.tuples(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2)),
    max_size=100,
)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=3), _levels, st.data())
def test_towers_match_recursive_references(base, levels, data):
    # the second tower is built again from the same levels, with at most
    # one of them changed, so that the comparison descends far
    other = list(levels)
    if other and data.draw(st.booleans()):
        i = data.draw(st.integers(min_value=0, max_value=len(other) - 1))
        other[i] = data.draw(_levels.filter(bool))[0]
    _check_against_references(_tower(base, levels), _tower(base, other))


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
    # a sum is checked where it ends, so a large partial sum may be absorbed
    assert o(f"w*{n}+w*{n}+w^2") == o("w^2")
    m = "4" * 4299
    assert o(f"w*{m}+w*{m}") == omega_pow(ONE, 2 * int(m))


# --- the mark of a value found to print ---------------------------------------


def test_the_printable_mark_only_skips_what_was_checked():
    big = _NAT_CAP - 1  # the largest coefficient that prints
    e = omega_pow(ONE, big)  # w*big
    a, b = omega_pow(e, big), omega_pow(e)  # w^(w*big)*big and w^(w*big)
    assert _printable(a) and _printable(b) and a._ok and b._ok and e._ok
    # a result built from marked ordinals is checked afresh: a coefficient
    # at the limit is refused, at the top level and in a new exponent
    top = (nat_prod(a, o("2")), mul(a, o("2")), add(a, a))
    inner = (nat_prod(b, b), mul(b, b), omega_pow(add(e, e)))
    for x in top + inner:
        assert not _printable(x)
    # a check that fails marks nothing, not even the exponents it passed
    ok, bad = o("w^2*3"), omega_pow(ONE, _NAT_CAP)
    x = add(omega_pow(ok), omega_pow(bad))
    assert not _printable(x) and not _printable(x)
    assert not (x._ok or ok._ok or bad._ok)
    # equality, hashing, pickling and copying ignore the mark
    fresh = o("w^(w^2*3)*5+w*7")
    marked = o("w^(w^2*3)*5+w*7")
    assert _printable(marked) and marked._ok and not fresh._ok
    assert marked == fresh and hash(marked) == hash(fresh)
    for twin in (pickle.loads(pickle.dumps(marked)), copy.copy(marked), copy.deepcopy(marked)):
        assert twin == marked and hash(twin) == hash(marked) and not twin._ok
