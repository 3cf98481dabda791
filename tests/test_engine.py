"""Invariant engine: frozen fixtures for every rule family, bounds,
families, and the report plumbing."""

import json
import random

import pytest

from wqometer import (
    OMEGA,
    CartProd,
    DisjUnion,
    Gamma,
    HypothesisNotMet,
    LexProd,
    LexSum,
    Multisets,
    Ord,
    Ordinal,
    Pf,
    Phi,
    Sim,
    SimExt,
    UnsupportedComputation,
    Words,
    add,
    cmp,
    invariants,
    nat_prod,
    nat_sum,
    parse_expr,
    parse_ordinal,
    pf_bounds,
    print_expr,
    two_pow,
    weak_mot,
)
from wqometer import engine, normalize_elementary, rewrite
from wqometer.engine import _SUMS, _evaluate, _lift
from wqometer.ordinal import ONE, _printable, hat_nat_sum, hstar, omega_pow, pm

from genlib import random_any_expr, random_elementary, random_ordinal

o = parse_ordinal


def rep(text):
    return invariants(parse_expr(text))


def exact(result):
    assert result.kind == "exact", result
    return result.value


# --- the example table (the twelve frozen values) ---------------------------


def test_example_table_base_orders():
    for text in ("(w+w)|(w+w)", "(w|w)+(w|w)"):
        r = rep(text)
        assert str(exact(r.mot)) == "w*4"
        assert str(exact(r.height)) == "w*2"
        assert str(exact(r.width)) == "2"


def test_example_table_powersets():
    r = rep("Pf((w+w)|(w+w))")
    assert str(exact(r.mot)) == "w^2*4"
    assert str(exact(r.height)) == "w*3"
    assert str(exact(r.width)) == "w*3"

    r = rep("Pf((w|w)+(w|w))")
    assert str(exact(r.mot)) == "w^2*2"
    assert str(exact(r.height)) == "w*2"
    assert str(exact(r.width)) == "w"


# --- exact elementary path ----------------------------------------------------


def test_elementary_fixtures():
    r = rep("Pf(o(w^w))")
    assert exact(r.mot) == o("w^w")
    assert exact(r.height) == o("w^w")
    assert exact(r.width) == o("1")
    # Pf over an ordinal rewrites away, so the weakened m.o.t. is the
    # leaf's (consistent with h(Pf(Pf(a))) = h(Pf(a)) = a)
    assert r.weak_mot == o("w^w")

    r = rep("o(w^w)|o(w^(w^2))")
    assert exact(r.mot) == o("w^(w^2)+w^w")
    assert exact(r.height) == o("w^(w^2)")
    assert exact(r.width) == o("2")
    assert r.weak_mot == o("w^(w^2)")

    r = rep("o(w^w)*o(w^w)")
    assert exact(r.mot) == o("w^(w*2)")
    assert exact(r.height) == o("w^w")  # hat-sum of two limits
    assert exact(r.width) == o("w^(w*2)")

    r = rep("M(o(w^w))")
    assert exact(r.mot) == o("w^(w^w)")
    assert exact(r.height) == o("w^w")
    assert exact(r.width) == o("w^(w^w)")


def test_words_tower_fixture():
    r = rep("Pf(o(w^w)^<w)")
    tower = o("w^(w^(w^(w^w)))")
    assert exact(r.mot) == tower
    assert exact(r.width) == tower
    assert exact(r.height) == o("w^w")
    assert r.weak_mot == o("w^(w^w)")

    r = rep("Pf(Pf(o(w^w)^<w))")
    assert exact(r.height) == o("w^(w^w)")  # 2^(w^w)


def test_weak_mot_fixtures():
    assert weak_mot(parse_expr("o(w^w)")) == o("w^w")
    assert weak_mot(parse_expr("o(w^w)^<w")) == o("w^w")
    assert weak_mot(parse_expr("Pf(o(w^(w^2))^<w)")) == o("w^(w^(w^2))")
    assert weak_mot(parse_expr("M(o(w^w))|o(w^(w^2))")) == o("w^(w^2)")
    with pytest.raises(UnsupportedComputation):
        weak_mot(parse_expr("G(3)"))
    with pytest.raises(UnsupportedComputation):
        weak_mot(parse_expr("w"))


def test_weak_mot_always_mult_indecomposable():
    rng = random.Random(4242)
    for _ in range(150):
        e = random_elementary(rng, rng.randint(1, 10))
        assert weak_mot(e).is_multiplicatively_indecomposable


def _nf_eval(e):
    """Exact (o, h, w, weakened o) of a *normal* elementary expression, one
    rule per constructor: the reference for reading the values off the
    unnormalised term.  The weakened o stays multiplicatively
    indecomposable at every step, which makes the powerset height sound."""
    if isinstance(e, Ord):
        a = e.value
        return a, a, ONE, a
    if isinstance(e, (DisjUnion, CartProd)):
        o1, h1, w1, s1 = _nf_eval(e.left)
        o2, h2, w2, s2 = _nf_eval(e.right)
        if isinstance(e, DisjUnion):
            return nat_sum(o1, o2), max(h1, h2), nat_sum(w1, w2), max(s1, s2)
        o = nat_prod(o1, o2)
        return o, hat_nat_sum(h1, h2), o, max(s1, s2)
    o1, h1, _w1, s1 = _nf_eval(e.arg)
    if isinstance(e, Words):
        o = omega_pow(omega_pow(pm(o1)))
        return o, hstar(h1), o, s1
    if isinstance(e, Multisets):
        o = omega_pow(o1)
        return o, hstar(h1), o, s1
    assert isinstance(e, Pf) and s1.is_multiplicatively_indecomposable
    o = two_pow(o1)
    return o, s1, o, two_pow(s1)


def test_elementary_values_match_the_normal_form_reference():
    # o, h, w and the weakened o, read off the term, equal those of its
    # normal form; `invariants` reports the same values
    rng = random.Random(1101)
    for i in range(1500):
        e = random_elementary(rng, rng.randint(1, 120))
        (mot, height, width), wm = _evaluate(e, [])
        got = (mot.value, height.value, width.value, wm)
        assert got == _nf_eval(normalize_elementary(e)[0]), print_expr(e)
        if i % 10 == 0:
            r = invariants(e)
            assert (exact(r.mot), exact(r.height), exact(r.width), r.weak_mot) == got


def test_elementary_evaluation_never_normalises(monkeypatch):
    calls = []

    def counting(name):
        real = getattr(rewrite, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("normalize_elementary", "_raw_match"):
        monkeypatch.setattr(rewrite, name, counting(name))
    assert not hasattr(engine, "normalize_elementary")
    rng = random.Random(7)
    for _ in range(50):
        e = random_elementary(rng, rng.randint(1, 40))
        invariants(e)
        weak_mot(e)
        invariants(CartProd(e, Gamma(2)))  # an elementary subterm
    # the product of 40 unions has 2^40 components in its normal form
    union = DisjUnion(Ord(o("w^w")), Ord(o("w^(w^2)")))
    p40 = union
    for _ in range(39):
        p40 = CartProd(p40, union)
    e = Pf(Multisets(p40))
    r = invariants(e)
    assert exact(r.height) == o("w^(w^2)")  # the largest leaf
    assert r.weak_mot == weak_mot(e) == o("w^(w^(w^2))")
    assert calls == []


def test_weak_mot_agrees_with_invariants():
    # both read the term after `eliminate_pf`, so an expression that only
    # becomes elementary there (o(w^w)++o(w^(w^2)) fuses into one leaf)
    # has a weakened o in both or in neither
    assert weak_mot(parse_expr("o(w^w)++o(w^(w^2))")) == o("w^(w^2)")
    rng = random.Random(3)
    seen = 0
    for _ in range(1500):
        e = random_any_expr(rng, rng.randint(0, 4))
        want = invariants(e).weak_mot
        if want is None:
            with pytest.raises(UnsupportedComputation) as ei:
                weak_mot(e)
            assert ei.value.reason == "weak-mot-requires-elementary"
        else:
            assert weak_mot(e) == want
            seen += 1
    assert seen >= 200, seen


def test_elementary_reports_equal_those_of_the_eliminated_term():
    # `invariants` reads an elementary term as parsed; the reference
    # evaluates its elimination, noting the simplification when elimination
    # changes the term
    rng = random.Random(2020)
    simplified = 0
    for _ in range(3000):
        e = random_elementary(rng, rng.randint(1, 40))
        e2 = rewrite.eliminate_pf(e)
        notes = ["simplification-applied"] if e2 is not e else []
        (mot, height, width), wm = _evaluate(e2, notes)
        want = engine.InvariantReport(mot, height, width, wm, tuple(notes))
        assert json.dumps(invariants(e).to_json()) == json.dumps(want.to_json()), print_expr(e)
        simplified += e2 is not e
    assert 500 <= simplified <= 2500, simplified


def test_powerset_sandwich_coherence():
    # o(Pf(E)) = 2^o(E) whenever w(E) = o(E) (unions and bare ordinals are
    # the only elementary shapes that miss the hypothesis), and the exact
    # values always sit inside the bound table's sound intervals
    rng = random.Random(515)
    for _ in range(60):
        e = random_elementary(rng, rng.randint(1, 6))
        base = invariants(e)
        full = invariants(Pf(e))
        assert full.mot.kind == "exact"
        if base.width.value == base.mot.value:
            assert full.mot.value == two_pow(base.mot.value)
            assert full.width.value == full.mot.value
        bounds = pf_bounds(e)
        assert bounds.mot.admits(full.mot.value)
        assert bounds.height.admits(full.height.value)
        assert bounds.width.admits(full.width.value)


@pytest.mark.parametrize(
    "text, notes",
    [
        ("Pf+(w^<w)++M(w)", ("nonempty-powerset: derived from Pf minus its bottom",
                             "omega-elementary-height", "words-width-equals-mot",
                             "powerset-bounds", "width-cap: w <= 2^o = w^(w^(w^w))",
                             "multisets-width-equals-mot")),
        ("Sim(w)*M(w)", ("family:sim", "omega-elementary-height", "multisets-width-equals-mot",
                         "product-width: lower bound w(B) * o(A)")),
        ("1*(w^<w)|Phi(2)", ("simplification-applied", "omega-elementary-height",
                             "words-width-equals-mot", "family:phi")),
        ("Pf(Sim(w))++Pf(G(2))", ("family:sim-powerset", "omega-elementary-height",
                                  "powerset-bounds", "width-cap: w <= 2^o = 4")),
        ("Pf(SimExt(w^w,2))|w^<w", ("family:sim-extended-powerset", "elementary-exact",
                                    "product-width: lower bound w(B) * o(A)", "powerset-bounds",
                                    "width-cap: w <= 2^o = w^(w^(w^(w^(w^w)))*2)*4",
                                    "powerset-height: family lower bound 2^a * m",
                                    "omega-elementary-height", "words-width-equals-mot")),
        ("SimExt(w,1).M(G(2))", ("family:sim-extended",)),
    ],
)
def test_notes_come_in_the_order_the_rules_fire(text, notes):
    # a rule that reads other nodes notes itself before their notes when
    # it applies before reading them (a family member desugared, Pf+ read
    # off Pf), and after them otherwise
    assert rep(text).notes == notes


# --- omega-elementary height --------------------------------------------------


def test_omega_elementary_height():
    for text in ("M(o(w))", "Pf(w^<w)", "M(M(w))", "Pf(w|w)*M(w)"):
        r = rep(text)
        assert exact(r.height) == o("w"), text
        assert "omega-elementary-height" in r.notes

    r = rep("M(o(w))")
    assert exact(r.mot) == o("w^w")
    assert exact(r.width) == o("w^w")


def _subterms(e):
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        stack.extend(e.children())


def _leaves_to_w(e):
    if isinstance(e, Ord):
        return Ord(OMEGA)
    return e.with_children(tuple(_leaves_to_w(k) for k in e.children()))


def test_general_rules_give_omega_elementary_terms_height_w():
    # no rule pins the height: the general rules give h = w at every
    # omega-elementary node, Pf ones included (the table's [1+w, 2^w])
    rng = random.Random(31)
    seen = 0
    for _ in range(600):
        e = _leaves_to_w(random_any_expr(rng, depth=rng.randint(1, 4)))
        for sub in _subterms(e):
            if sub.fragment != "omega":
                continue
            notes = []
            (_o, h, _w), _wm = _evaluate(sub, notes)
            assert exact(h) == OMEGA, sub
            assert "omega-elementary-height" in notes
            r = invariants(sub)
            assert exact(r.height) == OMEGA
            assert "omega-elementary-height" in r.notes
            seen += 1
    assert seen >= 500, seen


# --- general compositional rules ----------------------------------------------


def test_general_ordinal_and_gamma():
    r = rep("o(w^2+3)")
    assert exact(r.mot) == o("w^2+3")
    assert exact(r.height) == o("w^2+3")
    assert exact(r.width) == o("1")

    r = rep("0")
    assert exact(r.mot) == o("0")
    assert exact(r.width) == o("0")

    r = rep("G(4)")
    assert exact(r.mot) == o("4")
    assert exact(r.height) == o("1")
    assert exact(r.width) == o("4")


def test_general_sums():
    r = rep("G(2)|o(w)")
    assert exact(r.mot) == o("w+2")
    assert exact(r.height) == o("w")
    assert exact(r.width) == o("3")

    r = rep("o(w)++G(2)")
    assert exact(r.mot) == o("w+2")
    assert exact(r.height) == o("w+1")
    assert exact(r.width) == o("2")


def test_cartesian_product_general():
    r = rep("o(w)*o(w*2)")
    assert exact(r.mot) == o("w^2*2")
    assert exact(r.height) == o("w*2")
    assert exact(r.width) == o("w*2")  # w(w x alpha) = alpha
    r = rep("o(w*2)*o(w*2)")
    assert exact(r.width) == o("w*3")  # catalogued fixture
    r = rep("G(2)*3")
    assert exact(r.mot) == o("6")
    assert exact(r.height) == o("3")  # 1 hat-sum 3
    assert r.width.kind == "unsupported"
    assert r.width.reason == "width-of-product-non-functional"


def test_only_the_catalogued_pair_takes_the_catalogued_width():
    note = "product-width: catalogued value"
    assert note in rep("o(w*2)*o(w*2)").notes
    for text in ("o(w*2)*o(w*3)", "o(w*3)*o(w*2)"):
        r = rep(text)
        assert r.width.reason == "width-of-product-non-functional", text
        assert note not in r.notes, text


def test_product_width_lower_bound():
    r = rep("M(o(w))*G(3)")
    assert exact(r.mot) == o("w^w*3")
    assert r.width.kind == "lower"
    assert r.width.lower == o("w^w*3")  # w(M(w)) * o(G(3))


def test_product_units():
    r = rep("o(w^2)*1")
    assert exact(r.mot) == o("w^2")
    assert exact(r.width) == o("1")
    r = rep("0*G(3)")
    assert exact(r.mot) == o("0")
    r = rep("o(w^2).1")
    assert exact(r.mot) == o("w^2")


@pytest.mark.parametrize(
    "text", ["M(G(2).(0*w))", "(G(2).(0*w))^<w", "Pf(G(2).(0*w))", "Pf(Mn(0,3))"]
)
def test_constructors_over_an_empty_order_give_a_singleton(text):
    # G(2).(0*w) is empty although no factor of the outer product is a
    # literal 0 and its o is not computed by the lex-product rule
    r = rep(text)
    assert (exact(r.mot), exact(r.height), exact(r.width)) == (o("1"), o("1"), o("1"))


@pytest.mark.parametrize("text", ["o(3)*(0*w)", "(0*w)*o(3)", "G(2).(0*w)", "(0*w).G(2)"])
def test_products_with_an_empty_factor_are_empty(text):
    r = rep(text)
    assert (exact(r.mot), exact(r.height), exact(r.width)) == (o("0"), o("0"), o("0"))
    assert r.notes == ("simplification-applied",)


def test_lex_product():
    r = rep("3.w")
    assert exact(r.mot) == o("w")
    assert exact(r.height) == o("w")
    assert exact(r.width) == o("1")

    r = rep("o(w).o(w^2)")
    assert exact(r.mot) == o("w^3")
    assert exact(r.height) == o("w^3")
    assert exact(r.width) == o("1")

    # chain . chain fuses into a single chain, so no hypothesis is needed
    r = rep("o(w).3")
    assert exact(r.mot) == o("w*3")
    assert exact(r.height) == o("w*3")
    assert exact(r.width) == o("1")

    # o(B) successor with a non-chain left factor: the m.o.t. rule's
    # hypothesis fails while h and w still come out exact
    r = rep("w^<w.3")
    assert r.mot.kind == "unsupported"
    assert r.mot.reason == "hypothesis-not-met:lex-product-mot:o(B) is a limit ordinal"
    assert exact(r.height) == o("w*3")
    assert exact(r.width) == o("w^(w^w)")

    # width via the unrolled-sum product
    r = rep("(G(2)|G(2)).o(w)")
    assert r.width.kind == "unsupported"  # 4 is not additively indecomposable
    assert r.width.reason == "unsupported-odot"


def test_words_general():
    r = rep("G(2)^<w")
    assert exact(r.mot) == o("w^w")
    assert exact(r.height) == o("w")
    assert exact(r.width) == o("w^w")

    r = rep("2^<w")
    assert exact(r.mot) == o("w^w")  # w^(w^pm(2)) = w^(w^1)
    assert exact(r.height) == o("w")
    assert exact(r.width) == o("w^w")

    r = rep("1^<w")
    assert exact(r.mot) == o("w")
    assert exact(r.height) == o("w")
    assert exact(r.width) == o("1")

    r = rep("0^<w")
    assert exact(r.mot) == o("1")

    r = rep("o(w+1)^<w")
    assert exact(r.mot) == o("w^(w^(w+1))")
    assert exact(r.height) == o("w^2")  # hstar(w+1)


def test_multisets_general():
    r = rep("M(G(2))")
    assert exact(r.mot) == o("w^2")
    assert exact(r.height) == o("w")
    assert r.width.kind == "unsupported"
    assert r.width.reason.startswith("hypothesis-not-met:multisets-width")

    r = rep("M(o(w^2))")
    assert exact(r.mot) == o("w^(w^2)")
    assert exact(r.height) == o("w^2")
    assert exact(r.width) == o("w^(w^2)")

    r = rep("M(1)")
    assert exact(r.mot) == o("w")
    assert exact(r.width) == o("1")

    r = rep("M(0)")
    assert exact(r.mot) == o("1")


def test_fixed_size_multisets():
    r = rep("Mn(G(2), 0)")
    assert exact(r.mot) == o("1")
    r = rep("Mn(G(2), 2)")
    assert r.mot.kind == "unsupported"
    assert r.mot.reason == "fixed-size-multisets-no-rule"
    # an empty order has no multiset of size 3
    r = rep("Mn(0,3)")
    assert (exact(r.mot), exact(r.height), exact(r.width)) == (o("0"), o("0"), o("0"))


def test_pf_general_bounds():
    r = rep("Pf(G(3))")
    assert r.mot.kind == "interval"
    assert (r.mot.lower, r.mot.upper) == (o("4"), o("8"))
    assert r.height.kind == "interval" and r.height.finite_multiple
    assert r.height.lower == o("2")
    assert r.width.kind == "lower" and r.width.lower == o("3")

    # powerset of a surviving product: bounds over exact parts
    r = rep("Pf(o(w)*o(w))")
    assert r.mot.kind == "interval"
    assert (r.mot.lower, r.mot.upper) == (o("w^2"), o("w^w"))
    assert exact(r.height) == o("w")  # [1+w, 2^w] collapses; omega-elementary too
    assert r.width.kind == "lower" and r.width.lower == o("w")


def test_pf_plus_general():
    r = rep("Pf+(G(2))")
    assert r.mot.kind == "interval"
    assert (r.mot.lower, r.mot.upper) == (o("2"), o("3"))
    assert r.height.kind == "interval" and r.height.finite_multiple
    assert r.height.lower == o("1")
    assert r.width.kind == "lower" and r.width.lower == o("2")

    r = rep("Pf+(0)")
    assert exact(r.mot) == o("0")


_LEX_MOT = "hypothesis-not-met:lex-product-mot:o(B) is a limit ordinal"


@pytest.mark.parametrize(
    "text, reasons",
    [
        # a union lifts its parts: `_lift` passes a part's reason on
        ("G(2)|Mn(G(2),3)", ["fixed-size-multisets-no-rule"] * 3),
        # Pf passes on the reason of w(A), and of o(A) through its bound row
        ("Pf(G(2)*G(3))", [None, None, "width-of-product-non-functional"]),
        ("Pf(G(2).o(w+1))", [_LEX_MOT, None, "unsupported-odot"]),
        # A.B passes on the reason of o(B) and that of either width
        ("G(2).(G(2).o(w+1))", [_LEX_MOT, None, "unsupported-odot"]),
        ("G(2).(G(2)*G(3))", [_LEX_MOT, None, "width-of-product-non-functional"]),
        # A x B passes on a factor's width or o reason as its width
        ("G(2)*(G(2).o(w+1))", [_LEX_MOT, None, "unsupported-odot"]),
        # words and multisets pass on the reason of o(A) as o and as w
        ("(G(2).o(w+1))^<w", [_LEX_MOT, None, _LEX_MOT]),
        ("M(G(2).o(w+1))", [_LEX_MOT, None, _LEX_MOT]),
    ],
)
def test_unsupported_parts_pass_their_reasons_on(text, reasons):
    r = rep(text)
    assert [x.reason for x in (r.mot, r.height, r.width)] == reasons


_MULTISETS_WIDTH = (
    "hypothesis-not-met:multisets-width:o(A) is additively indecomposable and infinite"
)


@pytest.mark.parametrize(
    "text, reasons",
    [
        # a rule that reads a component needs it exact ...
        (
            "G(2).Pf(G(2))",
            [
                "needs-exact-value:lex-product-mot",
                None,
                "needs-exact-value:lex-product-width",
            ],
        ),
        ("M(Pf(G(2)))", [None, None, "needs-exact-value:multisets-width"]),
        # ... and its value to meet the rule's hypothesis
        ("M(G(3))", [None, None, _MULTISETS_WIDTH]),
        ("G(2).3", [_LEX_MOT, None, "unsupported-odot"]),
    ],
)
def test_conditional_rules_name_why_they_cannot_read_a_part(text, reasons):
    r = rep(text)
    assert [x.reason for x in (r.mot, r.height, r.width)] == reasons


def test_report_json_schema():
    data = rep("Pf(G(2))").to_json()
    assert set(data) == {"mot", "height", "width", "weak_mot", "notes"}
    assert data["mot"]["kind"] == "interval"
    assert data["height"]["upper_modifier"] == "finite-multiple"
    assert data["width"]["kind"] == "lower"
    assert data["weak_mot"] is None

    data = rep("o(w^w)").to_json()
    assert data["mot"] == {"kind": "exact", "value": "w^w"}
    assert data["weak_mot"] == "w^w"

    data = rep("Mn(G(2), 2)").to_json()
    assert data["mot"] == {"kind": "unsupported", "reason": "fixed-size-multisets-no-rule"}


# --- powerset bound table ------------------------------------------------------


def test_pf_bounds_fixtures():
    r = pf_bounds(parse_expr("Phi(w^2)"))  # base height is w^2
    assert (r.height.lower, r.height.upper) == (o("w^2"), o("w^w"))
    assert not r.height.finite_multiple

    r = pf_bounds(parse_expr("o(w)"))
    assert r.mot.kind == "exact" and r.mot.value == o("w")
    assert r.height.kind == "exact" and r.height.value == o("w")

    r = pf_bounds(parse_expr("G(4)"))
    assert (r.mot.lower, r.mot.upper) == (o("5"), o("16"))
    assert r.width.lower == o("6")  # Sperner C(4,2)
    assert any(n.startswith("width-cap") for n in r.notes)

    r = pf_bounds(parse_expr("o(w+1)"))  # successor height -> finite multiple
    assert r.height.finite_multiple
    # 1+(w+1) = w+1 and 2^(w+1) = w*2
    assert (r.height.lower, r.height.upper) == (o("w+1"), o("w*2"))


# --- families -------------------------------------------------------------------


def test_phi_family():
    r = invariants(Phi(o("w^2+w")))
    assert exact(r.mot) == o("w^2+w")
    assert exact(r.width) == o("w^2+w")
    assert exact(r.height) == o("w^2")

    r = invariants(Phi(o("3")))
    assert exact(r.mot) == o("3")
    assert exact(r.height) == o("1")

    with pytest.raises(ValueError):
        Phi(o("0"))


def test_pf_phi_family():
    r = invariants(Pf(Phi(o("w"))))
    assert exact(r.mot) == o("w")
    assert exact(r.width) == o("w")
    assert exact(r.height) == o("w")  # interval [w, 2^w] collapses

    r = invariants(Pf(Phi(o("w^2"))))
    assert exact(r.mot) == o("w^w")
    assert exact(r.width) == o("w^w")
    assert (r.height.lower, r.height.upper) == (o("w^2"), o("w^w"))

    r = invariants(Pf(Phi(o("4"))))
    assert exact(r.mot) == o("16")
    assert exact(r.width) == o("6")

    # the engine dispatches Pf(Phi(a)) to the family values
    r = rep("Pf(Phi(w^2))")
    assert exact(r.mot) == o("w^w")
    assert exact(r.width) == o("w^w")


def test_sim_family():
    r = invariants(Sim(o("w^w")))
    assert exact(r.height) == o("w^w")
    assert exact(r.mot) == o("w^(w^(w^(w^w)))")
    assert weak_mot(Pf(Words(Ord(o("w^w"))))) == o("w^(w^w)")

    r = invariants(Sim(o("w")))
    assert exact(r.mot) == o("w")
    assert exact(r.width) == o("1")

    r = rep("Pf(Sim(w^w))")
    assert exact(r.height) == o("w^(w^w)")  # 2^(w^w)

    with pytest.raises(HypothesisNotMet):
        invariants(Sim(o("w^2")))
    with pytest.raises(HypothesisNotMet):
        invariants(Sim(o("w*2")))
    with pytest.raises(HypothesisNotMet):
        invariants(Sim(o("5")))


def test_sim_extended_family():
    r = invariants(SimExt(o("w^w"), 3))
    assert exact(r.height) == o("w^w+1")
    assert exact(r.mot) == o("w^(w^(w^(w^w)))*3+3")
    assert r.width.kind == "lower"

    r = rep("Pf(SimExt(w^w, 3))")
    assert r.height.kind == "lower"
    assert r.height.lower == o("w^(w^w)*3")  # 2^(w^w) * 3

    # SimExt(w, 1) is (w ++ 1) * G(1), whose factor G(1) is a unit
    r, want = invariants(SimExt(OMEGA, 1)), rep("w++1")
    assert (r.mot, r.height, r.width) == (want.mot, want.height, want.width)
    assert exact(r.width) == o("1")

    with pytest.raises(ValueError):
        SimExt(o("w^w"), 0)


# --- cross-cutting sanity --------------------------------------------------------


def test_exact_reports_satisfy_inequalities():
    rng = random.Random(606)
    texts = [
        "(w+w)|(w+w)",
        "Pf((w+w)|(w+w))",
        "M(o(w))",
        "G(3)*G(2)",
        "o(w)*o(w*2)",
        "Phi(w^2+1)|o(w^3)",
    ]
    for t in texts:
        r = rep(t)
        if r.mot.kind == r.height.kind == r.width.kind == "exact":
            assert cmp(r.height.value, r.mot.value) <= 0
            assert cmp(r.width.value, r.mot.value) <= 0
            assert cmp(r.mot.value, nat_prod(r.height.value, r.width.value)) <= 0
    for _ in range(80):
        e = random_elementary(rng, rng.randint(1, 8))
        r = invariants(e)
        assert cmp(r.mot.value, nat_prod(r.height.value, r.width.value)) <= 0


def test_families_compose_inside_expressions():
    r = rep("Phi(w)|G(2)")
    assert exact(r.mot) == o("w+2")
    assert exact(r.height) == o("w")
    assert exact(r.width) == o("w+2")


def test_long_chains_evaluate_at_the_default_recursion_limit():
    # the evaluator and the elimination pass take no frame per level
    # (tests/test_depth.py goes to 10,000 levels)
    r = rep("|".join(["o(w+1)"] * 800))
    assert exact(r.mot) == o("w*800+800")
    assert exact(r.height) == o("w+1")
    assert exact(r.width) == o("800")
    r = rep("*".join(["2"] * 800))
    assert exact(r.mot) == two_pow(o("800"))
    tower = DisjUnion(Ord(o("w^w")), Ord(o("w^(w^2)")))
    for i in range(450):
        tower = Multisets(tower) if i % 2 == 0 else Pf(tower)
    r = invariants(tower)
    assert r.notes == ("elementary-exact",)
    assert r.mot.kind == r.height.kind == r.width.kind == "exact"


def test_values_too_large_to_print_are_refused():
    big = Gamma(10**4000)
    r = invariants(CartProd(big, big))  # o = 10^8000, past the print limit
    assert r.mot.kind == "unsupported" and r.mot.reason == "value-too-large"
    assert exact(r.height) == o("1")
    # sums too: o = w = 5 * 10^4299 + 5 * 10^4299 has 4,301 digits
    r = invariants(DisjUnion(Gamma(5 * 10**4299), Gamma(5 * 10**4299)))
    assert r.mot.reason == r.width.reason == "value-too-large"
    # the coefficients of exponents count too: o = w^(10^4300)
    m = Multisets(Gamma(5 * 10**4299))
    assert invariants(m).mot.kind == "exact"
    assert invariants(CartProd(m, m)).mot.reason == "value-too-large"
    # lexicographic products too: w = w^n (.) w^n = w^(2n), n of 4,300 digits
    phi = Phi(o("w^" + "9" * 4300))
    assert invariants(LexProd(phi, phi)).width.reason == "value-too-large"
    # and the product width's lower bound w(B) * o(A) = w^(2n)
    assert invariants(CartProd(phi, phi)).width.reason == "value-too-large"
    # an upper bound past the limit is dropped, the lower bound stays
    r = rep("Pf(G(14000))*Pf(G(14000))")
    assert r.mot.kind == "lower" and r.mot.lower == o("196028001")
    # Pf over an infinite ordinal adds no new value (1 + a = a), so a
    # 4,300-digit coefficient that prints is passed on, not refused
    r = rep("Pf(o(w*" + "9" * 4300 + "))")
    assert exact(r.mot) == o("w*" + "9" * 4300)
    # below the limit the upper bound is kept
    r = rep("Pf(G(14000))|Pf(G(14000))")
    assert r.mot.kind == "interval"
    assert r.mot.upper == nat_prod(two_pow(o("14000")), o("2"))


def test_values_that_print_are_not_refused():
    # the edge is Python's digit limit, 10^4300, not a power of two below
    # it: o(w*c)|o(w) has o = w*(c + 1)
    c = 2**14282  # 4,300 digits
    assert exact(rep(f"o(w*{c})|o(w)").mot) == omega_pow(ONE, c + 1)
    n = 10**4300
    assert exact(rep(f"o(w*{n - 2})|o(w)").mot) == omega_pow(ONE, n - 1)
    assert rep(f"o(w*{n - 1})|o(w)").mot.reason == "value-too-large"
    assert _printable(Ordinal.from_nat(n - 1)) and not _printable(Ordinal.from_nat(n))
    assert not _printable(omega_pow(Ordinal.from_nat(n), 1))
    assert _printable(omega_pow(Ordinal.from_nat(n), 1), deep=False)


def test_sums_keep_the_exponents_of_their_arguments():
    # what lets `_lift` check only the top-level coefficients of a sum
    rng = random.Random(9)
    for _ in range(500):
        a, b = random_ordinal(rng, 3), random_ordinal(rng, 3)
        exponents = {e for e, _ in a.terms + b.terms}
        for fn in _SUMS:
            assert {e for e, _ in fn(a, b).terms} <= exponents
        # and so do the n-ary sums and maxima of a chain
        c = random_ordinal(rng, 3)
        for fn in _SUMS:
            assert {e for e, _ in fn(a, b, c).terms} <= exponents | {e for e, _ in c.terms}


def _components(r):
    results = (r.mot, r.height, r.width)
    parts = [(x.kind, x.lower, x.upper, x.finite_multiple, x.reason) for x in results]
    return parts, r.weak_mot, r.notes


def _leaves_printable(e) -> bool:
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, Ord) and not _printable(x.value):
            return False
        stack.extend(x.children())
    return True


def _supported_part(rng: random.Random):
    """A random term none of whose invariants is unsupported, so that a
    long chain of them has bounds to combine."""
    while True:
        e = random_any_expr(rng, rng.randint(0, 2))
        r = invariants(e)
        if all(x.reason is None for x in (r.mot, r.height, r.width)):
            return e


def _random_chain(rng: random.Random, node):
    """A left-deep chain of 3-300 parts joined by `node` (`DisjUnion` or
    `LexSum`), sometimes led by elementary parts (so the left spine of a
    union ends in an elementary union) and sometimes with one part of any
    kind, which may have no supported invariant."""
    n = rng.randint(3, 300)
    lead = rng.randint(2, 3) if rng.random() < 0.3 else 0
    parts = [random_elementary(rng, rng.randint(1, 4)) for _ in range(lead)]
    parts += [_supported_part(rng) for _ in range(n - lead)]
    if rng.random() < 0.3:
        parts[rng.randrange(n)] = random_any_expr(rng, 2)
    chain = parts[0]
    for p in parts[1:]:
        chain = node(chain, p)
    return chain


def test_union_fold_matches_pairwise_reference(monkeypatch):
    # the pairwise fold is kept here as the reference; every component
    # (kind, bounds, reason, weak o and the notes in order) must agree
    rng = random.Random(11)
    terms = [random_any_expr(rng, rng.randint(0, 4)) for _ in range(1500)]
    terms += [_random_chain(rng, DisjUnion) for _ in range(40)]
    terms += [_random_chain(rng, LexSum) for _ in range(40)]
    for e in terms:
        if not _leaves_printable(e):
            continue
        got = _components(invariants(e))
        with monkeypatch.context() as m:
            # the pairwise fold: each chain node's parts are its two children
            m.setattr(engine, "_chain_parts", lambda node: node.children())
            want = _components(invariants(e))
        assert got == want, print_expr(e)


def test_union_chains_are_associative_at_the_print_limit():
    # max(N, 1) = N is refused as too large to print in a pairwise fold,
    # but the maximum of the whole chain is w
    n = "9" * 4300
    for text in (f"o({n})|1|w", f"o({n})|(1|w)"):
        r = rep(text)
        assert exact(r.height) == OMEGA
        assert r.mot.reason == "value-too-large"


def test_lex_sum_chains_are_associative_at_the_print_limit():
    # N + N is refused as too large to print in a pairwise fold, but the
    # ordinal sum of the whole chain is w, which absorbs both N
    n = "9" * 4300
    for text in (f"o({n})++o({n})++w", f"o({n})++(o({n})++w)"):
        r = rep(text)
        assert exact(r.mot) == exact(r.height) == OMEGA
        assert exact(r.width) == o("1")
