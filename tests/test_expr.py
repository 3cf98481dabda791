"""Expression grammar: parser/printer round trips, precedence, errors."""

import importlib
import pickle
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

import wqometer

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
    Ordinal,
    ParseError,
    Pf,
    PfPlus,
    Phi,
    Sim,
    SimExt,
    Words,
    WqoExpr,
    eliminate_pf,
    expr_size,
    is_finite_expr,
    normalize_elementary,
    omega_pow,
    parse_expr,
    parse_ordinal,
    print_expr,
)
from wqometer import expr as expr_mod, ordinal as ord_mod
from wqometer.expr import _CALLS, _INFIX, _LEAF, _TOKEN, _WORDS, _resume, fold
from wqometer.rewrite import NF_SIZE_LIMIT, _nf_size

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
    assert e.fragment == "elementary"
    assert not is_finite_expr(e)

    # leaf w^(w*2) is not multiplicatively indecomposable, leaf w is < w^w
    assert parse_expr("o(w^w)|o(w^(w*2))").fragment is None
    assert parse_expr("Pf(w)").fragment == "omega"
    assert parse_expr("o(w^w)++o(w^w)").fragment is None

    assert parse_expr("Pf(M(w)|w^<w)").fragment == "omega"
    assert parse_expr("Pf(o(w^w))").fragment == "elementary"

    assert is_finite_expr(parse_expr("Pf(G(3))*2++Pf+(G(2).3)"))
    assert is_finite_expr(parse_expr("Mn(G(2), 2)"))
    # Mn(A, 0) is the one empty multiset, whatever A is
    assert is_finite_expr(parse_expr("Mn(w, 0)"))
    assert is_finite_expr(parse_expr("Pf(Mn(M(w)^<w, 0))|1"))
    assert not is_finite_expr(parse_expr("Mn(w, 1)"))
    assert not is_finite_expr(parse_expr("w"))
    assert not is_finite_expr(parse_expr("G(2)^<w"))
    assert not is_finite_expr(parse_expr("M(G(2))"))
    assert not is_finite_expr(parse_expr("Phi(3)"))


# the two recursive predicates, kept as the reference that each node's
# `fragment`, set by its constructor from its children's, is checked
# against
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


def _check_fragment(e: WqoExpr) -> str | None:
    elem, omega = _ref_is_elementary(e), _ref_is_omega_elementary(e)
    want = "elementary" if elem else "omega" if omega else None
    assert e.fragment == want, print_expr(e)
    return want


def test_classifier_matches_recursive_predicates():
    rng = random.Random(4242)
    kinds = {"elementary": 0, "omega": 0, None: 0}
    normalised = 0
    for _ in range(3000):
        e = random_any_expr(rng, depth=rng.randint(0, 4))
        if rng.random() < 0.5:
            # omega-elementary terms, and elementary ones with a stray w
            # leaf, are rare in the random grammar
            e = _leaves_to_w(rng, e, rng.choice((0.3, 1.0)))
        kinds[_check_fragment(e)] += 1
        # nodes built by the other paths: unpickling, powerset
        # elimination and the normaliser
        _check_fragment(pickle.loads(pickle.dumps(e)))
        reduct = eliminate_pf(e)
        _check_fragment(reduct)
        for term in (e, reduct):
            if term.fragment == "elementary" and _nf_size(term)[0] <= NF_SIZE_LIMIT:
                _check_fragment(normalize_elementary(term)[0])
                normalised += 1
    assert min(kinds.values()) >= 50, kinds
    assert normalised >= 500, normalised


def test_deep_terms_classify_at_the_default_recursion_limit():
    # each node's fragment is set when it is built, so classifying a
    # term takes no frame per level, whatever its depth
    n = 10_000
    assert sys.getrecursionlimit() < n
    cases = (
        ("M(" * n + "o(w^w)" + ")" * n, "elementary"),
        ("Pf(" * n + "w" + ")" * n, "omega"),
        ("|".join(["o(w^w)"] * n), "elementary"),
        ("|".join(["o(w^w)"] * (n - 1) + ["w"]), None),
    )
    for text, want in cases:
        assert parse_expr(text).fragment == want


@pytest.mark.parametrize(
    "module",
    ["wqometer", "wqometer.expr", "wqometer.ordinal", "wqometer.rewrite", "wqometer.oracle"],
)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_every_facade_export_is_in_its_modules_all():
    # `from module import *` binds what the package facade exports from it
    for module, names in wqometer._EXPORTS.items():
        mod = importlib.import_module(f"wqometer.{module}")
        if hasattr(mod, "__all__"):
            assert [n for n in names.split() if n not in mod.__all__] == [], module


def test_fold_nests_down_and_up_like_brackets():
    # each `up(x)` closes the most recent `down` still open, over shared
    # parts (the parse shares `t`'s nodes), a `down` that names a node
    # twice and nodes that `down` builds; the engine's evaluator keeps its
    # pending rules on a stack on the strength of this
    rng = random.Random(19)
    for _ in range(300):
        t = print_expr(random_any_expr(rng, rng.randint(0, 4)))
        e = parse_expr(f"({t})|Pf({t}).M({t})")
        open_ = []

        def down(x):
            if isinstance(x, Pf):
                kids = (x.arg, x.arg)
            elif isinstance(x, Multisets):
                kids = (x.arg, Words(x.arg))
            else:
                kids = x.children()
            open_.append((x, len(kids)))
            return kids

        def up(x, values):
            y, n = open_.pop()
            assert y is x and n == len(values)

        fold(e, up, down)
        assert open_ == []


def test_classifier_cache_is_invisible():
    # `fragment` is a slot, not a field
    e = parse_expr("Pf(M(w)|w^<w)")
    fresh = parse_expr("Pf(M(w)|w^<w)")
    assert e.fragment == "omega" and "fragment" not in type(e)._fields
    assert e == fresh and hash(e) == hash(fresh)
    assert repr(e) == repr(fresh)
    assert e.children() == fresh.children()
    assert e.with_children(e.children()) == e


def test_deep_nesting_parses_at_default_recursion_limit():
    # the parser keeps its stacks on the heap, so depth costs no frames;
    # `==` recurses, so the results are measured instead
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


# --- the token-list parser against the former per-position one ---------------

# The parser as it was before it read one token list: it matched one
# token after blanks at each position and read every call through
# `_ref_call`.  Kept as the reference for results and errors.
_REF_TOKEN = re.compile(
    "[ \t]*(%s|[^\\W\\d_]+|.?)"
    % "|".join(
        re.escape(t)
        for t in sorted((*_INFIX, _WORDS, *_CALLS), key=len, reverse=True)
        if len(t) > 1 and not t.isalpha()
    ),
    re.DOTALL,
)
_REF_LEAF_CALLS = {name for name, (_cls, kinds) in _CALLS.items() if "e" not in kinds}


def _ref_parse_expr(text):
    out = []
    groups = [(None, [], [])]
    pos = 0
    while True:
        m = _REF_TOKEN.match(text, pos)
        tok, p, pos = m[1], m.start(1), m.end()
        if not tok:
            raise ParseError(text, p, "an expression")
        if tok == "(":
            groups.append((tok, [], []))
            continue
        if tok in _REF_LEAF_CALLS:
            node, pos = _ref_call(text, pos, tok, [])
        elif tok == "w":
            exponent = ord_mod.ONE
            if text.startswith("^", pos) and not text.startswith("^<", pos):
                exponent, pos = ord_mod._parse_atom(text, ord_mod._skip_ws(text, pos + 1))
            node = Ord(omega_pow(exponent))
        elif tok in _CALLS:
            args = []
            pos = _ref_call(text, pos, tok, args)[1]
            groups.append((tok, args, []))
            continue
        elif tok in "0123456789":
            n, pos = ord_mod._parse_nat(text, p)
            node = Ord(Ordinal.from_nat(n))
        else:
            raise ParseError(text, p, _OPERAND)
        out.append(node)
        while True:
            m = _REF_TOKEN.match(text, pos)
            tok, p = m[1], m.start(1)
            if tok == _WORDS:
                out[-1] = Words(out[-1])
                pos = m.end()
                continue
            name, args, ops = groups[-1]
            infix = _INFIX.get(tok)
            prec = infix[0] if infix else 0
            while ops and ops[-1][0] >= prec:
                cls = ops.pop()[1]
                right = out.pop()
                out[-1] = cls(out[-1], right)
            if infix:
                ops.append(infix)
                pos = m.end()
                break
            if name is None:
                if tok:
                    raise ParseError(text, p, "end of expression or an operator")
                return out[0]
            groups.pop()
            if name == "(":
                if tok != ")":
                    raise ParseError(text, p, "')'")
                pos = m.end()
                continue
            args.append(out.pop())
            node, pos = _ref_call(text, p, name, args)
            out.append(node)


def _ref_call(text, pos, name, args):
    cls, kinds = _CALLS[name]
    if not args:
        pos = ord_mod._skip_ws(text, pos)
    while True:
        i = len(args)
        sep = "(" if i == 0 else "," if i < len(kinds) else ")"
        if not text.startswith(sep, pos):
            raise ParseError(text, pos, f"'{sep}'")
        pos += 1
        if i == len(kinds):
            try:
                return cls(*args), pos
            except ValueError as exc:
                raise ParseError(text, start, str(exc)) from None
        if kinds[i] == "e":
            return None, pos
        start = ord_mod._skip_ws(text, pos)
        value, pos = _LEAF[kinds[i]](text, start)
        args.append(value)


def _outcome(parse, text):
    try:
        return parse(text), None
    except ParseError as exc:
        return None, (exc.pos, exc.expected, exc.found)


def _check_like_the_reference(text):
    got, want = _outcome(parse_expr, text), _outcome(_ref_parse_expr, text)
    assert got[1] == want[1], text
    assert got[0] == want[0], text


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=5))
def test_random_terms_parse_as_before(seed, depth):
    # printed with blanks, and with some parts repeated, so that leaves
    # and subterms are met again
    rng = random.Random(seed)
    e = random_any_expr(rng, depth)
    if rng.random() < 0.5:
        e = _family_leaves(rng, e)
    t = print_expr(e)
    for text in (t, _blanks(rng, t), _blanks(rng, f"({t})|{t}*M({t})")):
        _check_like_the_reference(text)


_SOUP = _TOKENS + _CHARS + ["w^", "w^(", "o(", "Sim(", "Pf(", "Mn(", "^2", "9 ", " 3"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_SOUP), max_size=30).map("".join))
def test_token_soup_parses_as_before(text):
    _check_like_the_reference(text)


def _deep_literal(draw, depth):
    """Ordinal text with exponents nested `depth` deep, with sums,
    coefficients and blanks on the way."""
    inner = draw(st.sampled_from(("1", "2", "w", "w+1", "3 ")))
    for _ in range(depth):
        inner = f"w^{draw(st.sampled_from(('', ' ')))}({inner})"
        inner += draw(st.sampled_from(("", "", "*2", "+1", "+w", " ", "*3 +2")))
    return inner


@st.composite
def _deep_texts(draw):
    """Leaves nested 3 to 6 deep, which no token takes whole (`o(...)`,
    `Sim(...)`, `SimExt(..., n)` and bare `w^(...)`), some repeated,
    joined by operators, with now and then one character dropped."""
    parts = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        if parts and draw(st.booleans()):
            parts.append(draw(st.sampled_from(parts)))
            continue
        lit = _deep_literal(draw, draw(st.integers(min_value=3, max_value=6)))
        parts.append(
            draw(
                st.sampled_from(
                    (f"o({lit})", f"Sim({lit})", f"SimExt({lit}, 2)", f"w^({lit}) ", f"M(o({lit}))")
                )
            )
        )
    text = parts[0]
    for part in parts[1:]:
        text += draw(st.sampled_from(("|", "++", "*", ".", " | ", "^<w|"))) + part
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        i = draw(st.integers(min_value=0, max_value=len(text) - 1))
        text = text[:i] + text[i + 1 :]
    return text


@settings(max_examples=300, deadline=None)
@given(_deep_texts())
def test_deep_literals_parse_as_before(text):
    _check_like_the_reference(text)


def test_every_pinned_parse_error_is_the_reference_s():
    for bad in _PARSE_ERRORS:
        _check_like_the_reference(bad)


def test_a_reader_goes_on_at_the_token_where_it_stopped():
    text = "G(2)|w^(w^(w^(1))) |w"
    toks = _TOKEN.findall(text)
    assert toks == ["G(2)", "|", "w^", "(", "w^(w^(1))", ")", " ", "|", "w"]
    # the deep literal from token 2 (at 5) ends at 19, where token 7 starts
    assert _resume(toks, 2, 5, 19) == (7, 19)
    assert _resume(toks, 8, 20, 20) == (8, 20)


def test_deep_literals_are_read_from_one_token_list(monkeypatch):
    # 2,000 literals too deep to be one token each: each is read past its
    # first token, and the parse goes on over the same token list, which
    # is listed once (listing it again per literal would read 60 million
    # characters)
    text = "|".join(f"o(w^(w^(w^{k % 97})))" for k in range(2000))
    listed = []

    class Counted:
        def findall(self, *args):
            listed.append(args)
            return _TOKEN.findall(*args)

    monkeypatch.setattr(expr_mod, "_TOKEN", Counted())
    parsed = parse_expr(text)
    assert listed == [(text,)]
    # `==` recurses down the left-deep chain, so the texts are compared
    assert print_expr(parsed) == print_expr(_ref_parse_expr(text))
