"""Shared subterms: a parse makes equal subterms one object, and the
engine evaluates each distinct one once per call; leaves, and Pf, M and
^<w directly over a leaf, are one node across calls while the parser's
table of bounded size keeps them, and each such node keeps its triple in
its own slot, for as long as it lives.  None of this changes any report,
note or error."""

import gc
import json
import pickle
import random
import weakref

import pytest

from wqometer import (
    HypothesisNotMet,
    Ordinal,
    ParseError,
    UnsupportedComputation,
    WqoExpr,
    engine,
    expr,
    invariants,
    parse_expr,
    pf_bounds,
    print_expr,
    weak_mot,
)

from genlib import random_any_expr

# parts with family members, which the engine desugars or reads off their
# index, and their powersets, beside the random ones
_FAMILY_PARTS = [
    "Sim(w)",
    "Pf(Sim(w^w))",
    "Phi(w+1)",
    "SimExt(w^w,2)",
    "M(Phi(w^2))",
    "Pf(Phi(w+1))",
    "Pf(Phi(3))",
    "Pf(SimExt(w^w,2))",
    "Pf+(Sim(w))",
]


def _unshared(e: WqoExpr) -> WqoExpr:
    """A copy of `e` rebuilt node by node through the constructors, so
    that no two of its nodes are one object."""
    values = [_unshared(v) if isinstance(v, WqoExpr) else v for v in e._values()]
    return type(e)(*values)


def _nodes(e: WqoExpr) -> list[WqoExpr]:
    out, stack = [], [e]
    while stack:
        x = stack.pop()
        out.append(x)
        stack.extend(x.children())
    return out


def _clear_leaves() -> None:
    """Empty the parser's table, so the next parses make new nodes, with
    no facts kept."""
    expr._LEAVES.clear()


def _report(fn, e) -> str:
    try:
        out = fn(e)
    except Exception as exc:  # the same refusal on both sides
        return f"{type(exc).__name__}: {exc}"
    return str(out) if isinstance(out, Ordinal) else json.dumps(out.to_json())


def _reports(e) -> list[str]:
    return [_report(fn, e) for fn in (invariants, pf_bounds, weak_mot)]


def _random_chain_text(rng: random.Random) -> str:
    """3-60 parts, drawn with repetition from a pool of a few random terms
    and family members and joined by random operators."""
    pool = [print_expr(random_any_expr(rng, rng.randint(0, 3))) for _ in range(4)]
    pool = pool[: rng.randint(1, 4)]
    pool += rng.sample(_FAMILY_PARTS, rng.randint(0, 2))
    parts = [f"({rng.choice(pool)})" for _ in range(rng.randint(3, 60))]
    text = parts[0]
    for p in parts[1:]:
        text += rng.choice(["|", "|", "++", "*", "."]) + p
    return text


def test_sharing_changes_no_report():
    # each text cold (the leaf table emptied first), warm, and as a copy
    # with no node shared
    rng = random.Random(16)
    shared_terms = 0
    for _ in range(300):
        text = _random_chain_text(rng)
        _clear_leaves()
        cold = _reports(parse_expr(text))
        e = parse_expr(text)
        copy = _unshared(e)
        assert copy == e
        nodes = _nodes(copy)
        assert len({id(x) for x in nodes}) == len(nodes)
        shared_terms += len({id(x) for x in _nodes(e)}) < len(nodes)
        assert _reports(e) == cold == _reports(copy), text
    assert shared_terms >= 250, shared_terms


def test_equal_subterms_of_one_parse_are_one_object():
    e = parse_expr("Pf(Sim(w))|Pf(Sim(w))")
    assert e.left is e.right
    # sharing grows bottom-up through every constructor, and ignores how
    # a subterm was parenthesised
    e = parse_expr("(M(o(w+1)^<w)*Mn(G(2),1))|M(o(w+1)^<w)*(Mn(G(2),1))")
    assert e.left is e.right
    # a leaf, and a Pf, M or ^<w directly over one, is one object across
    # calls, and over the leaf of the same text; any other node is one
    # only within a call
    assert parse_expr("Sim(w)") is parse_expr("Sim(w)")
    assert parse_expr("Pf(Sim(w))") is parse_expr("Pf(Sim(w))")
    assert parse_expr("G(2)|M(3)").right is parse_expr("M(3)^<w").arg
    e = parse_expr("Pf(Sim(w))|Sim(w)|Pf(Sim(w))^<w")
    assert e.left.left.arg is e.left.right is e.right.arg.arg
    e, f = parse_expr("Pf(Sim(w)|G(2))"), parse_expr("Pf(Sim(w)|G(2))")
    assert e is not f and e.arg.left is f.arg.left
    # within a call, the one node of any other spelling of it
    e = parse_expr("Pf((Sim(w)))|Pf(Sim(w))|Pf( Sim(w))")
    assert e.left.left is e.left.right is e.right


def test_shared_terms_pickle_to_equal_terms():
    e = parse_expr("|".join(["Pf(Sim(w^w)|G(2))"] * 50))
    back = pickle.loads(pickle.dumps(e))
    assert back == e
    assert back.right is back.left.right


@pytest.mark.parametrize("op", ["|", "++"])
def test_a_repeated_part_is_evaluated_once(monkeypatch, op):
    # the part is rewritten by powerset elimination, so it is one object
    # only if both the parse and the elimination share it.  On a cold
    # call each distinct Sim node is desugared once.  On a warm one a bare
    # Sim is not desugared again, as its node, which the parser shares,
    # keeps its triple; the Pf(Sim(w^w)) that elimination builds is a new
    # node on each call, which keeps its triple while it lives
    calls = []
    desugar = engine._desugar

    def counted(e):
        calls.append(e)
        return desugar(e)

    monkeypatch.setattr(engine, "_desugar", counted)
    for part, warm in ((f"Pf(Sim(w^w){op}G(2))", 1), ("Sim(w^w)", 0)):
        _clear_leaves()
        for expected in (1, warm):
            calls.clear()
            r = invariants(parse_expr(op.join([part] * 2000)))
            assert len(calls) == expected, (part, len(calls))
            assert r.mot.reason is None


def test_the_caches_stay_within_their_sizes():
    # more distinct leaves, family powersets and multiset orders of a
    # leaf than the table holds, one text each and then all in one text,
    # twice over: the table stays in its size, every report is the one
    # the text gave first, each constructor over a leaf that the table
    # holds keeps its facts, and a leaf met twice in one text is one
    # object even when the leaf table was emptied between the two
    n = expr._LEAF_TABLE_SIZE + 100
    texts = [f"Phi({k})" if k % 2 else f"G({k})" for k in range(1, n + 1)]
    over_leaves = [f"Pf(Phi({k}))" for k in range(1, n + 1)]
    over_leaves += [f"M(G({k}))" for k in range(1, n + 1)]
    _clear_leaves()
    first = [_reports(parse_expr(t)) for t in texts + over_leaves]
    for _ in range(2):
        assert [_reports(parse_expr(t)) for t in texts + over_leaves] == first
        assert len(expr._LEAVES) <= expr._LEAF_TABLE_SIZE
        kept = [expr._LEAVES[t] for t in over_leaves if t in expr._LEAVES]
        assert kept and all(hasattr(x, "facts") for x in kept)
    e = parse_expr("|".join(texts * 2))
    parts = []
    while isinstance(e, expr.DisjUnion):
        parts.append(e.right)
        e = e.left
    parts = [e, *reversed(parts)]
    assert [print_expr(x) for x in parts] == texts * 2
    assert all(x is y for x, y in zip(parts, parts[n:]))
    assert len(expr._LEAVES) <= expr._LEAF_TABLE_SIZE


@pytest.mark.parametrize("text", ["M(G(3))", "G(3)^<w", "Pf(G(3))"])
def test_a_constructor_over_a_leaf_reaches_its_rule_once(monkeypatch, text):
    # the parser makes it one node across calls, alone or as a part, and
    # the node keeps its triple
    calls = []
    rule = engine._rule

    def counted(notes, e, kids):
        calls.append(e)
        return rule(notes, e, kids)

    monkeypatch.setattr(engine, "_rule", counted)
    _clear_leaves()
    node = parse_expr(text)
    assert parse_expr(f"G(2)|{text}").right is node
    reports = [invariants(parse_expr(t)) for t in (text, f"G(2)|{text}", text)]
    assert [e for e in calls if e == node] == [node]
    assert reports[0] == reports[2]


@pytest.mark.parametrize("text", ["M(o(w^w))++G(2)", "o(w^w)^<w++1"])
def test_an_elementary_constructor_over_a_leaf_is_read_off_exactly(text):
    # kept like any constructor over a leaf, but read off by the fold of
    # `_summary`: the general rule would add its width note
    _clear_leaves()
    for _ in range(2):
        assert invariants(parse_expr(text)).notes == ("elementary-exact",)


def test_a_warm_leaf_replays_its_notes():
    for text, note in (
        ("w|G(2)", "omega-elementary-height"),
        ("o(w^w)|G(2)", "elementary-exact"),
        ("Phi(w+1)|G(2)", "family:phi"),
        ("Sim(w)", "family:sim"),
        ("SimExt(w^w,2)", "family:sim-extended"),
        ("Pf(Phi(3))", "family:phi-powerset"),
        ("Pf(Sim(w))|G(2)", "family:sim-powerset"),
        ("Pf(SimExt(w^w,2))", "family:sim-extended-powerset"),
    ):
        _clear_leaves()
        cold = invariants(parse_expr(text))
        warm = invariants(parse_expr(text))
        assert note in cold.notes
        assert warm == cold


@pytest.mark.parametrize(
    "text",
    [
        "G(2)|G(0)",
        "Phi(w)|Phi(0)",
        "SimExt(w,1)|SimExt(w,0)",
        "w^2|w^",
        "G(2)|G(2",
        "Sim(w)|Sim(3)",
        "Pf(Sim(w))|Pf(Sim(3))",
        "M(Sim(3))",
    ],
)
def test_a_bad_leaf_fails_the_same_cold_and_warm(text):
    # the good leaf before it is kept, the bad one never is; a refusal of
    # the engine is raised on every call, and the refused node keeps no
    # facts
    def failure():
        try:
            invariants(parse_expr(text))
        except (ParseError, HypothesisNotMet) as exc:
            return type(exc), str(exc)
        raise AssertionError(f"{text} did not fail")

    _clear_leaves()
    first = failure()
    assert failure() == failure() == first
    bad = expr._LEAVES.get(text.rpartition("|")[2])
    assert bad is None or not hasattr(bad, "facts")


@pytest.mark.parametrize("text", ["M(Sim(3))", "Pf(Phi(14281))", "Pf(Sim(3))|G(2)"])
def test_a_refused_node_keeps_no_facts(text):
    # the refusal is raised on every call; a report with an unsupported
    # component is not a refusal, and its node keeps it
    _clear_leaves()
    e = parse_expr(text)
    node = e.left if isinstance(e, expr.DisjUnion) else e
    for _ in range(2):
        with pytest.raises((HypothesisNotMet, UnsupportedComputation)):
            invariants(e)
        assert not hasattr(node, "facts")
    e = parse_expr("Pf(G(14281))")
    assert invariants(e).width.reason == "binomial-too-large"
    assert e.facts[0][2].reason == "binomial-too-large"


def test_a_node_dropped_from_the_leaf_table_is_freed():
    # the facts live on the node, and no other table keeps it alive
    _clear_leaves()
    node = parse_expr("M(Sim(w^w))")
    first = invariants(node)
    assert hasattr(node, "facts") and expr._LEAVES["M(Sim(w^w))"] is node
    refs = [weakref.ref(node), weakref.ref(node.arg)]
    del node
    gc.collect()
    assert all(r() is not None for r in refs)
    _clear_leaves()
    gc.collect()
    assert [r() for r in refs] == [None, None]
    # a fresh node over the same text, with no facts, gives the same report
    node = parse_expr("M(Sim(w^w))")
    assert not hasattr(node, "facts") and invariants(node) == first


@pytest.mark.parametrize(
    "text",
    [
        "Pf+(" * 60 + "G(2)" + ")" * 60,
        "|".join(["Pf(Sim(w^w))"] * 60),
        "++".join(["Pf(Sim(w)|SimExt(w^w,2))", "Pf+(Pf+(G(3)))"] * 30),
    ],
    ids=["pf-plus-tower", "pf-sim-chain", "mixed-chain"],
)
def test_eliminate_pf_runs_once_per_invariants_call(monkeypatch, text):
    calls = []
    eliminate_pf = engine.eliminate_pf

    def counted(e):
        calls.append(e)
        return eliminate_pf(e)

    monkeypatch.setattr(engine, "eliminate_pf", counted)
    e = parse_expr(text)
    invariants(e)
    assert len(calls) == 1
    pf_bounds(e)
    assert len(calls) == 2


def test_invariants_reads_an_elementary_term_without_eliminating(monkeypatch):
    # elimination would rewrite the first two (a powerset of a union, of a
    # leaf), whose reports still say so
    calls = []
    eliminate_pf = engine.eliminate_pf
    monkeypatch.setattr(engine, "eliminate_pf", lambda e: calls.append(e) or eliminate_pf(e))
    for text, simplified in (
        ("Pf(o(w^w)|o(w^(w^2)))", True),
        ("M(Pf(o(w^w)))*Pf(o(w^w))^<w", True),
        ("Pf(M(o(w^w)|o(w^w)))", False),
    ):
        e = parse_expr(text)
        rep = invariants(e)
        assert rep.notes == ("simplification-applied",) * simplified + ("elementary-exact",)
        assert rep.weak_mot == engine.weak_mot(e)
    assert calls == []
