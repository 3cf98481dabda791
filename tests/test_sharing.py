"""Shared subterms: a parse makes equal subterms one object, and the
engine evaluates each distinct one once per call, with no change to any
report."""

import json
import pickle
import random

import pytest

from wqometer import WqoExpr, engine, invariants, parse_expr, pf_bounds, print_expr

from genlib import random_any_expr

# parts with family members, which the engine desugars or reads off their
# index, beside the random ones
_FAMILY_PARTS = ["Sim(w)", "Pf(Sim(w^w))", "Phi(w+1)", "SimExt(w^w,2)", "M(Phi(w^2))"]


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


def _report(fn, e) -> str:
    try:
        return json.dumps(fn(e).to_json())
    except Exception as exc:  # the same refusal on both sides
        return f"{type(exc).__name__}: {exc}"


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
    rng = random.Random(16)
    shared_terms = 0
    for _ in range(300):
        e = parse_expr(_random_chain_text(rng))
        copy = _unshared(e)
        assert copy == e
        nodes = _nodes(copy)
        assert len({id(x) for x in nodes}) == len(nodes)
        shared_terms += len({id(x) for x in _nodes(e)}) < len(nodes)
        for fn in (invariants, pf_bounds):
            assert _report(fn, e) == _report(fn, copy), print_expr(e)
    assert shared_terms >= 250, shared_terms


def test_equal_subterms_of_one_parse_are_one_object():
    e = parse_expr("Pf(Sim(w))|Pf(Sim(w))")
    assert e.left is e.right
    # sharing grows bottom-up through every constructor, and ignores how
    # a subterm was parenthesised
    e = parse_expr("(M(o(w+1)^<w)*Mn(G(2),1))|M(o(w+1)^<w)*(Mn(G(2),1))")
    assert e.left is e.right
    # the table lives for one call
    assert parse_expr("Sim(w)") is not parse_expr("Sim(w)")


def test_shared_terms_pickle_to_equal_terms():
    e = parse_expr("|".join(["Pf(Sim(w^w)|G(2))"] * 50))
    back = pickle.loads(pickle.dumps(e))
    assert back == e
    assert back.right is back.left.right


@pytest.mark.parametrize("op", ["|", "++"])
def test_a_repeated_part_is_evaluated_once(monkeypatch, op):
    # the part is rewritten by powerset elimination, so it is one object
    # only if both the parse and the elimination share it; each distinct
    # Sim node is desugared once per call
    calls = []
    desugar = engine._desugar

    def counted(e):
        calls.append(e)
        return desugar(e)

    monkeypatch.setattr(engine, "_desugar", counted)
    for part in (f"Pf(Sim(w^w){op}G(2))", "Sim(w^w)"):
        calls.clear()
        r = invariants(parse_expr(op.join([part] * 2000)))
        assert len(calls) == 1, (part, len(calls))
        assert r.mot.reason is None


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
