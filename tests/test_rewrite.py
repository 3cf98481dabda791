"""Rewrite system: rule fixtures, strategies, traces, Pf elimination."""

import random

import pytest

from wqometer import (
    CartProd,
    DisjUnion,
    LexProd,
    LexSum,
    Multisets,
    Ord,
    OMEGA,
    Pf,
    PfPlus,
    TooLargeError,
    UnsupportedComputation,
    Words,
    eliminate_pf,
    invariants,
    is_normal,
    normalize_elementary,
    parse_expr,
    parse_ordinal,
    print_expr,
    step,
)
from wqometer.ordinal import ONE, add, mul

from wqometer import rewrite
from wqometer.expr import WqoExpr, _Binary, _Unary, expr_size
from wqometer.rewrite import NF_SIZE_LIMIT, _nf_size, _raw_match

from genlib import random_any_expr, random_elementary

o = parse_ordinal


# The search `step` replaced, kept as its specification: a rule fires only
# where every child subtree is pattern free, and `outermost` tries the node
# before its children while `innermost` tries it after them.
def _ref_pattern_free(e):
    return _raw_match(e) is None and all(_ref_pattern_free(k) for k in e.children())


def _ref_match(e):
    m = _raw_match(e)
    if m is None or not all(_ref_pattern_free(k) for k in e.children()):
        return None
    return m


def _ref_step(e, strategy):
    if strategy == "outermost":
        m = _ref_match(e)
        if m is not None:
            return m[0], (), m[1]
    kids = e.children()
    for i, k in enumerate(kids):
        got = _ref_step(k, strategy)
        if got is not None:
            rule, path, nk = got
            new_kids = list(kids)
            new_kids[i] = nk
            return rule, (i,) + path, e.with_children(tuple(new_kids))
    if strategy == "innermost":
        m = _ref_match(e)
        if m is not None:
            return m[0], (), m[1]
    return None


def test_single_rules():
    A = Ord(o("w^w"))
    B = Ord(o("w^(w^2)"))
    got = step(Pf(A))
    assert got is not None and got[0] == ("powerset-of-ordinal",) [0]
    rule, path, reduct = got
    assert reduct == A and path == ()

    rule, path, reduct = step(CartProd(DisjUnion(A, B), A))
    assert rule == "product-over-union-left"
    assert reduct == DisjUnion(CartProd(A, A), CartProd(B, A))

    rule, path, reduct = step(CartProd(A, DisjUnion(A, B)))
    assert rule == "product-over-union-right"
    assert reduct == DisjUnion(CartProd(A, A), CartProd(A, B))

    rule, path, reduct = step(Multisets(DisjUnion(A, B)))
    assert rule == "multisets-over-union"
    assert reduct == CartProd(Multisets(A), Multisets(B))

    rule, path, reduct = step(Pf(DisjUnion(A, B)))
    assert rule == "powerset-over-union"
    assert reduct == CartProd(Pf(A), Pf(B))


def test_strategies_agree_on_fixture():
    e = parse_expr("Pf(M(o(w^w)|o(w^w)))")
    nf_in, trace_in = normalize_elementary(e, "innermost")
    nf_out, trace_out = normalize_elementary(e, "outermost")
    assert nf_in == nf_out
    assert is_normal(nf_in)
    assert print_expr(nf_in) == "Pf(M(o(w^w))*M(o(w^w)))"  # Pf does not split products
    assert len(trace_in) >= 1 and len(trace_out) >= 1


def test_trace_chains():
    e = parse_expr("Pf(o(w^w)|o(w^w))")
    nf, trace = normalize_elementary(e)
    assert print_expr(nf) == "o(w^w)*o(w^w)"
    # each step's after equals the next step's before
    for a, b in zip(trace.steps, trace.steps[1:]):
        assert a.after == b.before
    assert trace.steps[0].before == print_expr(e)
    assert trace.steps[-1].after == print_expr(nf)
    data = trace.to_json()
    assert isinstance(data, list) and all("rule" in s for s in data)


def test_normalize_requires_elementary():
    with pytest.raises(UnsupportedComputation):
        normalize_elementary(parse_expr("w|w"))  # leaf w below w^w
    with pytest.raises(UnsupportedComputation):
        normalize_elementary(parse_expr("G(2)"))


def test_normal_form_shape_fixture():
    e = parse_expr("Pf(M((o(w^w)|o(w^w))|o(w^(w^2))))")
    nf, _ = normalize_elementary(e)
    assert is_normal(nf)

    def no_union_below(x, inside):
        if isinstance(x, DisjUnion) and inside:
            return False
        inner = inside or isinstance(x, (CartProd, Multisets, Pf, Words))
        return all(no_union_below(k, inner) for k in x.children())

    assert no_union_below(nf, False)


def test_strategies_agree_random():
    rng = random.Random(99)
    for _ in range(300):
        e = random_elementary(rng, rng.randint(1, 14))
        nf_in, _ = normalize_elementary(e, "innermost")
        nf_out, _ = normalize_elementary(e, "outermost")
        assert nf_in == nf_out
        assert is_normal(nf_in)


def test_step_matches_guarded_reference():
    rng = random.Random(2024)
    steps = 0
    for _ in range(400):
        start = random_elementary(rng, rng.randint(1, 20))
        for strategy in ("innermost", "outermost"):
            cur = start
            while True:
                want = _ref_step(cur, strategy)
                got = step(cur, strategy)
                assert got == want, (strategy, print_expr(cur))
                assert is_normal(cur) == (want is None)
                if got is None:
                    break
                cur = got[2]
                steps += 1
            nf, trace = normalize_elementary(start, strategy)
            assert nf == cur
    assert steps > 1000


def _stepwise_trace(e, strategy):
    """The trace of iterating `step`, printing the whole term each time."""
    steps = []
    while True:
        got = step(e, strategy)
        if got is None:
            return e, steps
        rule, path, new = got
        steps.append((rule, path, print_expr(e), print_expr(new)))
        e = new


def test_single_pass_matches_stepwise_normalisation():
    rng = random.Random(808)
    total = 0
    for _ in range(500):
        e = random_elementary(rng, rng.randint(1, 30))
        for strategy in ("innermost", "outermost"):
            want_nf, want = _stepwise_trace(e, strategy)
            nf, trace = normalize_elementary(e, strategy)
            got = [(s.rule, s.path, s.before, s.after) for s in trace.steps]
            assert got == want, (strategy, print_expr(e))
            assert len(trace) == len(trace.steps)
            assert nf == want_nf
            total += len(want)
    assert total > 1000


def test_trace_is_printed_only_when_read(monkeypatch):
    import wqometer.rewrite as rewrite

    calls = []

    def counting_print(e):
        calls.append(e)
        return print_expr(e)

    monkeypatch.setattr(rewrite, "print_expr", counting_print)
    e = parse_expr("(o(w^w)|o(w^w))*(o(w^w)|M(o(w^w)|o(w^w)))")
    nf, trace = normalize_elementary(e)
    invariants(e)
    assert calls == []
    assert len(trace) == 4 and calls == []
    steps = trace.steps
    assert calls and steps[0].before == print_expr(e) and steps[-1].after == print_expr(nf)
    n = len(calls)
    assert trace.steps is steps and len(calls) == n  # built once, then cached


def test_deep_tower_normalises_at_default_recursion_limit():
    # 450 alternating M/Pf levels over a union; the pass takes one frame
    # per level, like the classifier and `step`
    e = DisjUnion(Ord(o("w^w")), Ord(o("w^(w^2)")))
    for i in range(450):
        e = Multisets(e) if i % 2 == 0 else Pf(e)
    nf, trace = normalize_elementary(e)
    assert is_normal(nf)
    assert len(trace) == 1 and trace.steps[0].path == (0,) * 449


def test_normal_form_size_is_predicted_without_rewriting():
    rng = random.Random(31)
    for _ in range(600):
        e = random_elementary(rng, rng.randint(1, 60))
        nf, _ = normalize_elementary(e)
        assert _nf_size(e) == expr_size(nf), print_expr(e)
    # the 450-level tower's normal form grows by one node per level
    e = DisjUnion(Ord(o("w^w")), Ord(o("w^(w^2)")))
    for i in range(450):
        e = Multisets(e) if i % 2 == 0 else Pf(e)
    assert _nf_size(e) == expr_size(normalize_elementary(e)[0]) == 454 <= NF_SIZE_LIMIT


def test_oversized_normal_forms_are_refused_before_rewriting(monkeypatch):
    # the normal form of a product of k unions has 2^k components
    calls = []
    real = rewrite._raw_match
    monkeypatch.setattr(rewrite, "_raw_match", lambda e: calls.append(e) or real(e))

    def pf_m_product(k):
        return parse_expr("Pf(M(" + "*".join(["(o(w^w)|o(w^(w^2)))"] * k) + "))")

    assert _nf_size(pf_m_product(7)) == 1920
    normalize_elementary(pf_m_product(7))
    assert calls
    calls.clear()
    for k in (8, 15, 40):
        with pytest.raises(TooLargeError) as ei:
            normalize_elementary(pf_m_product(k))
        assert ei.value.size == _nf_size(pf_m_product(k)) > NF_SIZE_LIMIT
    assert calls == []
    assert str(ei.value).endswith(f"nodes, limit is {NF_SIZE_LIMIT}")


def test_unknown_strategy_is_refused():
    e = parse_expr("Pf(o(w^w)|o(w^w))")
    with pytest.raises(ValueError):
        step(e, "sideways")
    with pytest.raises(ValueError):
        normalize_elementary(e, "sideways")


def test_eliminate_pf_fixtures():
    W = Ord(OMEGA)
    assert eliminate_pf(Pf(Ord(o("3")))) == Ord(o("4"))
    assert eliminate_pf(Pf(W)) == W  # 1 + w = w
    assert eliminate_pf(Pf(LexSum(W, W))) == Ord(o("w*2"))
    assert eliminate_pf(Pf(DisjUnion(W, W))) == CartProd(W, W)
    assert eliminate_pf(PfPlus(Ord(o("w^2")))) == Ord(o("w^2"))
    assert eliminate_pf(PfPlus(Ord(o("4")))) == Ord(o("4"))
    # Pf over a lexicographic sum splits into Pf ++ Pf+
    got = eliminate_pf(Pf(LexSum(DisjUnion(W, W), DisjUnion(W, W))))
    assert got == LexSum(CartProd(W, W), PfPlus(DisjUnion(W, W)))
    # fusion applies outside powersets too
    assert eliminate_pf(LexSum(Ord(o("w")), Ord(o("w")))) == Ord(o("w*2"))
    # no rule: Pf over products/words/multisets stays
    e = Pf(CartProd(W, W))
    assert eliminate_pf(e) == e
    e = Pf(Words(W))
    assert eliminate_pf(e) == e


def test_eliminate_pf_idempotent():
    rng = random.Random(7)
    from genlib import random_finite_expr

    for _ in range(200):
        e = random_finite_expr(rng, depth=3)
        once = eliminate_pf(e)
        assert eliminate_pf(once) == once


# The fixpoint `eliminate_pf` that one innermost pass replaced, kept as its
# specification: bottom-up whole-tree passes until one changes nothing.
def _ref_elim_local(e):
    if isinstance(e, Pf):
        x = e.arg
        if isinstance(x, Ord):
            return Ord(add(ONE, x.value))
        if isinstance(x, DisjUnion):
            return CartProd(Pf(x.left), Pf(x.right))
        if isinstance(x, LexSum):
            return LexSum(Pf(x.left), PfPlus(x.right))
    if isinstance(e, PfPlus):
        x = e.arg
        if isinstance(x, Ord):
            return x
        if isinstance(x, LexSum):
            return LexSum(PfPlus(x.left), PfPlus(x.right))
    if isinstance(e, LexSum) and isinstance(e.left, Ord) and isinstance(e.right, Ord):
        return Ord(add(e.left.value, e.right.value))
    if isinstance(e, LexProd) and isinstance(e.left, Ord) and isinstance(e.right, Ord):
        return Ord(mul(e.left.value, e.right.value))
    return None


def _ref_elim_pass(e):
    kids = e.children()
    changed = False
    if kids:
        new_kids = []
        for k in kids:
            nk, ch = _ref_elim_pass(k)
            changed = changed or ch
            new_kids.append(nk)
        if changed:
            e = e.with_children(tuple(new_kids))
    while True:
        r = _ref_elim_local(e)
        if r is None:
            return e, changed
        e = r
        changed = True


def _ref_eliminate_pf(e):
    while True:
        e, changed = _ref_elim_pass(e)
        if not changed:
            return e


def test_eliminate_pf_matches_fixpoint_reference():
    rng = random.Random(5)
    changed = 0
    for _ in range(5000):
        e = random_any_expr(rng, depth=rng.randint(0, 5))
        want = _ref_eliminate_pf(e)
        got = eliminate_pf(e)
        assert got == want, print_expr(e)
        # the input object comes back exactly when no rule fires
        assert (got is e) == (want == e), print_expr(e)
        changed += got is not e
    assert changed >= 1000, changed


@pytest.mark.parametrize("op, part", [("|", "w^w"), ("++", "G(2)")])
def test_eliminate_pf_visits_each_node_a_bounded_number_of_times(monkeypatch, op, part):
    # `children()` runs once per node the pass visits (and once per node
    # a constructor builds), so its calls grow linearly in the chain
    # length; a pass that walks simplified subterms again after every rule
    # makes about 50 calls per node at n = 100 and 200 at n = 400
    calls = [0]
    for cls in (WqoExpr, _Unary, _Binary):
        original = cls.__dict__["children"]

        def counted(self, original=original):
            calls[0] += 1
            return original(self)

        monkeypatch.setattr(cls, "children", counted)
    for n in (100, 200, 400):
        e = Pf(parse_expr(op.join([part] * n)))
        calls[0] = 0
        eliminate_pf(e)
        assert calls[0] <= 3 * expr_size(e), (n, calls[0])
