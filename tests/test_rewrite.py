"""Rewrite system: rule fixtures, strategies, traces, Pf elimination,
and the normal-form shape each elementary node keeps."""

import copy
import pickle
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
from wqometer.ordinal import ONE, ZERO, add, mul

from wqometer import engine, rewrite
from wqometer.expr import WqoExpr, _Binary, _Unary, expr_size, fold
from wqometer.rewrite import NF_SIZE_LIMIT, _nf_size, _raw_match

from genlib import one_of_each, random_any_expr, random_elementary

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


def _guarded_redexes(e, path=()):
    """The paths of the guarded redexes in `e`, the nodes where a rule
    matches and no child holds a pattern, and whether `e` holds none."""
    paths, free = [], True
    for i, k in enumerate(e.children()):
        below, kid_free = _guarded_redexes(k, (*path, i))
        paths += below
        free = free and kid_free
    match = _raw_match(e) is not None
    if match and free:
        paths.append(path)
    return paths, free and not match


def _rewrite_at(e, path):
    if not path:
        return _raw_match(e)[1]
    kids = list(e.children())
    kids[path[0]] = _rewrite_at(kids[path[0]], path[1:])
    return e.with_children(tuple(kids))


def test_rewriting_at_random_guarded_redexes_reaches_the_normal_form():
    # confluence, checked apart from the pass: both strategy names of
    # `normalize_elementary` take the pass's steps, while here each step
    # rewrites a guarded redex drawn at random
    rng = random.Random(4242)
    not_leftmost = 0
    for _ in range(500):
        start = cur = random_elementary(rng, rng.randint(1, 20))
        while True:
            paths, _ = _guarded_redexes(cur)
            if not paths:
                break
            path = rng.choice(paths)
            not_leftmost += path != min(paths)
            cur = _rewrite_at(cur, path)
        assert cur == normalize_elementary(start)[0], print_expr(start)
    assert not_leftmost > 100, not_leftmost


def _stepwise_trace(e, strategy):
    """The trace of iterating the guarded reference search `_ref_step`,
    which shares no code with the pass, printing the whole term each time."""
    steps = []
    while True:
        got = _ref_step(e, strategy)
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
    # 1,900 alternating M/Pf levels over a union, whose normal form of
    # 1,904 nodes stays under the size limit; the rewriting pass keeps its
    # stack on the heap, so depth costs it no frames
    e = DisjUnion(Ord(o("w^w")), Ord(o("w^(w^2)")))
    for i in range(1900):
        e = Multisets(e) if i % 2 == 0 else Pf(e)
    nf, trace = normalize_elementary(e)
    assert expr_size(nf) == 1904 <= NF_SIZE_LIMIT
    assert is_normal(nf)
    assert len(trace) == 1 and trace.steps[0].path == (0,) * 1899


def test_normal_form_size_is_predicted_without_rewriting():
    rng = random.Random(31)
    for _ in range(600):
        e = random_elementary(rng, rng.randint(1, 60))
        nf, _ = normalize_elementary(e)
        assert _nf_size(e) == (expr_size(nf), expr_size(e)), print_expr(e)
    # the 450-level tower's normal form grows by one node per level
    e = DisjUnion(Ord(o("w^w")), Ord(o("w^(w^2)")))
    for i in range(450):
        e = Multisets(e) if i % 2 == 0 else Pf(e)
    assert _nf_size(e)[0] == expr_size(normalize_elementary(e)[0]) == 454 <= NF_SIZE_LIMIT


# The fold that counted the normal form from the term before each
# constructor kept the count, and a walk that looks for a redex with
# `_raw_match`: together the reference for `nf_shape`.
def _ref_nf_shape(e, kids):
    if isinstance(e, Ord):
        return 1, 1, 1, 1
    if isinstance(e, (DisjUnion, CartProd)):
        (n1, l1, s1, t1), (n2, l2, s2, t2) = kids
        if isinstance(e, DisjUnion):
            return n1 + n2, l1 + l2, s1 + s2, t1 + t2 + 1
        return n1 * n2, 0, n1 * n2 + n2 * s1 + n1 * s2, t1 + t2 + 1
    ((n, leaves, size, t),) = kids
    if isinstance(e, Words):
        return 1, 0, n + size, t + 1
    if isinstance(e, Multisets):
        return 1, 0, 2 * n - 1 + size, t + 1
    if n == leaves == 1:
        return 1, 1, 1, t + 1
    return 1, 0, 2 * n - 1 + size - leaves, t + 1


def _check_shapes(e):
    """Every node of `e` keeps the reference shape, and a node outside
    the elementary fragment none; returns how many were elementary."""
    count = []

    def up(x, kids):
        if x.fragment != "elementary":
            assert not hasattr(x, "nf_shape"), print_expr(x)
            return None
        redex = _raw_match(x) is not None or any(k[4] for k in kids)
        ref = (*_ref_nf_shape(x, [k[:4] for k in kids]), redex)
        assert x.nf_shape == ref, print_expr(x)
        count.append(x)
        return ref

    fold(e, up)
    return len(count)


def _steps(e, pass_=None):
    """The steps of a rewriting pass over `e`, as (rule, path, printed
    reduct), and its printed normal form."""
    steps, gen = [], (pass_ or rewrite._pass)(e)
    try:
        while True:
            rule, path, reduct = next(gen)
            steps.append((rule, path, print_expr(reduct)))
    except StopIteration as done:
        return steps, print_expr(done.value)


def test_every_node_keeps_its_normal_form_shape():
    # built by the constructors, the parser, the rewriting pass and its
    # steps, `_replace_at`, `with_children`, copying and pickling
    rng = random.Random(38)
    checked = 0
    for _ in range(300):
        e = random_elementary(rng, rng.randint(1, 25))
        built = [e, parse_expr(print_expr(e)), e.with_children(e.children())]
        built += [copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))]
        path, x = (), e
        while x.children():
            i = rng.randrange(len(x.children()))
            path, x = path + (i,), x.children()[i]
        built.append(rewrite._replace_at(e, path, random_elementary(rng, rng.randint(1, 5))))
        gen = rewrite._pass(e)
        try:
            while True:
                built.append(next(gen)[2])
        except StopIteration as done:
            nf = done.value
        built.append(nf)
        assert nf.nf_shape[4] is False and is_normal(nf)
        assert e.nf_shape[4] is not is_normal(e)
        got = step(e)
        if got is not None:
            built.append(got[2])
        checked += sum(_check_shapes(x) for x in built)
    assert checked > 20_000
    # outside the fragment no node has a shape
    rng = random.Random(39)
    for _ in range(300):
        _check_shapes(random_any_expr(rng, rng.randint(0, 4)))
    assert all(_check_shapes(x) == (x.fragment == "elementary") for x in one_of_each())


def _pass_entering_every_node(e):
    """`rewrite._pass` as it was before it skipped a subterm with no
    redex: the specification of its steps."""
    stack = []
    normal = {}
    x = e
    while True:
        if id(x) not in normal:
            kids = x.children()
            if kids:
                stack.append((x, kids, []))
                x = kids[0]
                continue
        while stack:
            node, kids, nfs = stack[-1]
            nfs.append(x)
            if len(nfs) < len(kids):
                x = kids[len(nfs)]
                break
            stack.pop()
            if x is not kids[-1] or nfs[0] is not kids[0]:
                node = node.with_children(tuple(nfs))
            m = _raw_match(node)
            if m is not None:
                rule, x = m
                yield rule, tuple([len(f[2]) for f in stack]), x
                break
            x = normal[id(node)] = node
        else:
            return x


def test_the_pass_that_skips_normal_subterms_takes_the_same_steps():
    rng = random.Random(40)
    rewritten = 0
    for i in range(400):
        e = random_elementary(rng, rng.randint(1, 30)) if i % 2 else random_any_expr(rng, 4)
        got = _steps(e)
        assert got == _steps(e, _pass_entering_every_node), print_expr(e)
        rewritten += e.fragment == "elementary" and bool(got[0])
    assert rewritten > 100


def test_oversized_normal_forms_are_refused_before_rewriting(monkeypatch):
    # the normal form of a product of k unions has 2^k components
    calls = []
    real = rewrite._raw_match
    monkeypatch.setattr(rewrite, "_raw_match", lambda e: calls.append(e) or real(e))

    def pf_m_product(k):
        return parse_expr("Pf(M(" + "*".join(["(o(w^w)|o(w^(w^2)))"] * k) + "))")

    assert _nf_size(pf_m_product(7))[0] == 1920
    normalize_elementary(pf_m_product(7))
    assert calls
    calls.clear()
    for k in (8, 15, 40):
        with pytest.raises(TooLargeError) as ei:
            normalize_elementary(pf_m_product(k))
        assert ei.value.size == _nf_size(pf_m_product(k))[0] > NF_SIZE_LIMIT
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
    # the unit and zero laws: 0 is the only empty term, and 1 a unit of
    # both products
    zero, one = Ord(ZERO), Ord(ONE)
    if e == Gamma(1):
        return one
    if isinstance(e, (DisjUnion, LexSum)):
        if e.left == zero:
            return e.right
        if e.right == zero:
            return e.left
    if isinstance(e, (CartProd, LexProd)):
        if zero in (e.left, e.right):
            return zero
        if e.left == one:
            return e.right
        if e.right == one:
            return e.left
    if isinstance(e, (Words, Multisets)) and e.arg == zero:
        return one
    if isinstance(e, MultisetsN):
        if e.size == 0:
            return one
        if e.arg == zero:
            return zero
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


def test_the_pass_walks_no_normal_subterm_again(monkeypatch):
    # a node finished without a match is a leaf to the pass when it is met
    # again, in a copy a union-splitting rule made, so only the nodes a
    # rule builds are walked again; a pass that walks every reduct whole
    # makes 3,008 visits at k = 5 and 23,386 at k = 7
    calls = [0]
    for cls in (WqoExpr, _Unary, _Binary):
        original = cls.__dict__["children"]

        def counted(self, original=original):
            calls[0] += 1
            return original(self)

        monkeypatch.setattr(cls, "children", counted)
    for k in (5, 6, 7):
        e = parse_expr("Pf(M(" + "*".join(["(o(w^w)|o(w^(w^2)))"] * k) + "))")
        calls[0] = 0
        steps = sum(1 for _ in rewrite._pass(e))
        visits = calls[0]
        nf, trace = normalize_elementary(e)
        assert len(trace) == steps
        assert visits <= 2 * (expr_size(e) + expr_size(nf)), (k, visits)


# `eliminate_pf` as one fold that takes every node as its own step, each
# spine node of a chain included, kept as the specification of the fold
# that takes a whole chain as one step
def _per_node_eliminate_pf(e):
    def elim(x, kids):
        if any(k is not c for k, c in zip(kids, x.children())):
            x = x.with_children(tuple(kids))
        return rewrite._elim_root(x)

    return fold(e, elim)


# chain parts that meet every law of the elimination: zero parts, `1`
# factors, ordinal prefixes of a `++` chain that fuse, G(1), powersets
# over chains and elementary sub-unions
_CHAIN_PARTS = [
    "0",
    "1",
    "3",
    "w",
    "w^2",
    "G(1)",
    "G(2)",
    "G(3)*1",
    "1*Phi(w)",
    "2++3++w",
    "Pf(2++3++w)",
    "Pf(w|G(2)|0)",
    "Pf+(G(2)++w++0)",
    "o(w^w)|o(w^(w^2))",
    "Pf(o(w^w)|o(w^(w^2)))",
    "M(G(1)|0)",
    "Sim(w)",
]


def _random_chain(rng):
    """A chain of 2-30 parts joined by one operator or a mix, optionally
    under Pf, and optionally beside a Pf of its two-part prefix, so that
    the prefix is also a node of its own."""
    pool = _CHAIN_PARTS + [print_expr(random_any_expr(rng, 2)) for _ in range(3)]
    pool = rng.sample(pool, rng.randint(1, 6))
    ops = rng.choice([["|"], ["++"], ["|", "++"], ["|", "++", "*", "."]])
    parts = [f"({rng.choice(pool)})" for _ in range(rng.randint(2, 30))]
    joined = [rng.choice(ops) for _ in parts[1:]]
    text = parts[0]
    for op, p in zip(joined, parts[1:]):
        text = f"{text}{op}{p}"
    if rng.random() < 0.3:
        text = f"{text}{joined[0]}Pf({parts[0]}{joined[0]}{parts[1]})"
    if rng.random() < 0.3:
        text = f"{rng.choice(['Pf', 'Pf+'])}({text})"
    return text


def _report(e):
    try:
        return invariants(e).to_json()
    except Exception as exc:  # the same refusal on both sides
        return f"{type(exc).__name__}: {exc}"


def test_chain_elimination_matches_the_per_node_fold(monkeypatch):
    rng = random.Random(34)
    changed = 0
    for _ in range(2000):
        text = _random_chain(rng)
        e = parse_expr(text)
        got, want = eliminate_pf(e), _per_node_eliminate_pf(e)
        assert print_expr(got) == print_expr(want), text
        assert (got is e) == (want is e), text
        changed += got is not e
        report = _report(e)
        with monkeypatch.context() as m:
            # the engine evaluates the per-node fold's term, read as itself
            m.setattr(engine, "_elim_as_parts", lambda x: (_per_node_eliminate_pf(x), None))
            assert _report(e) == report, text
    assert changed >= 1000, changed


def test_a_chain_is_one_elimination_step(monkeypatch):
    # a 10,000-part chain of three distinct leaves: one step per distinct
    # part and one for the chain, not one per spine node
    calls = []
    elim = rewrite._elim
    monkeypatch.setattr(rewrite, "_elim", lambda x, kids: calls.append(x) or elim(x, kids))
    leaves = ["G(2)", "w", "Phi(3)"]
    e = parse_expr("|".join(leaves[i % 3] for i in range(10_000)))
    assert eliminate_pf(e) is e
    assert len(calls) == 4


@pytest.mark.parametrize("op", ["|", "++"])
def test_an_unchanged_chain_is_its_own_elimination(op):
    e = parse_expr(op.join(["G(2)", "w", "Phi(3)", "M(G(2))"] * 5))
    assert eliminate_pf(e) is e
    assert rewrite._elim_as_parts(e) == (e, None)


@pytest.mark.parametrize("op", ["|", "++"])
def test_a_chain_changed_in_its_last_part_keeps_its_spine(op):
    e = parse_expr(op.join(["G(2)", "w", "Phi(3)"] * 5 + ["Pf(3)"]))
    got = eliminate_pf(e)
    assert got.left is e.left
    assert got.right == Ord(parse_ordinal("4"))


@pytest.mark.parametrize(
    "text",
    [
        # zero parts, first, inside and last, and all of them
        "0|G(2)|w",
        "G(2)|0|w",
        "G(2)|w|0",
        "0++0++w",
        "0|0|0",
        # `++` fusion, printable and at the print limit, and a 0 between
        "1++2++w",
        "w++1++2",
        "2++0++3++G(2)",
        f"o({'9' * 4300})++o({'9' * 4300})++w",
        # the shapes the engine reads off a built spine
        "((G(2)|w)*1)|G(3)",
        "(o(w^w)*1)|o(w^(w^2))|G(2)",
        "(o(w^w)*1)|o(w^(w^2))",
        "(G(2)*1)|w",
        "G(1)|w",
        # omega-elementary parts
        "(w|w)++(w|w)++0",
        "(w*1)|w|w",
    ],
)
def test_a_chain_read_as_its_parts_is_the_spine_read(text):
    e = parse_expr(text)
    full = eliminate_pf(e)
    term, parts = rewrite._elim_as_parts(e)
    if parts is None:
        assert term == full and (term is e) == (full is e)
    else:
        assert term is e is not full
        assert parts == rewrite._chain_parts(full)
    invariants(e)  # the omega-elementary height is checked where it applies


def test_a_random_chain_read_as_its_parts_is_the_spine_read():
    rng = random.Random(42)
    read = 0
    for _ in range(1000):
        e = parse_expr(_random_chain(rng))
        if e.fragment == "elementary":
            continue
        full = eliminate_pf(e)
        term, parts = rewrite._elim_as_parts(e)
        if parts is None:
            assert term == full and (term is e) == (full is e)
            continue
        read += 1
        want = rewrite._chain_parts(full)
        assert term is e and parts == want
        # the same parts are one object where the spine's are
        assert [[x is y for y in parts] for x in parts] == [[x is y for y in want] for x in want]
    assert read >= 300, read


def test_omega_elementary_chains_keep_height_w():
    # a `++` chain is in no fragment, so its height w*2 is not checked
    # against w; a `|` chain of omega-elementary parts is
    for text in ("(w|w)++(w|w)", "(w|w)++(w|w)++0"):
        r = invariants(parse_expr(text))
        assert [str(x) for x in (r.mot, r.height, r.width)] == ["w*4", "w*2", "2"]
    r = invariants(parse_expr("(w*1)|w|w"))
    assert r.height.value == OMEGA
