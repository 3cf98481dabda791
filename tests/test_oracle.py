"""Brute-force oracle: builders, invariants, residual recursion, iso."""

import itertools
import json
import math
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from wqometer import (
    CartProd,
    FinitePoset,
    InvariantReport,
    InvariantResult,
    LexSum,
    Ordinal,
    TooLargeError,
    UnsupportedComputation,
    build,
    check_engine,
    engine,
    height,
    iso,
    mot,
    parse_expr,
    pf_poset,
    print_expr,
    quotient,
    random_quasi_order,
    width,
)
from wqometer.oracle import (
    ISO_CAP,
    SIZE_LIMIT,
    RESIDUAL_CAP,
    _cart,
    _chain,
    _lexprod,
    _multisets_n,
    _pf,
    _transitive_close,
    _words,
    est_size,
    residual_height,
    residual_mot,
    residual_width,
)

from genlib import finite_terms


def p(src):
    return build(parse_expr(src))


def test_chains_and_antichains():
    for n in range(1, 7):
        c = p(f"o({n})")
        assert (mot(c), height(c), width(c)) == (n, n, 1)
        a = p(f"G({n})")
        assert (mot(a), height(a), width(a)) == (n, 1, n)


def test_empty_order():
    e = p("0")
    assert e.n == 0
    assert (mot(e), height(e), width(e)) == (0, 0, 0)


def test_sum_and_product_builders():
    d = p("G(2)|G(3)")
    assert (mot(d), height(d), width(d)) == (5, 1, 5)

    s = p("o(2)++o(3)")
    assert (mot(s), height(s), width(s)) == (5, 5, 1)

    g = p("o(2)*o(3)")  # 2x3 grid
    assert (mot(g), height(g), width(g)) == (6, 4, 2)

    l = p("o(2).o(3)")  # lexicographic: a chain of 6
    assert (mot(l), height(l), width(l)) == (6, 6, 1)

    m = p("G(2)*G(2)")
    assert (mot(m), height(m), width(m)) == (4, 1, 4)


def test_pf_of_antichain():
    # down-closed subsets of the trivial order on k points: the boolean
    # lattice, with one layer per cardinality and the middle layer widest
    for k in range(1, 6):
        q = p(f"Pf(G({k}))")
        assert q.n == 2**k
        assert mot(q) == 2**k
        assert height(q) == k + 1
        assert width(q) == math.comb(k, k // 2)


def test_pf_of_chain_is_a_chain():
    # down-closed subsets of a chain form a chain with one extra bottom
    for n in range(0, 6):
        q = p(f"Pf(o({n}))")
        assert q.n == n + 1
        assert iso(q, p(f"o({n + 1})"))


def test_pf_plus_drops_only_the_empty_set():
    q = p("Pf+(G(3))")
    assert q.n == 2**3 - 1
    assert height(q) == 3


def test_multisets_n_builder():
    # multisets of size 2 over a 2-antichain: aa, ab, bb -- pairwise
    # incomparable under domination
    q = p("Mn(G(2),2)")
    assert (mot(q), height(q), width(q)) == (3, 1, 3)
    # over a 2-chain: aa <= ab <= bb
    q = p("Mn(o(2),2)")
    assert (mot(q), height(q), width(q)) == (3, 3, 1)
    # size 0: just the empty multiset
    q = p("Mn(G(3),0)")
    assert (mot(q), height(q), width(q)) == (1, 1, 1)


def test_words_builder_is_capped():
    e = parse_expr("G(2)^<w")
    with pytest.raises(UnsupportedComputation):
        build(e)
    q = build(e, word_len_cap=3)
    # 1 + 2 + 4 + 8 words of length <= 3, no two equivalent
    assert q.n == 15
    assert mot(q) == 15
    assert height(q) == 4  # empty < a < aa < aaa
    # over a singleton alphabet the capped word order is a chain
    c = build(parse_expr("G(1)^<w"), word_len_cap=4)
    assert iso(c, p("o(5)"))
    # 3,280 words, built by the bitset recurrence without pairwise tests
    q = build(parse_expr("G(3)^<w"), word_len_cap=7)
    assert q.n == mot(q) == sum(3**i for i in range(8))
    assert height(q) == 8
    assert q.rows[0] == (1 << q.n) - 1  # the empty word is the least


def test_build_builds_each_distinct_subterm_once(monkeypatch):
    import wqometer.oracle as oracle

    calls = []
    real = oracle._build

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracle, "_build", counted)
    part = parse_expr("Pf(G(3)|G(3))")
    p = build(LexSum(CartProd(part, part), part))
    # G(3), G(3)|G(3), its powerset of 64 elements, the product and the sum
    assert len(calls) == 5
    assert p.n == 64 * 64 + 64


def test_est_size_matches_build():
    for src, cap in [
        ("Pf(G(3))", None),
        ("o(2)*o(3)", None),
        ("Mn(G(2),2)", None),
        ("G(2)^<w", 2),
    ]:
        e = parse_expr(src)
        est = est_size(e, cap)
        got = build(e, cap)
        assert got.n <= est  # estimate never undercounts


def test_size_estimates_stop_past_the_limit():
    # exact counts would be 2^16384 (too many digits to print), 2^(2^40)
    # (too large to compute) and sum(2^i) over 300,001 lengths
    for src, cap in [
        ("Pf(Pf(G(14)))", None),
        ("Pf(Pf(G(40)))", None),
        ("G(2)^<w", 300_000),
        ("Mn(G(5000),100000)", None),
        ("Mn(G(2),1000000000000)", None),
        # empty or one-element wholes of parts too large to enumerate
        (f"o({10**100})*0", None),
        (f"0.o({10**100})", None),
        ("o(10000)^<w", 0),
    ]:
        assert est_size(parse_expr(src), cap) == SIZE_LIMIT + 1, src
        with pytest.raises(TooLargeError, match=f"more than {SIZE_LIMIT}"):
            build(parse_expr(src), cap)
    assert est_size(parse_expr("G(1)^<w"), 10**9) == SIZE_LIMIT + 1
    # at most one multiset of any size over at most one element
    for src, n in [("Mn(G(1),1000000000000)", 1), ("Mn(0,3)", 0), (f"Mn(0,{10**100})", 0)]:
        assert est_size(parse_expr(src)) == build(parse_expr(src)).n == n
    # over no letters only the empty word exists, whatever the cap
    assert est_size(parse_expr("0^<w"), 10**9) == 1
    assert build(parse_expr("0^<w"), 10**9).n == 1


def test_size_limit_guards_before_enumeration():
    with pytest.raises(TooLargeError):
        build(parse_expr("Pf(Pf(G(4)))"))  # estimated 2^16 elements
    with pytest.raises(TooLargeError):
        build(parse_expr("o(500)*o(500)"))


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: FinitePoset(2, (0b01,)), ValueError, "need one row per element"),
        (lambda: FinitePoset(2, (0b01, 0b01)), ValueError, "not reflexive at 1"),
        (lambda: FinitePoset(2, (0b101, 0b10)), ValueError, "row 0 has bits beyond n"),
        (lambda: pf_poset(_chain(13)), TooLargeError, "needs 8192 elements"),
    ],
    ids=["row-count", "not-reflexive", "bits-past-n", "pf-poset-of-13"],
)
def test_a_library_caller_s_bad_poset_is_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()
    assert pf_poset(_chain(12)).n == 13  # at the cap: the down-sets of the chain


def test_residual_caps():
    big = random_quasi_order(random.Random(1), RESIDUAL_CAP + 1)
    with pytest.raises(TooLargeError):
        residual_mot(big)
    # a chain and an antichain: both quotients have ISO_CAP + 1 classes
    with pytest.raises(TooLargeError):
        iso(_chain(ISO_CAP + 1), p(f"G({ISO_CAP + 1})"))


def test_residual_matches_direct_computation():
    rng = random.Random(99)
    for _ in range(150):
        q = random_quasi_order(rng, rng.randint(1, 12))
        assert residual_mot(q) == mot(q)
        assert residual_height(q) == height(q)
        assert residual_width(q) == width(q)


def test_quotient_collapses_equivalent_elements():
    cyc = FinitePoset.from_pairs(3, [(0, 1), (1, 0), (1, 2)])
    q = quotient(cyc)
    assert q.n == 2
    assert (mot(cyc), height(cyc), width(cyc)) == (2, 2, 1)
    # a quasi-order is iso to its own quotient
    assert iso(cyc, q)


def test_iso_basic():
    assert not iso(p("G(2)"), p("o(2)"))
    assert iso(p("o(2)*o(2)"), p("o(2)*o(2)"))
    # diamond vs square-with-diagonal are different orders
    diamond = FinitePoset.from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    chain4 = p("o(4)")
    assert not iso(diamond, chain4)
    # iso is insensitive to element numbering
    perm = FinitePoset.from_pairs(4, [(3, 2), (3, 1), (2, 0), (1, 0)])
    assert iso(diamond, perm)


def test_iso_search_rejects_orders_with_equal_degree_profiles():
    # both have the (up-set, down-set) sizes (2, 1) and (1, 2) twice and
    # (3, 1) and (1, 3) once, so only the backtracking search tells them apart
    a = FinitePoset.from_pairs(6, [(0, 3), (1, 3), (2, 4), (2, 5)])
    b = FinitePoset.from_pairs(6, [(0, 4), (1, 2), (1, 4), (3, 5)])

    def profiles(q):
        return sorted((r.bit_count(), c.bit_count()) for r, c in zip(q.rows, q.cols()))

    assert profiles(a) == profiles(b)
    assert not iso(a, b)
    assert iso(a, a) and iso(b, b)


def test_pf_distributes_over_disjoint_union_iso():
    lhs = p("Pf(G(1)|o(2))")
    rhs = p("Pf(G(1))*Pf(o(2))")
    assert iso(lhs, rhs)


def test_random_quasi_order_reproducible_and_valid():
    a = random_quasi_order(random.Random(7), 9)
    b = random_quasi_order(random.Random(7), 9)
    assert a == b
    for _ in range(50):
        q = random_quasi_order(random.Random(_), 8)
        # transitivity: i <= j implies row(i) contains row(j)
        for i in range(q.n):
            for j in range(q.n):
                if q.le(i, j):
                    assert q.rows[j] & ~q.rows[i] == 0


def _warshall(rows):
    """The closure the oracle used before its SCC pass, kept as the
    reference: Warshall's loop over all n^2 pairs."""
    n = len(rows)
    for k in range(n):
        rk = rows[k]
        bit = 1 << k
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rk


# The sampler before the glue pairs joined the first closure, kept as the
# reference: it closes the DAG, glues, and closes again.  It draws what
# `random_quasi_order` draws, and so gives the same orders, also at the
# other glue probabilities that the tests below ask of it.
def _ref_random_quasi_order(rng, n, glue_prob=0.2):
    perm = list(range(n))
    rng.shuffle(perm)
    density = rng.random()
    rows = [1 << i for i in range(n)]
    for ai in range(n):
        for bi in range(ai + 1, n):
            if rng.random() < density:
                rows[perm[ai]] |= 1 << perm[bi]
    _warshall(rows)
    if n >= 2 and rng.random() < glue_prob:
        for _ in range(rng.randint(1, max(1, n // 3))):
            i = rng.randrange(n)
            j = rng.randrange(n)
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        _warshall(rows)
    return FinitePoset(n, tuple(rows))


def test_random_quasi_order_matches_two_closure_reference():
    glued = 0
    for seed in range(300):
        n = seed % 60
        got = random_quasi_order(random.Random(seed), n)
        assert got == _ref_random_quasi_order(random.Random(seed), n), seed
        glued += quotient(got).n < n
    assert glued >= 20


def test_json_round_trip():
    q = random_quasi_order(random.Random(5), 7)
    again = FinitePoset.from_json(q.to_json())
    assert again == q
    # the strict pairs row by row, as a scan of all n^2 pairs lists them
    for seed in range(20):
        r = random_quasi_order(random.Random(seed), 3 * seed)
        pairs = [[i, j] for i in range(r.n) for j in range(r.n) if i != j and r.le(i, j)]
        assert r.to_json() == json.dumps({"n": r.n, "leq": pairs})
    with pytest.raises(ValueError):
        FinitePoset.from_pairs(2, [(0, 5)])


# JSON documents of every shape, among them objects with the keys "n" and
# "leq" and values of the right and of wrong types
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.just(SIZE_LIMIT + 1)
    | st.floats() | st.text(max_size=2),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["n", "leq", "x"]), kids, max_size=3),
    max_leaves=10,
)


@given(_JSON | st.fixed_dictionaries({"n": _JSON, "leq": _JSON}))
def test_from_json_refuses_only_with_value_or_size_errors(data):
    # the CLI turns these two into exits 2 and 5, and catches nothing else
    try:
        FinitePoset.from_json(json.dumps(data))
    except (ValueError, TooLargeError):
        pass


@pytest.mark.parametrize(
    "text", ["[" * 100_000, '{"n": 1, "leq": ' + "[" * 100_000], ids=["array", "leq"]
)
def test_from_json_refuses_deep_nesting_with_value_error(text):
    with pytest.raises(ValueError, match="JSON nested too deeply"):
        FinitePoset.from_json(text)


def test_check_engine_exact_expression():
    res = check_engine(parse_expr("o(2)|o(3)"))
    assert res.ok
    assert [e.status for e in res.entries] == ["match", "match", "match"]
    assert [e.invariant for e in res.entries] == ["mot", "height", "width"]

    # product width has no general rule: the engine declines, the checker
    # records a skip rather than a mismatch, and o/h still match exactly
    res = check_engine(parse_expr("(o(2)|o(3))*G(2)"))
    assert res.ok
    assert [e.status for e in res.entries] == ["match", "match", "skipped"]


def test_check_engine_flags_a_report_the_oracle_refutes(monkeypatch):
    # G(2) has o = 2: a report claiming exactly 3 is a mismatch, and the
    # other two invariants are still compared
    e = parse_expr("G(2)")
    rep = engine.invariants(e)
    three = InvariantResult.exact(Ordinal.from_nat(3))
    wrong = InvariantReport(three, rep.height, rep.width, rep.weak_mot, rep.notes)
    monkeypatch.setattr(engine, "invariants", lambda x: wrong)
    res = check_engine(e)
    assert not res.ok
    assert [x.status for x in res.entries] == ["mismatch", "match", "match"]
    assert res.entries[0].expected == 2 and res.entries[0].result == three


def test_every_small_finite_term_meets_the_oracle():
    # a bounded-exhaustive gate: each of the 8,414 terms of at most two
    # constructors within the size cap, and every component the engine
    # supports, agrees with brute force; the floor pins how many
    # components are exact, so a rule that turns exact values into bounds
    # or refusals fails too
    terms = finite_terms()
    assert len(terms) == 8_414
    mismatches, exact = [], 0
    for e in terms:
        for entry in check_engine(e).entries:
            if entry.status == "mismatch":
                mismatches.append((print_expr(e), entry.invariant))
            exact += entry.status == "match"
    assert mismatches == []
    assert exact >= 19_599


def test_check_engine_pf_bounds_contained():
    res = check_engine(parse_expr("Pf(G(4))"))
    assert res.ok
    by_name = {e.invariant: e for e in res.entries}
    assert by_name["mot"].expected == 16
    assert by_name["height"].expected == 5
    assert by_name["width"].expected == 6
    # engine reports Table-style bounds here, so containment, not equality
    assert by_name["mot"].status in {"match", "contained"}


def test_check_engine_words_capped_is_skipped():
    res = check_engine(parse_expr("G(2)^<w"), word_len_cap=2)
    assert res.ok
    assert all(e.status == "skipped" for e in res.entries)


def test_check_result_json_shape():
    res = check_engine(parse_expr("Pf(G(2))"))
    data = res.to_json()
    assert data["expression"] == "Pf(G(2))"
    assert data["ok"] is True
    assert all(
        set(entry) == {"invariant", "oracle", "engine", "status"}
        for entry in data["entries"]
    )


def test_width_does_not_recurse():
    # 600 elements need long augmenting paths; a recursive matching runs
    # out of stack under a small recursion limit
    q = _ref_random_quasi_order(random.Random(3), 600, 0.0)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        assert width(q) == 3
    finally:
        sys.setrecursionlimit(limit)


def test_quotient_is_cached():
    cyc = FinitePoset.from_pairs(3, [(0, 1), (1, 0), (1, 2)])
    q = quotient(cyc)
    assert quotient(cyc) is q
    assert quotient(q) is q  # a quotient is a partial order already
    chain = p("o(3)")
    assert quotient(chain) is chain
    # height and width read one order of the quotient, sorted once
    assert height(cyc) == 2 and width(cyc) == 1
    order = q._asc
    assert order == (1, 0) and width(cyc) == 1 and q._asc is order
    # the cache takes no part in equality or hashing
    fresh = FinitePoset.from_pairs(3, [(0, 1), (1, 0), (1, 2)])
    assert cyc == fresh and hash(cyc) == hash(fresh)


# ---------------------------------------------------------------------------
# differential checks against pairwise reference implementations
# ---------------------------------------------------------------------------


def _ref_quotient(q):
    """Pairwise scan for classes; the first member represents each."""
    reps = []
    for i in range(q.n):
        if not any(q.le(i, r) and q.le(r, i) for r in reps):
            reps.append(i)
    rows = [
        sum(1 << j for j, r2 in enumerate(reps) if q.le(r, r2)) for r in reps
    ]
    return FinitePoset(len(reps), tuple(rows))


def _ref_height(q):
    """Longest chain in a partial order, by recursion over successors."""
    memo = {}

    def up(i):
        if i not in memo:
            memo[i] = 1 + max(
                (up(j) for j in range(q.n) if j != i and q.le(i, j)), default=0
            )
        return memo[i]

    return max((up(i) for i in range(q.n)), default=0)


def _ref_width(q):
    """Size minus a maximum matching of a partial order's strict
    comparabilities (Kuhn's recursive augmenting paths)."""
    match_to = [-1] * q.n

    def try_aug(i, seen):
        for j in range(q.n):
            if j != i and q.le(i, j) and not seen[j]:
                seen[j] = True
                if match_to[j] < 0 or try_aug(match_to[j], seen):
                    match_to[j] = i
                    return True
        return False

    return q.n - sum(try_aug(i, [False] * q.n) for i in range(q.n))


@st.composite
def _quasi_orders(draw, max_n=60):
    n = draw(st.integers(0, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    glue = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return _ref_random_quasi_order(random.Random(seed), n, glue)


@settings(max_examples=150, deadline=None)
@given(_quasi_orders())
def test_invariants_match_pairwise_references(q):
    ref = _ref_quotient(q)
    assert quotient(q).rows == ref.rows
    assert quotient(q).cols() == ref.cols()
    assert mot(q) == ref.n
    assert height(q) == _ref_height(ref)
    assert width(q) == _ref_width(ref)
    if q.n <= RESIDUAL_CAP:
        assert residual_mot(q) == mot(q)
        assert residual_height(q) == height(q)
        assert residual_width(q) == width(q)


@settings(max_examples=60, deadline=None)
@given(_quasi_orders(max_n=5), st.booleans())
def test_pf_rows_match_subset_definition(base, include_empty):
    # the elements are the distinct down-closures of subsets, in increasing
    # order, and d <= d2 iff d is a subset of d2
    down = set()
    for s in range(0 if include_empty else 1, 1 << base.n):
        down.add(
            sum(
                1 << x
                for x in range(base.n)
                if any(s >> y & 1 and base.le(x, y) for y in range(base.n))
            )
        )
    elems = sorted(down)
    got = _pf(base, include_empty)
    assert got.n == len(elems)
    for i, d in enumerate(elems):
        assert got.rows[i] == sum(
            1 << j for j, d2 in enumerate(elems) if d & ~d2 == 0
        )


@settings(max_examples=60, deadline=None)
@given(_quasi_orders(max_n=5), st.integers(0, 4))
# the sizes the benchmark builds, then k = 0, k = 1 and the empty base
@example(p("G(8)"), 3)
@example(p("G(6)"), 4)
@example(p("G(16)"), 2)
@example(p("o(9)"), 3)
@example(p("G(3)"), 0)
@example(p("o(4)"), 1)
@example(p("0"), 0)
@example(p("0"), 2)
def test_multisets_rows_match_injection_search(base, k):
    # xs <= ys iff some ordering of ys dominates xs position by position
    elems = list(itertools.combinations_with_replacement(range(base.n), k))
    got = _multisets_n(base, k)
    assert got.n == len(elems)
    for i, xs in enumerate(elems):
        want = 0
        for j, ys in enumerate(elems):
            if any(
                all(base.le(x, y) for x, y in zip(xs, perm))
                for perm in itertools.permutations(ys)
            ):
                want |= 1 << j
        assert got.rows[i] == want


def _embeds_word(base, u, v) -> bool:
    """Does word u embed into word v?  A greedy earliest-match scan;
    correct because letter compatibility does not depend on position."""
    j = 0
    for x in u:
        while j < len(v) and not base.le(x, v[j]):
            j += 1
        if j >= len(v):
            return False
        j += 1
    return True


def _assert_words_match_pairwise_embedding(base, cap):
    # the words of length <= cap, by length and then lexicographically
    elems = [
        w
        for length in range(cap + 1)
        for w in itertools.product(range(base.n), repeat=length)
    ]
    got = _words(base, cap)
    assert got.n == len(elems)
    for i, u in enumerate(elems):
        assert got.rows[i] == sum(
            1 << j for j, v in enumerate(elems) if _embeds_word(base, u, v)
        )


@settings(max_examples=80, deadline=None)
@given(_quasi_orders(max_n=4), st.integers(0, 4))
def test_words_rows_match_pairwise_embedding(base, cap):
    _assert_words_match_pairwise_embedding(base, cap)


@pytest.mark.parametrize("cap", range(7))
def test_words_over_one_letter_match_pairwise_embedding(cap):
    _assert_words_match_pairwise_embedding(FinitePoset(1, (1,)), cap)


def test_words_over_one_letter_are_built_as_a_chain(monkeypatch):
    # the general recurrence, quadratic in the cap here (1.7 s at 4,999),
    # spreads the letters' rows first; it must not run
    def no_spread(mask, stride):
        raise AssertionError("the general recurrence ran")

    monkeypatch.setattr("wqometer.oracle._spread", no_spread)
    assert _words(FinitePoset(1, (1,)), 4999) == _chain(5000)


def test_width_matches_networkx_hopcroft_karp():
    nx = pytest.importorskip("networkx")

    def nx_width(q):
        r = quotient(q)
        g = nx.Graph()
        left = [("l", i) for i in range(r.n)]
        g.add_nodes_from(left)
        g.add_nodes_from(("r", j) for j in range(r.n))
        g.add_edges_from(
            (("l", i), ("r", j))
            for i in range(r.n)
            for j in range(r.n)
            if i != j and r.le(i, j)
        )
        matching = nx.bipartite.hopcroft_karp_matching(g, top_nodes=left)
        return r.n - len(matching) // 2

    rng = random.Random(11)
    cases = [_ref_random_quasi_order(rng, rng.randint(30, 150), 0.5) for _ in range(20)]
    cases += [p(src) for src in ("Pf(G(8))", "Mn(o(6),3)", "Pf(o(2)*o(3))", "o(9)*o(14)")]
    # dense orders shaped as the benchmark draws them, where the top-down
    # greedy leaves few vertices to augment
    for n, degree, glue in ((300, 10, 0), (450, 40, 20), (600, 10, 0), (600, 40, 10)):
        cases.append(FinitePoset.from_pairs(n, _random_dag_pairs(rng, n, degree, glue)))
    for q in cases:
        assert width(q) == nx_width(q)


def _random_dag_pairs(rng, n, degree, glue):
    """Pairs of a random DAG on a shuffled order with mean out-degree
    about `degree`, plus `glue` pairs related both ways."""
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = [
        (perm[a], perm[b])
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < degree / n
    ]
    for _ in range(glue):
        i, j = rng.randrange(n), rng.randrange(n)
        pairs += [(i, j), (j, i)]
    return pairs


# ---------------------------------------------------------------------------
# the transitive closure and product rows against their old loops
# ---------------------------------------------------------------------------


@st.composite
def _digraphs(draw, max_n=80):
    """Random digraphs as successor lists: any density, cycles, optional
    self-loops, repeated edges in any order, and some vertices cut off
    from every edge."""
    n = draw(st.integers(0, max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.6, 1.0]))
    loops = draw(st.sampled_from([0.0, 0.5, 1.0]))
    repeats = draw(st.sampled_from([0.0, 0.3]))
    isolated = {i for i in range(n) if rng.random() < 0.1}
    succ = []
    for i in range(n):
        out = [j for j in range(n) if i != j and j not in isolated and rng.random() < density]
        out += [j for j in out if rng.random() < repeats]
        out += [i] * (rng.random() < loops)
        rng.shuffle(out)
        succ.append([] if i in isolated else out)
    return succ


def _reflexive_rows(succ):
    """The digraph's edges as bitmask rows, with every vertex's own bit."""
    return [sum(1 << w for w in set(out)) | 1 << v for v, out in enumerate(succ)]


@settings(max_examples=200, deadline=None)
@given(_digraphs())
def test_transitive_close_matches_warshall(succ):
    want = _reflexive_rows(succ)
    _warshall(want)
    assert _transitive_close(succ).rows == tuple(want)


@settings(max_examples=200, deadline=None)
@given(_digraphs())
def test_closure_caches_the_quotient_of_its_rows(succ):
    # the components of the search are the classes, numbered by first
    # member like those `quotient` finds among equal rows
    q = FinitePoset.from_pairs(len(succ), [(v, w) for v, out in enumerate(succ) for w in out])
    got = quotient(q)
    for want in (quotient(FinitePoset(q.n, q.rows)), _ref_quotient(q)):
        assert got.rows == want.rows
        assert got.cols() == want.cols()


def test_transitive_close_matches_warshall_on_bench_shaped_order():
    # sparse 600-element DAG, as the benchmark's random orders draw them,
    # with 200 glue pairs that merge parts of it into large classes
    rng = random.Random(600)
    n = 600
    perm = list(range(n))
    rng.shuffle(perm)
    succ = [[] for _ in range(n)]
    for ai in range(n):
        for bi in range(ai + 1, n):
            if rng.random() < 0.01:
                succ[perm[ai]].append(perm[bi])
    for _ in range(200):
        i, j = rng.randrange(n), rng.randrange(n)
        succ[i].append(j)
        succ[j].append(i)
    want = _reflexive_rows(succ)
    _warshall(want)
    got = _transitive_close(succ)
    assert got.rows == tuple(want)
    assert 1 < quotient(got).n < n
    assert quotient(got) == _ref_quotient(got)


def test_from_pairs_matches_networkx_transitive_closure():
    nx = pytest.importorskip("networkx")
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(0, 60)
        pairs = [
            (rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randint(0, 2 * n))
        ]
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(pairs)
        closed = nx.transitive_closure(g, reflexive=True)
        want = [0] * n
        for i, j in closed.edges:
            want[i] |= 1 << j
        assert FinitePoset.from_pairs(n, pairs).rows == tuple(want)


def test_transitive_close_does_not_recurse():
    # a 5,000-element path and cycle take 5,000-deep searches; gluing 4,000
    # back to 1,000 makes one class of the 3,001 elements between them
    n = 5000
    path_pairs = [(i, i + 1) for i in range(n - 1)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        path = FinitePoset.from_pairs(n, path_pairs)
        cycle = FinitePoset.from_pairs(n, [(i, (i + 1) % n) for i in range(n)])
        glued = FinitePoset.from_pairs(n, path_pairs + [(4000, 1000)])
    finally:
        sys.setrecursionlimit(limit)
    assert height(path) == n
    assert mot(cycle) == 1
    assert quotient(glued) == _chain(2000)
    assert glued.rows[1000] == glued.rows[4000] == _chain(n).rows[1000]


def _ref_cart(a, b):
    """The product rows as the oracle built them before: one shifted copy
    of the B row per bit of the A row."""
    rows = []
    for i in range(a.n):
        for j in range(b.n):
            m = 0
            for i2 in range(a.n):
                if a.rows[i] >> i2 & 1:
                    m |= b.rows[j] << (i2 * b.n)
            rows.append(m)
    return FinitePoset(a.n * b.n, tuple(rows))


@settings(max_examples=100, deadline=None)
@given(_quasi_orders(max_n=12), _quasi_orders(max_n=12))
def test_cart_rows_match_per_bit_loop(a, b):
    assert _cart(a, b) == _ref_cart(a, b)


def test_cart_with_empty_factors():
    empty, c3 = p("0"), p("o(3)")
    for a, b in ((empty, c3), (c3, empty), (empty, empty)):
        got = _cart(a, b)
        assert got.n == 0 and got == _ref_cart(a, b)


def _ref_lexprod(a, b):
    """The lexicographic product rows as the oracle built them before:
    one pass per pair (j, j2) of B with j <= j2, ORing A's row into the
    block of j2 when j2 ~ j and the full block when j2 is strictly above."""
    n = a.n * b.n
    full_a = (1 << a.n) - 1
    rows = [0] * n
    for j in range(b.n):
        for j2 in range(b.n):
            if not b.rows[j] >> j2 & 1:
                continue
            equiv = bool(b.rows[j2] >> j & 1)
            for i in range(a.n):
                block = a.rows[i] if equiv else full_a
                rows[j * a.n + i] |= block << (j2 * a.n)
    return FinitePoset(n, tuple(rows))


@settings(max_examples=100, deadline=None)
@given(_quasi_orders(max_n=12), _quasi_orders(max_n=12))
def test_lexprod_rows_match_per_pair_loop(a, b):
    assert _lexprod(a, b) == _ref_lexprod(a, b)


def test_lexprod_with_empty_factors():
    empty, c3 = p("0"), p("o(3)")
    for a, b in ((empty, c3), (c3, empty), (empty, empty)):
        got = _lexprod(a, b)
        assert got.n == 0 and got == _ref_lexprod(a, b)
