"""Brute-force ground truth on finite quasi-orders.

A `FinitePoset` stores a reflexive transitive relation as bitmask rows
(`rows[i] >> j & 1` iff i <= j).  `build` turns a finite expression tree
into one, and `mot`/`height`/`width` compute the three invariants directly
(number of classes, longest chain, largest antichain).  The residual
recursions

    o(A) = max_x o({y : not x <= y}) + 1
    h(A) = max_x h({y : y < x}) + 1
    w(A) = max_x w({y : y incomparable to x}) + 1

are kept as `residual_mot`/`residual_height`/`residual_width`, an
independent derivation of the same numbers on instances of at most
`RESIDUAL_CAP` elements.  `check_engine` compares the symbolic engine's
report against these numbers.

Orders given by generating pairs (`from_pairs`, `random_quasi_order`) are
closed by one iterative pass of Tarjan's strongly connected components
algorithm over the bitmask rows: each component is finished after every
component it reaches, so its closed row is the OR of its members' rows
with the closed rows of the outside successors not already covered.
The cost follows the edges and the components, not all n^2 pairs.

All three work on the quotient, computed once per poset and cached: the
classes are the groups of equal rows, since i ~ j exactly when their
up-sets are equal.  `mot` counts them, `height` assigns levels by a
dynamic program over bitsets, and `width` takes the quotient's size minus
a maximum matching of its strict comparabilities (Dilworth, Koenig),
found by a top-down greedy pass and completed by breadth-first
augmenting-path searches over bitset rows, without recursion.  The `Pf`
builder ANDs per-point membership masks.  The `Mn` builder tests Hall's
condition with one cached mask of multisets per union of up-sets and
threshold, counted bit-parallel over all multisets at once.  The words
builder computes each word's up-set one length at a time from that of
its tail, by the replicate-by-multiplication step of the product builder.
"""

from __future__ import annotations

import itertools
import json
from math import comb

from .errors import TooLargeError, UnsupportedComputation
from .expr import (
    CartProd,
    DisjUnion,
    Gamma,
    LexProd,
    LexSum,
    MultisetsN,
    Ord,
    Pf,
    PfPlus,
    Words,
    WqoExpr,
    is_finite_expr,
    print_expr,
)
from .ordinal import Ordinal
from .record import Record

__all__ = [
    "FinitePoset",
    "build",
    "est_size",
    "quotient",
    "mot",
    "height",
    "width",
    "residual_mot",
    "residual_height",
    "residual_width",
    "iso",
    "random_quasi_order",
    "CheckEntry",
    "CheckResult",
    "check_engine",
    "SIZE_LIMIT",
    "RESIDUAL_CAP",
    "ISO_CAP",
]

SIZE_LIMIT = 5000
RESIDUAL_CAP = 20
ISO_CAP = 14


class FinitePoset(Record):
    """Finite quasi-order on {0..n-1}; rows[i] bit j set iff i <= j."""

    _fields = ("n", "rows")
    __slots__ = (*_fields, "_quot")

    def __init__(self, n: int, rows: tuple[int, ...]):
        if len(rows) != n:
            raise ValueError("need one row per element")
        for i, r in enumerate(rows):
            if not r >> i & 1:
                raise ValueError(f"relation not reflexive at {i}")
            if r >> n:
                raise ValueError(f"row {i} has bits beyond n")
        super().__init__(n, tuple(rows))
        object.__setattr__(self, "_quot", None)  # cached by `quotient`

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "FinitePoset":
        """Build from a list of (i, j) meaning i <= j; the reflexive
        transitive closure is applied."""
        rows = [1 << i for i in range(n)]
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i}, {j}) out of range")
            rows[i] |= 1 << j
        _transitive_close(rows)
        return cls(n, tuple(rows))

    @classmethod
    def from_json(cls, text: str) -> "FinitePoset":
        """Build from {"n": int, "leq": [[i, j], ...]}; orders above
        SIZE_LIMIT are refused before the closure runs.  JSON booleans
        are not numbers here: `n` must be an integer and `leq` a list of
        two-integer pairs, else ValueError."""
        data = json.loads(text)
        if not isinstance(data, dict) or "n" not in data or "leq" not in data:
            raise ValueError('expected an object with keys "n" and "leq"')
        n, leq = data["n"], data["leq"]
        if not _is_int(n) or n < 0:
            raise ValueError(
                f'"n" must be a non-negative integer, not {json.dumps(n)}'
            )
        if n > SIZE_LIMIT:
            raise TooLargeError("poset", n, SIZE_LIMIT)
        if not isinstance(leq, list) or not all(
            isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair))
            for pair in leq
        ):
            raise ValueError('"leq" must be a list of [i, j] integer pairs')
        return cls.from_pairs(n, leq)

    def to_json(self) -> str:
        pairs = [
            [i, j]
            for i in range(self.n)
            for j in range(self.n)
            if i != j and self.rows[i] >> j & 1
        ]
        return json.dumps({"n": self.n, "leq": pairs})

    def le(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def cols(self) -> list[int]:
        """cols[j] = mask of i with i <= j (the down-set of j)."""
        out = [0] * self.n
        for i, r in enumerate(self.rows):
            b = 1 << i
            m = r
            while m:
                low = m & -m
                out[low.bit_length() - 1] |= b
                m ^= low
        return out

    def __repr__(self):
        return f"FinitePoset(n={self.n})"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _transitive_close(rows: list[int]):
    """Close the digraph `rows` (bit j of rows[i]: an edge i -> j)
    transitively, in place, by one Tarjan pass (see the module
    docstring).  The search keeps its own stack of frames, so a long
    path costs no Python recursion."""
    n = len(rows)
    index = [0] * n
    low = [0] * n
    seen = done = 0  # masks: numbered by the search / component closed
    stack: list[int] = []  # Tarjan's stack of open vertices
    frames: list[tuple[int, int]] = []  # suspended (vertex, successors)
    count = 0
    for root in range(n):
        if seen >> root & 1:
            continue
        child = root
        while True:
            if child >= 0:
                v, todo = child, rows[child]
                index[v] = low[v] = count
                count += 1
                seen |= 1 << v
                stack.append(v)
            todo &= ~done
            child = -1
            while todo:
                b = todo & -todo
                todo ^= b
                w = b.bit_length() - 1
                if not seen & b:
                    child = w
                    break
                if index[w] < low[v]:  # w is still open
                    low[v] = index[w]
            if child >= 0:
                frames.append((v, todo))
                continue
            if low[v] == index[v]:  # v roots a component: close it
                comp = reach = 0
                members = []
                while True:
                    m = stack.pop()
                    members.append(m)
                    comp |= 1 << m
                    reach |= rows[m]
                    if m == v:
                        break
                ext = reach & ~comp
                while ext:
                    b = ext & -ext
                    r = rows[b.bit_length() - 1]
                    reach |= r
                    ext &= ~(r | b)
                for m in members:
                    rows[m] = reach
                done |= comp
            if not frames:
                break
            w = v
            v, todo = frames.pop()
            if low[w] < low[v]:
                low[v] = low[w]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# building finite orders from expressions
# ---------------------------------------------------------------------------


def est_size(e: WqoExpr, word_len_cap: int | None = None) -> int:
    """Upper estimate of the number of elements `build` enumerates; past
    SIZE_LIMIT it stops at SIZE_LIMIT + 1 instead of counting on."""
    return min(_est(e, word_len_cap), SIZE_LIMIT + 1)


def _est(e: WqoExpr, cap: int | None) -> int:
    if isinstance(e, Ord):
        if not e.value.is_finite:
            raise UnsupportedComputation("not-a-finite-order", print_expr(e))
        return e.value.nat
    if isinstance(e, Gamma):
        return e.size
    if isinstance(e, (DisjUnion, LexSum)):
        return est_size(e.left, cap) + est_size(e.right, cap)
    if isinstance(e, (CartProd, LexProd)):
        return est_size(e.left, cap) * est_size(e.right, cap)
    if isinstance(e, Pf):
        return 2 ** est_size(e.arg, cap)
    if isinstance(e, PfPlus):
        return 2 ** est_size(e.arg, cap) - 1
    if isinstance(e, MultisetsN):
        k = min(e.size, SIZE_LIMIT + 1)  # a larger k changes no verdict
        return comb(est_size(e.arg, cap) + k - 1, k) if k else 1
    if isinstance(e, Words):
        if cap is None:
            raise UnsupportedComputation("words-need-length-cap", print_expr(e))
        s = est_size(e.arg, cap)
        # two letters give more than SIZE_LIMIT words of this length alone
        longest = SIZE_LIMIT.bit_length() if s > 1 else SIZE_LIMIT
        return sum(s**i for i in range(min(cap, longest) + 1))
    raise UnsupportedComputation("not-a-finite-order", print_expr(e))


def build(e: WqoExpr, word_len_cap: int | None = None) -> FinitePoset:
    """Materialise a finite expression as a FinitePoset.

    Words constructors are truncated at `word_len_cap` letters (an
    under-approximation of the infinite order, still exact for the other
    constructors).  Estimated sizes beyond `SIZE_LIMIT` raise TooLargeError
    before any enumeration starts.
    """
    if est_size(e, word_len_cap) > SIZE_LIMIT:
        what = f"oracle build of {print_expr(e)}"
        raise TooLargeError(what, f"more than {SIZE_LIMIT}", SIZE_LIMIT)
    return _build(e, word_len_cap)


def _build(e: WqoExpr, cap: int | None) -> FinitePoset:
    if isinstance(e, Ord):
        return _chain(e.value.nat)
    if isinstance(e, Gamma):
        return FinitePoset(e.size, tuple(1 << i for i in range(e.size)))
    if isinstance(e, DisjUnion):
        return _disj(_build(e.left, cap), _build(e.right, cap))
    if isinstance(e, LexSum):
        return _lexsum(_build(e.left, cap), _build(e.right, cap))
    if isinstance(e, CartProd):
        return _cart(_build(e.left, cap), _build(e.right, cap))
    if isinstance(e, LexProd):
        return _lexprod(_build(e.left, cap), _build(e.right, cap))
    if isinstance(e, Pf):
        return _pf(_build(e.arg, cap), include_empty=True)
    if isinstance(e, PfPlus):
        return _pf(_build(e.arg, cap), include_empty=False)
    if isinstance(e, MultisetsN):
        return _multisets_n(_build(e.arg, cap), e.size)
    if isinstance(e, Words):
        return _words(_build(e.arg, cap), cap)
    raise UnsupportedComputation("not-a-finite-order", print_expr(e))


def _chain(n: int) -> FinitePoset:
    full = (1 << n) - 1
    return FinitePoset(n, tuple((full >> i) << i for i in range(n)))


def _disj(a: FinitePoset, b: FinitePoset) -> FinitePoset:
    rows = list(a.rows) + [r << a.n for r in b.rows]
    return FinitePoset(a.n + b.n, tuple(rows))


def _lexsum(a: FinitePoset, b: FinitePoset) -> FinitePoset:
    hi = ((1 << b.n) - 1) << a.n
    rows = [r | hi for r in a.rows] + [r << a.n for r in b.rows]
    return FinitePoset(a.n + b.n, tuple(rows))


def _cart(a: FinitePoset, b: FinitePoset) -> FinitePoset:
    # element (i, j) gets index i * b.n + j.  spread has one bit at
    # i2 * b.n for each i2 with i <= i2, so brow * spread places a copy
    # of brow in each of those disjoint blocks: the product is their OR.
    rows = []
    for arow in a.rows:
        spread = 0
        for i2 in _bits(arow):
            spread |= 1 << (i2 * b.n)
        rows.extend(brow * spread for brow in b.rows)
    return FinitePoset(a.n * b.n, tuple(rows))


def _lexprod(a: FinitePoset, b: FinitePoset) -> FinitePoset:
    # A.B: pairs (i, j) with the B coordinate dominant; index j * a.n + i.
    # (i, j) <= (i2, j2) iff j < j2, or j == j2 (up to equivalence) and
    # i <= i2.
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


def pf_poset(p: FinitePoset) -> FinitePoset:
    """Powerset of an arbitrary finite quasi-order under domination."""
    if 1 << p.n > SIZE_LIMIT:
        raise TooLargeError("powerset of a poset", 1 << p.n, SIZE_LIMIT)
    return _pf(p, include_empty=True)


def _pf(p: FinitePoset, include_empty: bool) -> FinitePoset:
    # Under domination S <= T iff S is contained in the down-closure of T,
    # so subsets with equal down-closure are equivalent and Pf(p) is the
    # lattice of down-closed sets ordered by inclusion.  Enumerate the
    # closures of all 2^n subsets and dedupe; the row of d is then the AND,
    # over the points x of d, of the mask of closures that contain x.
    cols = p.cols()
    total = 1 << p.n
    down = [0] * total
    for s in range(1, total):
        low = s & -s
        down[s] = down[s ^ low] | cols[low.bit_length() - 1]
    start = 0 if include_empty else 1
    elems = sorted(set(down[start:]))
    n = len(elems)
    contains = [0] * p.n
    for j, d in enumerate(elems):
        bit = 1 << j
        for x in _bits(d):
            contains[x] |= bit
    full = (1 << n) - 1
    rows = []
    for d in elems:
        m = full
        for x in _bits(d):
            m &= contains[x]
        rows.append(m)
    return FinitePoset(n, tuple(rows))


def _multisets_n(p: FinitePoset, k: int) -> FinitePoset:
    # Hall's condition: xs <= ys iff for every non-empty set S of positions
    # of xs, ys has at least |S| entries in U_S, the union of the up-sets
    # of xs[S].  For each union U keep at[U][c], the mask of multisets with
    # at least c entries in U; a row is the AND of at[U_S][|S|] over S.
    # pos[t][x] is the mask of multisets whose t-th entry is x, so the
    # counters for U are bit-parallel: position by position, a multiset
    # whose entry falls in U moves from "at least c - 1" to "at least c".
    elems = list(itertools.combinations_with_replacement(range(p.n), k))
    n = len(elems)
    pos = [[0] * p.n for _ in range(k)]
    for j, ys in enumerate(elems):
        bit = 1 << j
        for t, y in enumerate(ys):
            pos[t][y] |= bit
    at: dict[int, list[int]] = {}

    def at_least(u: int) -> list[int]:
        got = at.get(u)
        if got is None:
            got = [(1 << n) - 1] + [0] * k
            for t, masks in enumerate(pos):
                hit = 0
                m = u
                while m:
                    low = m & -m
                    hit |= masks[low.bit_length() - 1]
                    m ^= low
                for c in range(t + 1, 0, -1):
                    got[c] |= got[c - 1] & hit
            at[u] = got
        return got

    rows = []
    for xs in elems:
        # the largest |S| for each union U_S: S ranges over the sets of
        # distinct values of xs, taken with all their repeats; each subset
        # s of the values (a bitmask) extends s without its lowest member
        need: dict[int, int] = {}
        values = sorted(set(xs))
        counts = [xs.count(v) for v in values]
        us, ts = [0], [0]
        for s in range(1, 1 << len(values)):
            b = (s & -s).bit_length() - 1
            u = us[s & (s - 1)] | p.rows[values[b]]
            t = ts[s & (s - 1)] + counts[b]
            us.append(u)
            ts.append(t)
            if need.get(u, 0) < t:
                need[u] = t
        m = (1 << n) - 1
        for u, t in need.items():
            m &= at_least(u)[t]
        rows.append(m)
    return FinitePoset(n, tuple(rows))


def _words(p: FinitePoset, cap: int) -> FinitePoset:
    # Words of at most `cap` letters, by length and then lexicographically:
    # a·v of length L has index start[L] + a * size[L-1] + (v's index in
    # its block).  R(u, L), the words of length L that u embeds into, is a
    # mask over that block.  u = x·u' embeds into a·v iff it embeds into
    # v, or x <= a and u' embeds into v (matching x first is never worse),
    # so
    #     R(u, L) = R(u, L-1) * every[L] | R(u', L-1) * spread[x][L],
    # where spread[x][L] has a bit at a * size[L-1] for each a >= x and
    # every[L] one for each letter a: as in `_cart`, the product places a
    # copy of the mask in each of those disjoint sub-blocks.
    if not p.n:
        cap = 0  # over no letters the empty word is the only word
    size = [p.n**length for length in range(cap + 1)]
    start = [sum(size[:length]) for length in range(cap + 1)]
    every = [0] * (cap + 1)
    spread = [[0] * (cap + 1) for _ in range(p.n)]
    for length in range(1, cap + 1):
        for a in range(p.n):
            every[length] |= 1 << (a * size[length - 1])
        for x, row in enumerate(p.rows):
            for a in _bits(row):
                spread[x][length] |= 1 << (a * size[length - 1])
    # the empty word embeds into every word
    level = [[(1 << s) - 1 for s in size]]
    rows = [sum(r << at for r, at in zip(level[0], start))]
    for length in range(1, cap + 1):
        shorter, level = level, []
        for i in range(size[length]):
            x, tail = divmod(i, size[length - 1])
            sub, ups = shorter[tail], spread[x]
            r = [0] * (cap + 1)  # R(u, L) for each L
            row = 0
            for L in range(length, cap + 1):
                r[L] = r[L - 1] * every[L] | sub[L - 1] * ups[L]
                row |= r[L] << start[L]
            level.append(r)
            rows.append(row)
    return FinitePoset(len(rows), tuple(rows))


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def quotient(p: FinitePoset) -> FinitePoset:
    """Collapse mutually-related elements; the result is a partial order.

    In a quasi-order i ~ j exactly when their up-sets are equal, so the
    classes are the groups of equal rows, each represented by its first
    element.  The result is computed once and cached on `p`; when every
    class is a singleton it is `p` itself."""
    q = p._quot
    if q is None:
        first: dict[int, int] = {}
        for i, r in enumerate(p.rows):
            first.setdefault(r, i)
        if len(first) == p.n:
            # False marks a poset that is its own quotient: a reference to
            # itself would be a cycle that only the garbage collector frees
            object.__setattr__(p, "_quot", False)
            return p
        reps = list(first.values())
        index = {r: j for j, r in enumerate(reps)}
        rows = []
        for r in reps:
            m = 0
            for x in _bits(p.rows[r]):
                j = index.get(x)
                if j is not None:
                    m |= 1 << j
            rows.append(m)
        q = FinitePoset(len(reps), tuple(rows))
        object.__setattr__(p, "_quot", q)
        object.__setattr__(q, "_quot", False)
    return q or p


def mot(p: FinitePoset) -> int:
    """Maximal order type: for a finite quasi-order, the number of
    equivalence classes."""
    return quotient(p).n


def height(p: FinitePoset) -> int:
    """Longest strictly increasing chain, by a level DP over bitsets.

    In the quotient a strict successor has a strictly smaller up-set, so
    visiting elements by ascending up-set size puts each after its whole
    strict up-set.  levels[k] is the mask of elements whose longest chain
    upwards has k + 1 elements.  A strict up-set that meets levels[k]
    also meets levels[k - 1] (the successor of a level-k member lies in
    it too), so a binary search finds the first level it misses, which is
    the element's own level."""
    q = quotient(p)
    rows = q.rows
    levels: list[int] = []
    for i in sorted(range(q.n), key=lambda i: rows[i].bit_count()):
        strict = rows[i] & ~(1 << i)
        lo, hi = 0, len(levels)
        while lo < hi:
            mid = (lo + hi) // 2
            if strict & levels[mid]:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(levels):
            levels.append(0)
        levels[lo] |= 1 << i
    return len(levels)


def width(p: FinitePoset) -> int:
    """Largest antichain via Dilworth + Koenig: the quotient's size minus a
    maximum matching on its strict comparability bipartite graph.

    The matching starts greedy, top-down: elements are visited by
    ascending up-set size, as in `height`, so each is matched after all
    its strict successors and the chains grow downwards from the maximal
    elements.  It is completed by one breadth-first augmenting-path search
    per unmatched vertex, all over bitset rows and without recursion.  A
    failed search leaves the matching as it was, so the right vertices it
    saw cannot reach a free one and stay excluded until the next
    augmentation."""
    q = quotient(p)
    n = q.n
    rows = q.rows
    adj = [r & ~(1 << i) for i, r in enumerate(rows)]
    mate_l = [-1] * n  # right vertex matched to each left vertex
    mate_r = [-1] * n  # left vertex matched to each right vertex
    free = (1 << n) - 1  # unmatched right vertices
    order = sorted(range(n), key=lambda i: rows[i].bit_count())
    for i in order:
        a = adj[i] & free
        if a:
            j = (a & -a).bit_length() - 1
            mate_l[i], mate_r[j] = j, i
            free ^= 1 << j
    parent = [-1] * n  # left vertex whose edge reached each left's mate
    seen = 0
    for u in order:
        if mate_l[u] >= 0:
            continue
        parent[u] = -1
        queue = [u]
        end = -1
        for v in queue:
            new = adj[v] & ~seen
            if not new:
                continue
            hit = new & free
            if hit:
                end = v
                j = (hit & -hit).bit_length() - 1
                break
            seen |= new
            while new:
                low = new & -new
                w = mate_r[low.bit_length() - 1]
                parent[w] = v
                queue.append(w)
                new ^= low
        if end < 0:
            continue
        free ^= 1 << j
        v = end
        while v >= 0:
            prev = mate_l[v]
            mate_l[v], mate_r[j] = j, v
            j, v = prev, parent[v]
        seen = 0
    return mate_l.count(-1)  # n minus the size of the matching


def _residual_rank(p: FinitePoset, residue: list[int]) -> int:
    if p.n > RESIDUAL_CAP:
        raise TooLargeError("residual recursion", p.n, RESIDUAL_CAP)
    memo: dict[int, int] = {0: 0}

    def rank(mask: int) -> int:
        got = memo.get(mask)
        if got is None:
            got = max(rank(mask & residue[x]) + 1 for x in _bits(mask))
            memo[mask] = got
        return got

    return rank((1 << p.n) - 1) if p.n else 0


def residual_mot(p: FinitePoset) -> int:
    """o(A) = max over x of o({y : not x <= y}) + 1."""
    return _residual_rank(p, [~r for r in p.rows])


def residual_height(p: FinitePoset) -> int:
    """h(A) = max over x of h({y : y < x}) + 1."""
    cols = p.cols()
    less = [cols[x] & ~p.rows[x] for x in range(p.n)]
    return _residual_rank(p, less)


def residual_width(p: FinitePoset) -> int:
    """w(A) = max over x of w({y : y and x incomparable}) + 1."""
    cols = p.cols()
    inc = [~(p.rows[x] | cols[x]) for x in range(p.n)]
    return _residual_rank(p, inc)


# ---------------------------------------------------------------------------
# isomorphism (up to equivalence)
# ---------------------------------------------------------------------------


def iso(p: FinitePoset, q: FinitePoset) -> bool:
    """Are the quotients of p and q order-isomorphic?  Backtracking with
    degree-profile pruning; capped to keep worst cases tame."""
    a, b = quotient(p), quotient(q)
    if a.n != b.n:
        return False
    if a.n > ISO_CAP:
        raise TooLargeError("isomorphism test", a.n, ISO_CAP)
    n = a.n
    acols, bcols = a.cols(), b.cols()

    def profile(rows, cols, i):
        return (bin(rows[i]).count("1"), bin(cols[i]).count("1"))

    aprof = [profile(a.rows, acols, i) for i in range(n)]
    bprof = [profile(b.rows, bcols, i) for i in range(n)]
    if sorted(aprof) != sorted(bprof):
        return False

    image = [-1] * n
    used = [False] * n

    def assign(i: int) -> bool:
        if i == n:
            return True
        for j in range(n):
            if used[j] or aprof[i] != bprof[j]:
                continue
            ok = True
            for i2 in range(i):
                j2 = image[i2]
                if (a.rows[i] >> i2 & 1) != (b.rows[j] >> j2 & 1) or (
                    a.rows[i2] >> i & 1
                ) != (b.rows[j2] >> j & 1):
                    ok = False
                    break
            if ok:
                image[i] = j
                used[j] = True
                if assign(i + 1):
                    return True
                used[j] = False
        image[i] = -1
        return False

    return assign(0)


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------


def random_quasi_order(rng, n: int, glue_prob: float = 0.2) -> FinitePoset:
    """Random quasi-order: a random DAG (density drawn uniformly),
    optionally with a few element pairs glued into equivalence classes,
    closed transitively."""
    perm = list(range(n))
    rng.shuffle(perm)
    density = rng.random()
    rows = [1 << i for i in range(n)]
    for ai in range(n):
        for bi in range(ai + 1, n):
            if rng.random() < density:
                rows[perm[ai]] |= 1 << perm[bi]
    if n >= 2 and rng.random() < glue_prob:
        for _ in range(rng.randint(1, max(1, n // 3))):
            i = rng.randrange(n)
            j = rng.randrange(n)
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    _transitive_close(rows)
    return FinitePoset(n, tuple(rows))


# ---------------------------------------------------------------------------
# engine cross-check
# ---------------------------------------------------------------------------


class CheckEntry(Record):
    """One invariant compared; `status` is match, contained, skipped or mismatch."""

    __slots__ = _fields = ("invariant", "expected", "result", "status")

    def to_json(self) -> dict:
        return {
            "invariant": self.invariant,
            "oracle": self.expected,
            "engine": self.result.to_json(),
            "status": self.status,
        }


class CheckResult:
    def __init__(self, expression: str):
        self.expression = expression
        self.entries: list[CheckEntry] = []

    @property
    def ok(self) -> bool:
        return all(e.status != "mismatch" for e in self.entries)

    def to_json(self) -> dict:
        return {
            "expression": self.expression,
            "ok": self.ok,
            "entries": [e.to_json() for e in self.entries],
        }


def check_engine(e: WqoExpr, word_len_cap: int | None = None) -> CheckResult:
    """Compare the symbolic engine's invariants of `e` with brute force.

    Words constructors (if any) are only sampled up to `word_len_cap`
    letters, so for them the oracle value is a lower fragment: exact and
    upper claims are not contradicted by it and only lower bounds are
    required to hold eventually; such entries are skipped unless they
    mismatch outright below the cap.
    """
    from . import engine  # local import: engine does not depend on us

    report = engine.invariants(e)
    p = build(e, word_len_cap)
    truth = {"mot": mot(p), "height": height(p), "width": width(p)}
    res = CheckResult(print_expr(e))
    exact_order = is_finite_expr(e)
    for name, result in (
        ("mot", report.mot),
        ("height", report.height),
        ("width", report.width),
    ):
        value = truth[name]
        # truncated words: the finite fragment only witnesses lower
        # behaviour; engine lower bounds must not exceed the supremum,
        # which a fragment cannot refute, so just record the numbers
        if not exact_order or result.kind == "unsupported":
            status = "skipped"
        elif not result.admits(Ordinal.from_nat(value)):
            status = "mismatch"
        else:
            status = "match" if result.kind == "exact" else "contained"
        res.entries.append(CheckEntry(name, value, result, status))
    return res
