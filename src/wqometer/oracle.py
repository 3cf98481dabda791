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
report against the numbers of `mot`, `height` and `width`.

Orders given by generating pairs (`from_pairs`, `random_quasi_order`) are
closed by one iterative pass of Tarjan's strongly connected components
algorithm over successor lists: each component is finished after every
component it reaches, so its closed row is its members' bits ORed with
the closed rows of its outside successors, one shift-and-test per edge
skipping those already covered.  The cost follows the edges and the
components, not all n^2 pairs.  The components are the equivalence
classes, so the same pass caches the quotient, closed over the graph of
components.

All three work on the quotient, computed once per poset and cached: for
an order built any other way the classes are the groups of equal rows,
since i ~ j exactly when their up-sets are equal.  `mot` counts them.
`height` and `width` visit them by ascending up-set size, an order also
cached on the quotient: `height` assigns levels by a dynamic program
over bitsets, and `width` takes the quotient's size minus
a maximum matching of its strict comparabilities (Dilworth, Koenig),
found by a top-down greedy pass and completed by breadth-first
augmenting-path searches over bitset rows, without recursion.  The `Pf`
builder ANDs per-point membership masks.  The `Mn` builder tests Hall's
condition with one cached mask of multisets per union of up-sets and
threshold, counted bit-parallel over all multisets at once.  The
products `_cart` and `_lexprod` and the words builder `_words` share one
step, `_spread`: a mask times a sum of spaced single bits is a copy of
the mask in each of those blocks.  The words builder computes each
word's up-set one length at a time from that of its tail by that step.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import partial
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
    fold,
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
    "pf_poset",
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
    __slots__ = (*_fields, "_quot", "_asc")

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
        object.__setattr__(self, "_asc", None)  # cached by `_ascending`

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "FinitePoset":
        """Build from a list of (i, j) meaning i <= j; the reflexive
        transitive closure is applied and its quotient cached."""
        succ: list[list[int]] = [[] for _ in range(n)]
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i}, {j}) out of range")
            succ[i].append(j)
        return _transitive_close(succ)

    @classmethod
    def from_json(cls, text: str) -> "FinitePoset":
        """Build from {"n": int, "leq": [[i, j], ...]}; orders above
        SIZE_LIMIT are refused before the closure runs.  JSON booleans
        are not numbers here: `n` must be an integer and `leq` a list of
        two-integer pairs, else ValueError, as for malformed JSON or JSON
        nested too deeply for the decoder."""
        import json

        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
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
        import json

        pairs = [[i, j] for i, r in enumerate(self.rows) for j in _bits(r & ~(1 << i))]
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


def _transitive_close(succ: list[list[int]]) -> FinitePoset:
    """The reflexive transitive closure of the digraph `succ` (w in
    succ[v]: an edge v -> w), with its quotient cached, by one Tarjan
    pass over the successor lists (see the module docstring).  Each
    searched vertex passes its row and low-link back to its parent, so a
    component's root holds the OR of its members' rows when it closes
    the component.  The search keeps its own stack of frames, so a long
    path costs no Python recursion."""
    n = len(succ)
    index = [-1] * n  # search number, n once the vertex's component closed
    rows = [0] * n  # closed rows
    comp = [0] * n  # component of each vertex, numbered as they close
    stack: list[int] = []  # Tarjan's stack of open vertices
    frames = []  # suspended (vertex, successors left, low-link, row)
    count = ncomp = 0
    for v in range(n):
        if index[v] >= 0:
            continue
        index[v] = lo = count
        count += 1
        stack.append(v)
        todo = iter(succ[v])
        row = 1 << v
        while True:
            for w in todo:
                i = index[w]
                if i == n:  # w's component is closed
                    if not row >> w & 1:  # and not yet covered
                        row |= rows[w]
                elif i < 0:  # w is new: search it first
                    frames.append((v, todo, lo, row))
                    v = w
                    index[v] = lo = count
                    count += 1
                    stack.append(v)
                    todo = iter(succ[v])
                    row = 1 << v
                    break
                elif i < lo:  # w is open: v's component reaches back to it
                    lo = i
            else:
                if lo == index[v]:  # v roots a component: close it
                    while True:
                        m = stack.pop()
                        index[m] = n
                        comp[m] = ncomp
                        rows[m] = row
                        if m == v:
                            break
                    ncomp += 1
                if not frames:
                    break
                # back to the parent, whose row cannot hold v yet (v was
                # new to it); a closed component's low-link is its root's
                # number, above the parent's, so it lowers nothing
                child_lo, child_row = lo, row
                v, todo, lo, row = frames.pop()
                row |= child_row
                if child_lo < lo:
                    lo = child_lo
    p = FinitePoset(n, tuple(rows))
    q = False  # every class a singleton: p is its own quotient
    if ncomp < n:
        # the components are the classes: number them by first member, as
        # `quotient` does, and close the condensation over the members in
        # completion order, which puts each component after all it reaches
        num = [-1] * ncomp
        k = 0
        for c in comp:
            if num[c] < 0:
                num[c] = k
                k += 1
        qrows = [0] * ncomp
        for m in sorted(range(n), key=comp.__getitem__):
            c = num[comp[m]]
            r = qrows[c] or 1 << c
            for w in succ[m]:
                r |= qrows[num[comp[w]]]
            qrows[c] = r
        q = FinitePoset(ncomp, tuple(qrows))
        object.__setattr__(q, "_quot", False)
    object.__setattr__(p, "_quot", q)
    return p


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _spread(mask: int, stride: int) -> int:
    """One bit at i * stride for each bit i of `mask`: times a mask below
    2^stride, it places a copy of that mask in each of those blocks."""
    out = 0
    for i in _bits(mask):
        out |= 1 << (i * stride)
    return out


# ---------------------------------------------------------------------------
# building finite orders from expressions
# ---------------------------------------------------------------------------


def est_size(e: WqoExpr, word_len_cap: int | None = None) -> int:
    """Upper estimate of the number of elements `build` enumerates, for
    the whole and for each part it builds on the way; past SIZE_LIMIT it
    stops at SIZE_LIMIT + 1 instead of counting on."""
    return fold(e, partial(_est, word_len_cap), partial(_est_parts, word_len_cap))


def _est_parts(cap: int | None, e: WqoExpr) -> tuple[WqoExpr, ...]:
    """The subexpressions `build` builds for `e`, refusing a node it
    cannot build before any of them."""
    if isinstance(e, Ord) and not e.value.is_finite or not isinstance(e, _BUILDABLE):
        raise UnsupportedComputation("not-a-finite-order", print_expr(e))
    if isinstance(e, Words) and cap is None:
        raise UnsupportedComputation("words-need-length-cap", print_expr(e))
    return _build_parts(e)


def _est(cap: int | None, e: WqoExpr, kids: list[int]) -> int:
    if any(k > SIZE_LIMIT for k in kids):
        # a product with an empty factor, or words of no letters, is
        # smaller than a part that `build` would still enumerate
        return SIZE_LIMIT + 1
    if isinstance(e, Ord):
        n = e.value.nat
    elif isinstance(e, Gamma):
        n = e.size
    elif isinstance(e, (DisjUnion, LexSum)):
        n = kids[0] + kids[1]
    elif isinstance(e, (CartProd, LexProd)):
        n = kids[0] * kids[1]
    elif isinstance(e, (Pf, PfPlus)):
        # 2^b - 1 > SIZE_LIMIT for b its bit length, so a larger power of
        # two changes no verdict
        n = 2 ** min(kids[0], SIZE_LIMIT.bit_length()) - isinstance(e, PfPlus)
    elif isinstance(e, MultisetsN):
        k = min(e.size, SIZE_LIMIT + 1)  # a larger k changes no verdict
        n = comb(kids[0] + k - 1, k) if k else 1
    else:
        s = kids[0]
        # two letters give more than SIZE_LIMIT words of this length alone
        longest = SIZE_LIMIT.bit_length() if s > 1 else SIZE_LIMIT
        n = sum(s**i for i in range(min(cap, longest) + 1))
    return min(n, SIZE_LIMIT + 1)


def build(e: WqoExpr, word_len_cap: int | None = None) -> FinitePoset:
    """Materialise a finite expression as a FinitePoset.

    Words constructors are truncated at `word_len_cap` letters (an
    under-approximation of the infinite order, still exact for the other
    constructors).  Estimated sizes beyond `SIZE_LIMIT` raise TooLargeError
    before any enumeration starts.  Each distinct subexpression is built
    once, and its poset is dropped after the last node built from it, so
    a deep term holds few posets at a time.
    """
    if est_size(e, word_len_cap) > SIZE_LIMIT:
        what = f"oracle build of {print_expr(e)}"
        raise TooLargeError(what, f"more than {SIZE_LIMIT}", SIZE_LIMIT)
    readers: Counter[int] = Counter()
    fold(e, lambda x, _: readers.update(map(id, _build_parts(x))), _build_parts)
    return fold(e, partial(_build_once, word_len_cap, readers), _build_parts)[0]


def _build_parts(e: WqoExpr) -> tuple[WqoExpr, ...]:
    # Mn(A, 0) holds only the empty multiset, whatever A is
    return () if isinstance(e, MultisetsN) and not e.size else e.children()


def _build_once(
    cap: int | None, readers: Counter[int], e: WqoExpr, boxes: list[list[FinitePoset]]
) -> list[FinitePoset]:
    """A box holding the poset of `e`, from the boxes of its parts, each
    emptied at its last read: `readers` counts the reads left per node."""
    kids = []
    for k, box in zip(_build_parts(e), boxes):
        kids.append(box[0])
        readers[id(k)] -= 1
        if not readers[id(k)]:
            box.clear()
    return [_build(cap, e, kids)]


def _build(cap: int | None, e: WqoExpr, kids: list[FinitePoset]) -> FinitePoset:
    if isinstance(e, Ord):
        return _chain(e.value.nat)
    if isinstance(e, Gamma):
        return FinitePoset(e.size, tuple(1 << i for i in range(e.size)))
    if isinstance(e, DisjUnion):
        return _disj(*kids)
    if isinstance(e, LexSum):
        return _lexsum(*kids)
    if isinstance(e, CartProd):
        return _cart(*kids)
    if isinstance(e, LexProd):
        return _lexprod(*kids)
    if isinstance(e, Pf):
        return _pf(kids[0], include_empty=True)
    if isinstance(e, PfPlus):
        return _pf(kids[0], include_empty=False)
    if isinstance(e, MultisetsN):
        return _multisets_n(kids[0], e.size) if e.size else _chain(1)
    return _words(kids[0], cap)


# the constructors `build` builds
_BUILDABLE = (Ord, Gamma, DisjUnion, LexSum, CartProd, LexProd, Pf, PfPlus, MultisetsN, Words)


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
    # element (i, j) gets index i * b.n + j: brow times the `_spread` of
    # arow is a copy of brow in the block of each i2 with i <= i2, which
    # is the row of (i, j)
    rows = []
    for arow in a.rows:
        spread = _spread(arow, b.n)
        rows.extend(brow * spread for brow in b.rows)
    return FinitePoset(a.n * b.n, tuple(rows))


def _lexprod(a: FinitePoset, b: FinitePoset) -> FinitePoset:
    # A.B: pairs (i, j) with the B coordinate dominant; index j * a.n + i.
    # (i, j) <= (i2, j2) iff j < j2, or j ~ j2 and i <= i2: the row of
    # (i, j) has a copy of arow in the block of each j2 in j's class
    # (brow & bcol) and a full block for each j2 strictly above j.
    full_a = (1 << a.n) - 1
    rows = []
    for brow, bcol in zip(b.rows, b.cols()):
        same = _spread(brow & bcol, a.n)
        above = full_a * _spread(brow & ~bcol, a.n)
        rows.extend(arow * same | above for arow in a.rows)
    return FinitePoset(a.n * b.n, tuple(rows))


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
    if k and p.n < 2:
        # one multiset of each size k over one element, none over none; the
        # enumeration would spell it out k entries long, and `build` takes
        # any k here (its estimate is 0 or 1)
        return _chain(p.n)
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
    # where spread[x][L] is the `_spread` of x's row and every[L] that of
    # all letters, with stride size[L-1]: the product places a copy of the
    # mask in each of those disjoint sub-blocks.
    if not p.n:
        # over no letters the empty word is the only word.  The recurrence
        # would give the same one-element order, but only after building
        # lists of cap + 1 entries, and `build` takes any cap for `0^<w`
        # (its estimate is 1): a cap of 10^9 would need gigabytes.
        cap = 0
    if p.n == 1:
        # over one letter a word embeds into every word at least as long,
        # and the words are numbered by length: a chain
        return _chain(cap + 1)
    size = [p.n**length for length in range(cap + 1)]
    start = [sum(size[:length]) for length in range(cap + 1)]
    every = [0] + [_spread((1 << p.n) - 1, s) for s in size[:-1]]
    spread = [[0] + [_spread(row, s) for s in size[:-1]] for row in p.rows]
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
    class is a singleton it is `p` itself.  An order closed from pairs
    has it cached already, taken from the closure's components in the
    same numbering."""
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


def _ascending(q: FinitePoset) -> tuple[int, ...]:
    """The elements of the partial order `q` by ascending up-set size,
    computed once and cached on `q`: each comes after its whole strict
    up-set, since a strict successor has a strictly smaller one."""
    order = q._asc
    if order is None:
        sizes = [r.bit_count() for r in q.rows]
        order = tuple(sorted(range(q.n), key=sizes.__getitem__))
        object.__setattr__(q, "_asc", order)
    return order


def height(p: FinitePoset) -> int:
    """Longest strictly increasing chain, by a level DP over bitsets.

    Visiting the quotient's elements in `_ascending` order puts each
    after its whole strict up-set.  levels[k] is the mask of elements
    whose longest chain upwards has k + 1 elements.  A strict up-set that
    meets levels[k] also meets levels[k - 1] (the successor of a level-k
    member lies in it too), so a binary search finds the first level it
    misses, which is the element's own level."""
    q = quotient(p)
    rows = q.rows
    levels: list[int] = []
    for i in _ascending(q):
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

    The matching starts greedy, top-down: elements are visited in
    `_ascending` order, as in `height`, so each is matched after all
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
    order = _ascending(q)
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
    aprof = [(r.bit_count(), c.bit_count()) for r, c in zip(a.rows, a.cols())]
    bprof = [(r.bit_count(), c.bit_count()) for r, c in zip(b.rows, b.cols())]
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


# the chance that a random quasi-order has some element pairs glued
_GLUE_PROB = 0.2


def random_quasi_order(rng, n: int) -> FinitePoset:
    """Random quasi-order: a random DAG (density drawn uniformly), with
    probability _GLUE_PROB with a few element pairs glued into
    equivalence classes, closed transitively."""
    perm = list(range(n))
    rng.shuffle(perm)
    density = rng.random()
    succ: list[list[int]] = [[] for _ in range(n)]
    for ai in range(n):
        out = succ[perm[ai]]
        for bi in range(ai + 1, n):
            if rng.random() < density:
                out.append(perm[bi])
    if n >= 2 and rng.random() < _GLUE_PROB:
        for _ in range(rng.randint(1, max(1, n // 3))):
            i = rng.randrange(n)
            j = rng.randrange(n)
            succ[i].append(j)
            succ[j].append(i)
    return _transitive_close(succ)


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
