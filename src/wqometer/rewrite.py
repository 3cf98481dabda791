"""Rewrite system for elementary expressions, plus powerset elimination.

The elementary fragment (union, product, words, multisets, powerset over
multiplicatively indecomposable ordinal leaves >= w^w) is confluent and
terminating under the rules below; `normalize_elementary` reduces to the
unique normal form, in which no union sits under a product, multiset or
powerset constructor and no powerset wraps a bare ordinal.  That form can
be exponentially larger than the term, so `normalize_elementary` counts
its nodes from the term first and refuses it past `NF_SIZE_LIMIT`; the
engine reads its values off the term and never builds it.

`eliminate_pf`, used by the invariant engine, is one post-order pass with
its own rules: it pushes every finite-powerset constructor down through
unions and lexicographic sums until it either disappears into an ordinal
leaf or gets stuck on a constructor with no elimination rule.
"""

from __future__ import annotations

from functools import cached_property
from operator import is_not

from .errors import TooLargeError, UnsupportedComputation
from .expr import (
    CartProd,
    DisjUnion,
    LexProd,
    LexSum,
    Multisets,
    Ord,
    Pf,
    PfPlus,
    Words,
    WqoExpr,
    expr_size,
    print_expr,
)
from .ordinal import ONE, Ordinal, _printable, add, mul
from .record import Record

# The largest normal form, in nodes, that `normalize_elementary` builds.
# The normal form of a product of k unions has 2^k components, and a
# printed trace shows the whole term at every step.  With P_k the product
# of k two-leaf unions, the normal form of Pf(M(P_k)) has 1,920 nodes at
# k = 7, 4,352 at k = 8 and 9,728 at k = 9, and `normalize --trace` prints
# 4 MB, 18 MB and 83 MB for them, in 1.3 s, 4.4 s and 25 s (2-vCPU Xeon,
# Python 3.11).  So 2,000 nodes keeps the output near a second, while the
# benchmark's elementary corpus needs at most 356.
NF_SIZE_LIMIT = 2000

__all__ = [
    "RewriteStep",
    "RewriteTrace",
    "step",
    "is_normal",
    "normalize_elementary",
    "eliminate_pf",
]


class RewriteStep(Record):
    __slots__ = _fields = ("rule", "path", "before", "after")

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": list(self.path),
            "before": self.before,
            "after": self.after,
        }


class RewriteTrace:
    """The steps of one normalisation, as `RewriteStep` records.

    It keeps the start term and, per step, the rule, the path and the
    reduct.  `steps` (and so `to_json`) builds the records, with the
    printed term before and after each step, on first read and caches
    them, so a caller that only wants the normal form or the number of
    steps prints nothing.
    """

    def __init__(self, start: WqoExpr, log: list[tuple[str, tuple[int, ...], WqoExpr]]):
        self.start = start
        self.log = log

    @cached_property
    def steps(self) -> list[RewriteStep]:
        steps = []
        cur = self.start
        after = print_expr(cur)
        for rule, path, reduct in self.log:
            before = after
            cur = _replace_at(cur, path, reduct)
            after = print_expr(cur)
            steps.append(RewriteStep(rule, path, before, after))
        return steps

    def to_json(self) -> list[dict]:
        return [s.to_json() for s in self.steps]

    def __len__(self):
        return len(self.log)


def _replace_at(e: WqoExpr, path: tuple[int, ...], new: WqoExpr) -> WqoExpr:
    """`e` with the subterm at `path` replaced by `new`."""
    spine = []
    for i in path:
        spine.append((e, i))
        e = e.children()[i]
    for node, i in reversed(spine):
        kids = list(node.children())
        kids[i] = new
        new = node.with_children(tuple(kids))
    return new


# ---------------------------------------------------------------------------
# the elementary rules
# ---------------------------------------------------------------------------


def _raw_match(e: WqoExpr):
    """Return (rule name, reduct) when a rule pattern matches the root."""
    if isinstance(e, Pf) and isinstance(e.arg, Ord):
        # over an additively indecomposable infinite ordinal, 1 + a = a
        return "powerset-of-ordinal", e.arg
    if isinstance(e, CartProd) and isinstance(e.left, DisjUnion):
        u = e.left
        return (
            "product-over-union-left",
            DisjUnion(CartProd(u.left, e.right), CartProd(u.right, e.right)),
        )
    if isinstance(e, CartProd) and isinstance(e.right, DisjUnion):
        u = e.right
        return (
            "product-over-union-right",
            DisjUnion(CartProd(e.left, u.left), CartProd(e.left, u.right)),
        )
    if isinstance(e, Multisets) and isinstance(e.arg, DisjUnion):
        u = e.arg
        return "multisets-over-union", CartProd(Multisets(u.left), Multisets(u.right))
    if isinstance(e, Pf) and isinstance(e.arg, DisjUnion):
        u = e.arg
        return "powerset-over-union", CartProd(Pf(u.left), Pf(u.right))
    return None


def _check_strategy(strategy: str) -> None:
    if strategy not in ("innermost", "outermost"):
        raise ValueError(f"unknown strategy {strategy!r}")


def step(e: WqoExpr, strategy: str = "innermost"):
    """One rewrite step, or None if `e` is normal.

    Returns (rule name, path from the root, new expression).  A rule fires
    only at a node whose children are all normal: the union-splitting
    rules duplicate or reorder subterms, so firing one on a child that can
    still rewrite would make the result depend on the traversal order.  A
    term admits no guarded step iff no rule pattern occurs anywhere in it,
    so the guard leaves the normal forms unchanged.  It also means no
    allowed redex lies below another, so the leftmost-innermost and the
    leftmost-outermost redex are the same one: `innermost` and `outermost`
    both name the one search below and take the same steps.
    """
    _check_strategy(strategy)
    return _step_at(e)


def _step_at(e: WqoExpr):
    """The first guarded step in post-order: the leftmost child that can
    step, else a rule at `e` itself, whose children are then all normal."""
    kids = e.children()
    for i, k in enumerate(kids):
        got = _step_at(k)
        if got is not None:
            rule, path, nk = got
            new_kids = list(kids)
            new_kids[i] = nk
            return rule, (i,) + path, e.with_children(tuple(new_kids))
    m = _raw_match(e)
    if m is not None:
        return m[0], (), m[1]
    return None


def is_normal(e: WqoExpr) -> bool:
    return _step_at(e) is None


def normalize_elementary(e: WqoExpr, strategy: str = "innermost"):
    """Reduce an elementary expression to normal form.

    Returns (normal form, RewriteTrace).  One innermost pass normalises
    the children of each node left to right, then rewrites at the node
    until no rule matches, normalising each reduct the same way.  It
    takes exactly the steps of repeated `step` calls: once the subterm at
    a path has been rewritten, everything to its left is normal, so the
    leftmost guarded redex lies inside that reduct or after it.  Both
    strategy names take the same steps (see `step`).  The fuel bound
    4**size on the number of steps is a safety net only; the system
    terminates well before it.
    """
    _check_strategy(strategy)
    if e.fragment != "elementary":
        raise UnsupportedComputation(
            "normalize-requires-elementary", print_expr(e)
        )
    size = _nf_size(e)
    if size > NF_SIZE_LIMIT:
        raise TooLargeError("normal form", size, NF_SIZE_LIMIT, "nodes")
    log: list[tuple[str, tuple[int, ...], WqoExpr]] = []
    nf = _norm(e, (), log, 4 ** expr_size(e))
    return nf, RewriteTrace(e, log)


def _nf_size(e: WqoExpr) -> int:
    """The number of nodes in the normal form of the elementary `e`,
    counted from its structure without rewriting."""
    components, _, size = _nf_shape(e)
    return components - 1 + size


def _nf_shape(e: WqoExpr) -> tuple[int, int, int]:
    """(components, bare leaves among them, nodes in all of them) of the
    normal form of the elementary `e`, a union of union-free components."""
    if isinstance(e, Ord):
        return 1, 1, 1
    if isinstance(e, (DisjUnion, CartProd)):
        n1, l1, s1 = _nf_shape(e.left)
        n2, l2, s2 = _nf_shape(e.right)
        if isinstance(e, DisjUnion):
            return n1 + n2, l1 + l2, s1 + s2
        # one product component per pair of components
        return n1 * n2, 0, n1 * n2 + n2 * s1 + n1 * s2
    n, leaves, size = _nf_shape(e.arg)
    if isinstance(e, Words):
        # no rule splits words: the one component Words(nf)
        return 1, 0, n + size
    if isinstance(e, Multisets):
        # the product of M(C) over the components C
        return 1, 0, 2 * n - 1 + size
    if n == leaves == 1:
        return 1, 1, 1  # Pf of a leaf is the leaf
    # the product of Pf(C) over the components C, with Pf(a) = a
    return 1, 0, 2 * n - 1 + size - leaves


def _norm(e: WqoExpr, path: tuple[int, ...], log: list, fuel: int) -> WqoExpr:
    """The normal form of `e`, the subterm at `path`, under `_raw_match`,
    logging each step as (rule, path, reduct); after a step it walks the
    reduct's children again.  It returns `e` itself when no rule fires."""
    while True:
        kids = e.children()
        new_kids = []
        changed = False
        for i, k in enumerate(kids):
            nk = _norm(k, path + (i,), log, fuel)
            new_kids.append(nk)
            changed = changed or nk is not k
        if changed:
            e = e.with_children(tuple(new_kids))
        m = _raw_match(e)
        if m is None:
            return e
        rule, e = m
        log.append((rule, path, e))
        if len(log) > fuel:  # pragma: no cover
            raise RuntimeError(f"rewrite fuel exhausted on {print_expr(e)}")


# ---------------------------------------------------------------------------
# powerset elimination
# ---------------------------------------------------------------------------


def eliminate_pf(e: WqoExpr) -> WqoExpr:
    """Push Pf down through unions and lexicographic sums.

    Rules: Pf(a) = 1 + a over an ordinal, Pf(X | Y) = Pf(X) * Pf(Y),
    Pf(X ++ Y) = Pf(X) ++ Pf+(Y), and for the empty-set-less variant
    Pf+(a) = a and Pf+(X ++ Y) = Pf+(X) ++ Pf+(Y).  Sums and lexicographic
    products of raw ordinals fuse into a single ordinal leaf along the way.
    One post-order pass applies them, visiting each node once; it returns
    `e` itself when no rule fires.  It recurses through `_elim`, so a
    wrapper on this name (such as `bench/tracing.py`'s) sees one call.
    """
    return _elim(e)


def _elim(e: WqoExpr) -> WqoExpr:
    kids = e.children()
    new_kids = tuple(map(_elim, kids))
    if any(map(is_not, new_kids, kids)):
        e = e.with_children(new_kids)
    return _elim_root(e)


def _elim_root(e: WqoExpr) -> WqoExpr:
    """`e`, whose children are already eliminated, with the rules applied
    at its root and at the root of every node a rule builds."""
    if isinstance(e, Pf):
        x = e.arg
        if isinstance(x, Ord):
            # 1 + a = a over an infinite leaf, so no new value to check
            return x if not x.value.is_finite else _fused(e, add(ONE, x.value), False)
        if isinstance(x, DisjUnion):
            return CartProd(_elim_root(Pf(x.left)), _elim_root(Pf(x.right)))
        if isinstance(x, LexSum):
            return _elim_root(LexSum(_elim_root(Pf(x.left)), _elim_root(PfPlus(x.right))))
    elif isinstance(e, PfPlus):
        x = e.arg
        if isinstance(x, Ord):
            return x
        if isinstance(x, LexSum):
            return _elim_root(LexSum(_elim_root(PfPlus(x.left)), _elim_root(PfPlus(x.right))))
    elif isinstance(e, LexSum) and isinstance(e.left, Ord) and isinstance(e.right, Ord):
        return _fused(e, add(e.left.value, e.right.value), False)
    elif isinstance(e, LexProd) and isinstance(e.left, Ord) and isinstance(e.right, Ord):
        return _fused(e, mul(e.left.value, e.right.value), True)
    return e


def _fused(e: WqoExpr, value: Ordinal, deep: bool) -> WqoExpr:
    """The leaf `value` when it prints, else `e`, whose value the engine
    then refuses with a reason.  A sum's exponents come from its arguments
    (`deep` false); a product adds exponents, so all are checked."""
    return Ord(value) if _printable(value, deep) else e
