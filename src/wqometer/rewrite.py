"""Rewrite system for elementary expressions, plus powerset elimination.

The elementary fragment (union, product, words, multisets, powerset over
multiplicatively indecomposable ordinal leaves >= w^w) is confluent and
terminating under the rules below; `normalize_elementary` reduces to the
unique normal form, in which no union sits under a product, multiset or
powerset constructor and no powerset wraps a bare ordinal.  That form can
be exponentially larger than the term, so `normalize_elementary` counts
its nodes from the term first and refuses it past `NF_SIZE_LIMIT`; the
engine reads its values off the term and never builds it.

`eliminate_pf`, used by the invariant engine, is one `fold` with its own
rules: it pushes every finite-powerset constructor down through unions
and lexicographic sums until it either disappears into an ordinal leaf
or gets stuck on a constructor with no elimination rule.  The same rules,
in `_elim_root`, state the unit and zero laws once for the engine, so the
only empty term it leaves is the leaf 0.  None of 0, 1 and G(1) is
elementary, so no law fires inside an elementary term.  `step`,
`is_normal` and `normalize_elementary` all read one rewriting pass,
`_pass`, which keeps its stack on the heap, so nesting costs it no
Python frames.
"""

from __future__ import annotations

from functools import cached_property
from operator import is_not

from .errors import TooLargeError, UnsupportedComputation
from .expr import (
    CartProd,
    DisjUnion,
    Gamma,
    LexProd,
    LexSum,
    Multisets,
    MultisetsN,
    Ord,
    Pf,
    PfPlus,
    Words,
    WqoExpr,
    fold,
    print_expr,
)
from .ordinal import ONE, ZERO, Ordinal, _printable, add, mul
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

    Returns (rule name, path from the root, new expression): the first
    step of `_pass`.  Both strategy names take the same steps (see there).
    """
    _check_strategy(strategy)
    got = next(_pass(e), None)
    if got is None:
        return None
    rule, path, reduct = got
    return rule, path, _replace_at(e, path, reduct)


def is_normal(e: WqoExpr) -> bool:
    return next(_pass(e), None) is None


def normalize_elementary(e: WqoExpr, strategy: str = "innermost"):
    """Reduce an elementary expression to normal form.

    Returns (normal form, RewriteTrace) from the steps of `_pass`, which
    are those of repeated `step` calls: once the subterm at a path has
    been rewritten, everything to its left is normal, so the leftmost
    guarded redex lies inside that reduct or after it.  The fuel bound
    4**n on the number of steps, n the number of nodes in `e`, is a safety
    net only; the system terminates well before it.
    """
    _check_strategy(strategy)
    if e.fragment != "elementary":
        raise UnsupportedComputation(
            "normalize-requires-elementary", print_expr(e)
        )
    size, nodes = _nf_size(e)
    if size > NF_SIZE_LIMIT:
        raise TooLargeError("normal form", size, NF_SIZE_LIMIT, "nodes")
    log: list[tuple[str, tuple[int, ...], WqoExpr]] = []
    steps, fuel = _pass(e), 4 ** nodes
    try:
        while True:
            log.append(next(steps))
            if len(log) > fuel:  # pragma: no cover
                raise RuntimeError(f"rewrite fuel exhausted on {print_expr(e)}")
    except StopIteration as done:
        return done.value, RewriteTrace(e, log)


def _nf_size(e: WqoExpr) -> tuple[int, int]:
    """The numbers of nodes in the normal form of the elementary `e`,
    counted from its structure without rewriting, and in `e` itself."""
    components, _, size, nodes = fold(e, _nf_shape)
    return components - 1 + size, nodes


def _nf_shape(e: WqoExpr, kids: list[tuple[int, ...]]) -> tuple[int, int, int, int]:
    """(components, bare leaves among them, nodes in all of them) of the
    normal form of the elementary `e`, a union of union-free components,
    and the number of nodes in `e`, from those of its children."""
    if isinstance(e, Ord):
        return 1, 1, 1, 1
    if isinstance(e, (DisjUnion, CartProd)):
        (n1, l1, s1, t1), (n2, l2, s2, t2) = kids
        if isinstance(e, DisjUnion):
            return n1 + n2, l1 + l2, s1 + s2, t1 + t2 + 1
        # one product component per pair of components
        return n1 * n2, 0, n1 * n2 + n2 * s1 + n1 * s2, t1 + t2 + 1
    ((n, leaves, size, t),) = kids
    if isinstance(e, Words):
        # no rule splits words: the one component Words(nf)
        return 1, 0, n + size, t + 1
    if isinstance(e, Multisets):
        # the product of M(C) over the components C
        return 1, 0, 2 * n - 1 + size, t + 1
    if n == leaves == 1:
        return 1, 1, 1, t + 1  # Pf of a leaf is the leaf
    # the product of Pf(C) over the components C, with Pf(a) = a
    return 1, 0, 2 * n - 1 + size - leaves, t + 1


def _pass(e: WqoExpr):
    """The guarded leftmost-innermost pass under `_raw_match`: a generator
    that yields each step as (rule, path, reduct) and returns the normal
    form, `e` itself when no rule fires.

    It normalises the children of a node left to right, then rewrites at
    the node until no rule matches.  So a rule fires only at a node whose
    children are all normal: the union-splitting rules duplicate or
    reorder subterms, so firing one on a child that can still rewrite
    would make the result depend on the traversal order.  A term admits
    no guarded step iff no rule pattern occurs anywhere in it, so the
    guard leaves the normal forms unchanged.  It also means no allowed
    redex lies below another, so the leftmost-innermost and the leftmost-
    outermost redex are the same one, and both strategy names take these
    steps.  A node finished without a match is
    normal, and `normal` holds it by id, so no id is reused: met again, in
    a shared subterm or in a copy a rule made, it is a leaf, and only the
    nodes a rule builds are walked again.  A frame on the stack is (node,
    children, normal forms of the children so far), so a step's path is
    read off the stack when it is yielded.
    """
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
        # `x` is normal: every rule rewrites an inner node
        while stack:
            node, kids, nfs = stack[-1]
            nfs.append(x)
            if len(nfs) < len(kids):
                x = kids[len(nfs)]
                break
            stack.pop()
            # a node has at most two children; `x` is the last one's normal form
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


# ---------------------------------------------------------------------------
# powerset elimination
# ---------------------------------------------------------------------------


def eliminate_pf(e: WqoExpr) -> WqoExpr:
    """Push Pf down through unions and lexicographic sums.

    Rules: Pf(a) = 1 + a over an ordinal, Pf(X | Y) = Pf(X) * Pf(Y),
    Pf(X ++ Y) = Pf(X) ++ Pf+(Y), and for the empty-set-less variant
    Pf+(a) = a and Pf+(X ++ Y) = Pf+(X) ++ Pf+(Y).  Sums and lexicographic
    products of raw ordinals fuse into a single ordinal leaf along the way.
    The unit and zero laws: X|0, 0|X, X++0, 0++X, X*1, 1*X, X.1 and 1.X
    are X; X*0, 0*X, X.0, 0.X and Mn(0, n) for n >= 1 are 0; M(0), 0^<w
    and Mn(X, 0) are 1, and so is G(1).
    One `fold` applies them, so each distinct node is eliminated once, a
    shared subterm comes out shared, and depth costs no frames; it returns
    `e` itself when no rule fires.
    """
    return fold(e, _elim)


def _elim(e: WqoExpr, kids: list[WqoExpr]) -> WqoExpr:
    """`e` over its eliminated children `kids`, with the rules applied."""
    if any(map(is_not, kids, e.children())):
        e = e.with_children(tuple(kids))
    return _elim_root(e)


_ONE = Ord(ONE)


def _elim_root(e: WqoExpr) -> WqoExpr:
    """`e`, whose children are already eliminated, with the rules applied
    at its root and at the root of every node a rule builds.  The unit
    and zero laws leave `0` the only empty term."""
    t = type(e)
    if t is Pf or t is PfPlus:
        x = e.arg
        if type(x) is Ord:
            # Pf+(a) = a, and Pf(a) = 1 + a, which is a over an infinite
            # leaf, so no new value to check
            if t is PfPlus or not x.value.is_finite:
                return x
            return _fused(e, add(ONE, x.value), False)
        if type(x) is LexSum or (t is Pf and type(x) is DisjUnion):
            return fold(e, _pf_rule, _pf_parts)
    elif t is DisjUnion or t is LexSum:
        a, b = e.left, e.right
        if _is_leaf(a, ZERO):
            return b
        if _is_leaf(b, ZERO):
            return a
        if t is LexSum and type(a) is Ord and type(b) is Ord:
            return _fused(e, add(a.value, b.value), False)
    elif t is CartProd or t is LexProd:
        a, b = e.left, e.right
        if _is_leaf(a, ZERO) or _is_leaf(b, ONE):
            return a
        if _is_leaf(b, ZERO) or _is_leaf(a, ONE):
            return b
        if t is LexProd and type(a) is Ord and type(b) is Ord:
            return _fused(e, mul(a.value, b.value), True)
    elif t is Words or t is Multisets:
        if _is_leaf(e.arg, ZERO):
            return _ONE
    elif t is MultisetsN:
        if not e.size:
            return _ONE
        if _is_leaf(e.arg, ZERO):
            return e.arg
    elif t is Gamma and e.size == 1:
        return _ONE
    return e


def _is_leaf(e: WqoExpr, value: Ordinal) -> bool:
    return type(e) is Ord and e.value == value


def _pf_parts(e: Pf | PfPlus) -> tuple[WqoExpr, ...]:
    """The nodes whose results the rule at `e` joins: Pf or Pf+ of the two
    sides of the union or sum under `e`, if it has a rule for it."""
    x = e.arg
    if isinstance(x, LexSum):
        return type(e)(x.left), PfPlus(x.right)
    if isinstance(x, DisjUnion) and isinstance(e, Pf):
        return Pf(x.left), Pf(x.right)
    return ()


def _pf_rule(e: Pf | PfPlus, kids: list[WqoExpr]) -> WqoExpr:
    """Pf(X | Y) = Pf(X) * Pf(Y), Pf(X ++ Y) = Pf(X) ++ Pf+(Y) and
    Pf+(X ++ Y) = Pf+(X) ++ Pf+(Y), given the results `kids` for the nodes
    `_pf_parts` names; the other rules at a node it names none for."""
    if not kids:
        return _elim_root(e)
    return _elim_root((CartProd if isinstance(e.arg, DisjUnion) else LexSum)(*kids))


def _fused(e: WqoExpr, value: Ordinal, deep: bool) -> WqoExpr:
    """The leaf `value` when it prints, else `e`, whose value the engine
    then refuses with a reason.  A sum's exponents come from its arguments
    (`deep` false); a product adds exponents, so all are checked."""
    return Ord(value) if _printable(value, deep) else e
