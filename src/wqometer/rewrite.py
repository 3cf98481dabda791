"""Rewrite system for elementary expressions, plus powerset elimination.

The elementary fragment (union, product, words, multisets, powerset over
multiplicatively indecomposable ordinal leaves >= w^w) is confluent and
terminating under the rules below; `normalize_elementary` reduces to the
unique normal form, in which no union sits under a product, multiset or
powerset constructor and no powerset wraps a bare ordinal.  That form can
be exponentially larger than the term, so `normalize_elementary` reads
its size off the term first and refuses it past `NF_SIZE_LIMIT`; the
engine reads its values off the term and never builds it.  Each
elementary node's constructor sets its `nf_shape` from its children's:
the size of its normal form, and whether a redex lies at or below it, a
redex being a node of the shapes `expr._REDEXES` lists, which
`_raw_match` reads too.

`eliminate_pf`, used by the invariant engine, is one `fold` with its own
rules: it pushes every finite-powerset constructor down through unions
and lexicographic sums until it either disappears into an ordinal leaf
or gets stuck on a constructor with no elimination rule.  The same rules,
in `_elim_root`, state the unit and zero laws once for the engine, so the
only empty term it leaves is the leaf 0.  None of 0, 1 and G(1) is
elementary, so no law fires inside an elementary term.  `step`,
`is_normal` and `normalize_elementary` all read one rewriting pass,
`_pass`, which keeps its stack on the heap, so nesting costs it no
Python frames, and enters no elementary subterm without a redex.
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
    _REDEXES,
    fold,
    print_expr,
)
from .ordinal import ONE, ZERO, Ordinal, _printable, add, mul
from .record import Record

# The largest normal form, in nodes, that `normalize_elementary` builds;
# the size is read off the term's `nf_shape`, before any step.  The normal
# form of a product of k unions has 2^k components, and a printed trace
# shows the whole term at every step.  With P_k the product
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
    """Return (rule name, reduct) when a rule pattern matches the root: a
    redex of `_REDEXES`, read at its left child first."""
    kinds = _REDEXES.get(type(e), ())
    for u in e.children():
        if type(u) in kinds:
            break
    else:
        return None
    if type(u) is Ord:
        # over an additively indecomposable infinite ordinal, 1 + a = a
        return "powerset-of-ordinal", u
    if type(e) is not CartProd:
        rule = "multisets-over-union" if type(e) is Multisets else "powerset-over-union"
        return rule, CartProd(type(e)(u.left), type(e)(u.right))
    a, b = e.left, e.right
    if u is a:
        return "product-over-union-left", DisjUnion(CartProd(u.left, b), CartProd(u.right, b))
    return "product-over-union-right", DisjUnion(CartProd(a, u.left), CartProd(a, u.right))


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
    which its constructor counted from its children's without rewriting
    (see `expr._shape`), and in `e` itself."""
    components, _, size, nodes, _ = e.nf_shape
    return components - 1 + size, nodes


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
    steps.  An elementary node whose `nf_shape` says no redex lies at or
    below it is normal, and so is a node finished without a match, which
    `normal` holds by id, so no id is reused: met again, in a shared
    subterm or in a copy a rule made, either is a leaf, and only the nodes
    with a redex, and outside the fragment those a rule builds, are walked
    again.  A frame on the stack is (node, children, normal forms of the
    children so far), so a step's path is read off the stack when it is
    yielded.
    """
    stack = []
    normal = {}
    x = e
    while True:
        if id(x) not in normal:
            kids = x.children()
            if kids and (x.fragment != "elementary" or x.nf_shape[4]):
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
    One `fold` applies them, and it takes a chain A1|...|An or A1++...++An
    as one step over the parts `_chain_parts` names, so each distinct part
    and each distinct node off a chain is eliminated once, a shared
    subterm comes out shared, and depth costs no frames; it returns `e`
    itself when no rule fires.  A spine node that also stands alone, as
    A|B does in (A|B)|C beside Pf(A|B), is eliminated in the chain and on
    its own, so it may come out as two equal objects.
    """
    return fold(e, _elim, _elim_parts)


def _chain_parts(e: DisjUnion | LexSum) -> list[WqoExpr]:
    """The parts A1, ..., An of the chain A1|...|An or A1++...++An at `e`,
    left to right: the nodes off its left spine, down to the first node of
    another kind (or an elementary union).  `eliminate_pf` and the
    engine's fold both take a chain as one step over these parts."""
    node = type(e)
    parts = []
    while isinstance(e, node) and e.fragment != "elementary":
        parts.append(e.right)
        e = e.left
    parts.append(e)
    parts.reverse()
    return parts


def _elim_parts(e: WqoExpr) -> list[WqoExpr] | tuple[WqoExpr, ...]:
    """The nodes `_elim` reads at `e`, and the engine's rule at any node
    but a fact or Pf+: the parts of a chain that is not elementary, else
    the children (an elementary union is its own only part, so it takes
    its children)."""
    t = type(e)
    if (t is DisjUnion or t is LexSum) and e.fragment != "elementary":
        return _chain_parts(e)
    return e.children()


def _elim(e: WqoExpr, kids: list[WqoExpr]) -> WqoExpr:
    """`e` over its eliminated children, or at a chain over its eliminated
    parts `kids`, with the rules applied.  A chain is rebuilt up its left
    spine with the rules applied at each spine node, so the zero and
    fusion laws fire where they would node by node, and a spine node
    whose two sides are unchanged is kept."""
    t = type(e)
    if t is DisjUnion or t is LexSum:
        spine = [e]
        while len(spine) < len(kids) - 1:
            spine.append(spine[-1].left)
        acc = kids[0]
        for node, k in zip(reversed(spine), kids[1:]):
            if acc is not node.left or k is not node.right:
                node = t(acc, k)
            acc = _elim_root(node)
        return acc
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
            return _fused(e, add(ONE, x.value))
        if type(x) is LexSum or (t is Pf and type(x) is DisjUnion):
            return fold(e, _pf_rule, _pf_parts)
    elif t is DisjUnion or t is LexSum:
        a, b = e.left, e.right
        if _is_leaf(a, ZERO):
            return b
        if _is_leaf(b, ZERO):
            return a
        if t is LexSum and type(a) is Ord and type(b) is Ord:
            return _fused(e, add(a.value, b.value))
    elif t is CartProd or t is LexProd:
        a, b = e.left, e.right
        if _is_leaf(a, ZERO) or _is_leaf(b, ONE):
            return a
        if _is_leaf(b, ZERO) or _is_leaf(a, ONE):
            return b
        if t is LexProd and type(a) is Ord and type(b) is Ord:
            return _fused(e, mul(a.value, b.value))
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


def _fused(e: WqoExpr, value: Ordinal) -> WqoExpr:
    """The leaf `value` when it prints, else `e`, whose value the engine
    then refuses with a reason."""
    return Ord(value) if _printable(value) else e
