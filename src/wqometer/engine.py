"""Invariant engine: computes the maximal order type ``o``, the height
``h`` and the width ``w`` of a wqo expression.

Results are :class:`InvariantResult` values, immutable slotted records
whose ``kind`` is fixed when they are made, because the three invariants
are not always expressible compositionally: depending on the shape of the
expression a component comes out

* exact            -- a single ordinal,
* interval         -- sound lower and upper bounds,
* lower            -- only a lower bound is known,
* unsupported      -- no sound rule applies (the reason says which
                      hypothesis failed or which rule is missing).

`invariants` and `weak_mot` evaluate `eliminate_pf` of a term that is
not elementary, and an elementary term as it is, so each term is walked
once per layer.  They read an eliminated chain at the root as its parts:
`_elim_as_parts` gives the list of its eliminated parts, and the fold
reads that list at the root, so no spine is built over it, except in the
rare shapes where the parts read off the spine would differ.  `_evaluate`
is one `fold` over the expression with one rule per node kind, and a
rule appends its notes where it fires.  A rule that reads no other
node's triple is a branch of the plain function `_fact`; every other
rule is a branch of the plain function `_rule`, which makes a node's
triple from those of the nodes it reads, and the fold names those nodes
as `eliminate_pf` does, by `_elim_parts`.
`_evaluate` picks one of two strategies per subtree.  The rules are
compositional, so a node's value depends on the node alone, and a fold
treats each distinct node object once, with no stack frame per nesting
level.  A node with no
subexpression (an ordinal, G(k) or a family member) is a fact about its
value, and so is a Pf, M or ^<w directly over one (`expr._OVER_LEAF`),
whose rule reads only the leaf's triple: `_leaf_facts` keeps the triple
and notes of such a node, as of every node whose rule reads no other
node, in the node's own `facts` slot, for as long as the node lives, and
`parse_expr` makes one node of each such text for all calls while its
bounded table keeps it.  A node that elimination builds from such a
constructor, as the 6 of Pf(5) or the M(1) of M(G(1)), is kept on the
constructor's node too, so its facts are made once per node as well.
The strategies:

1. *elementary* subtrees (union / product / words / multisets / powerset
   over multiplicatively indecomposable ordinal leaves >= w^w) are leaves
   of that fold, each read off exactly, with the weakened order type used
   for powerset heights, by a fold of `_summary`, which never builds
   their normal form; a value it refuses ends the report of an
   elementary term, and leaves all three components of such a subtree
   unsupported, with the refusal's reason;
2. everything else goes through the general compositional rules, with
   powersets handled by the sound bound table (1 + x <= f(Pf(A)) <= 2^x
   style) and conditional rules reporting ``unsupported`` when their
   hypothesis cannot be verified.

`_rule` has one branch per node kind that reads other nodes, each
product kind included.  A rule that holds only under a side condition
on a component (o(A.B) = o(A)*o(B) needs o(B) a limit, w(M(A)) = o(M(A))
needs o(A) infinite and additively indecomposable) asks one helper,
`_unreadable`, which gives the component's own reason,
``needs-exact-value:<rule>`` or ``hypothesis-not-met:<rule>:<condition>``,
or None when the rule applies.  A word order's width is its o: that
needs o(A) > 1, which every supported o(A) but the exact 1 satisfies.

A chain of unions A1|...|An is one step of the fold: ``o`` and ``w`` of a
union are natural sums and ``h`` a maximum, both associative, so its
parts are the nodes `_chain_parts` names off its left spine, down to the
first node that is not a union or is elementary, or at the root the
eliminated parts that `_elim_as_parts` lists, which are the same nodes
with no spine built over them, and each component is lifted once with an
n-ary natural sum or maximum.  Both are commutative too, so each is
lifted over the distinct part triples only, a part that occurs n times
adding n times its coefficients to a sum.  A chain of
lexicographic sums A1++...++An is folded the same way, in order: ``o``
and ``h`` are n-ary ordinal sums and ``w`` a maximum.

No rule decides emptiness or a unit: `eliminate_pf` applies the unit
and zero laws first, so the leaf 0 is the only empty term a rule meets,
and every supported component of any other term is at least 1.

*Omega-elementary* subtrees (the elementary constructors over the single
leaf w) need no rule of their own: the general rules already give them
height exactly w, and each w leaf adds the note ``omega-elementary-height``.

The two bound-attaining families are expression nodes, and `_fact`
evaluates them and their powersets: ``Phi`` (all three invariants
prescribed by the index, also under ``Pf``) from its index, and
``Sim``/``SimExt`` (realising the powerset height bound) by desugaring
them into plain expressions first.
"""

from __future__ import annotations

from collections import Counter
from contextlib import suppress
from functools import partial
from math import comb

from .errors import HypothesisNotMet, UnsupportedComputation
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
    Phi,
    Sim,
    SimExt,
    Words,
    WqoExpr,
    _over_leaf,
    fold,
    print_expr,
)
from .ordinal import (
    _NAT_EXP_LIMIT,
    ONE,
    OMEGA,
    ZERO,
    Ordinal,
    _nat_sum_copies,
    _printable,
    add,
    cmp,
    hat_nat_sum,
    hstar,
    left_subtract,
    mul,
    nat_prod,
    nat_sum,
    odot,
    omega_pow,
    pm,
    two_pow,
)
from .record import Record
from .rewrite import _elim_as_parts, _elim_parts, _elim_root

_TWO = Ordinal.from_nat(2)
# w*2, whose square w*2 x w*2 has the one product width known exactly
# without being an instance of a general rule: w*3
_OMEGA_TWO = mul(OMEGA, _TWO)


# ---------------------------------------------------------------------------
# result and report types
# ---------------------------------------------------------------------------


class InvariantResult(Record):
    """One invariant component, as precise as the rules allow.

    ``finite_multiple`` marks an upper bound of the form ``upper * m`` for
    some unspecified finite ``m`` (this is how the powerset height bound
    behaves at successor heights).  ``kind`` is not a field: it is worked
    out once, when the record is made.

    Every bound prints: a result made with a lower bound too large to
    print is unsupported with the reason ``value-too-large``, and one made
    with such an upper bound drops it, and ``finite_multiple`` with it.
    """

    _fields = ("lower", "upper", "finite_multiple", "reason")
    __slots__ = (*_fields, "kind")

    def __init__(
        self,
        lower: Ordinal | None = None,
        upper: Ordinal | None = None,
        finite_multiple: bool = False,
        reason: str | None = None,
    ):
        if reason is None and not _printable(lower):
            lower, upper, finite_multiple, reason = None, None, False, "value-too-large"
        elif upper is not None and not _printable(upper):
            upper, finite_multiple = None, False
        if reason is not None:
            kind = "unsupported"
        elif upper is None:
            kind = "lower"
        elif lower == upper and not finite_multiple:
            kind = "exact"
        else:
            kind = "interval"
        _set_lower(self, lower)
        _set_upper(self, upper)
        _set_finite_multiple(self, finite_multiple)
        _set_reason(self, reason)
        _set_kind(self, kind)

    # -- constructors ------------------------------------------------------

    @classmethod
    def exact(cls, value: Ordinal) -> "InvariantResult":
        return cls(lower=value, upper=value)

    @classmethod
    def interval(
        cls, lower: Ordinal, upper: Ordinal, finite_multiple: bool = False
    ) -> "InvariantResult":
        if not finite_multiple:
            assert cmp(lower, upper) <= 0, "inverted bound interval"
        return cls(lower=lower, upper=upper, finite_multiple=finite_multiple)

    @classmethod
    def lower_only(cls, lower: Ordinal) -> "InvariantResult":
        return cls(lower=lower)

    @classmethod
    def unsupported(cls, reason: str) -> "InvariantResult":
        return cls(reason=reason)

    # -- views -------------------------------------------------------------

    @property
    def value(self) -> Ordinal:
        """The exact value; only meaningful when ``kind == "exact"``."""
        if self.kind != "exact":
            raise ValueError(f"no exact value for a {self.kind} result")
        return self.lower

    def admits(self, v: Ordinal) -> bool:
        """Whether the ordinal ``v`` is consistent with this result."""
        if self.reason is not None:
            return True
        if cmp(v, self.lower) < 0:
            return False
        if self.upper is None:
            return True
        if self.finite_multiple:
            # upper * m for some finite m, i.e. strictly below upper * w
            return cmp(v, mul(self.upper, OMEGA)) < 0
        return cmp(v, self.upper) <= 0

    def to_json(self) -> dict:
        k = self.kind
        if k == "unsupported":
            return {"kind": "unsupported", "reason": self.reason}
        if k == "exact":
            return {"kind": "exact", "value": str(self.value)}
        if k == "lower":
            return {"kind": "lower", "lower": str(self.lower)}
        out = {"kind": "interval", "lower": str(self.lower), "upper": str(self.upper)}
        if self.finite_multiple:
            out["upper_modifier"] = "finite-multiple"
        return out

    def __str__(self) -> str:
        k = self.kind
        if k == "exact":
            return str(self.value)
        if k == "lower":
            return f">= {self.lower}"
        if k == "interval":
            tail = " * m, m finite" if self.finite_multiple else ""
            return f"[{self.lower}, {self.upper}{tail}]"
        return f"unsupported ({self.reason})"


# the slot setters, which write past the guard in `__setattr__`
_set_lower, _set_upper, _set_finite_multiple, _set_reason, _set_kind = (
    getattr(InvariantResult, name).__set__ for name in InvariantResult.__slots__
)


class InvariantReport(Record):
    """The three invariants of one expression, plus the weakened order
    type (elementary expressions only) and human-readable notes about
    which rules fired."""

    __slots__ = _fields = ("mot", "height", "width", "weak_mot", "notes")

    def to_json(self) -> dict:
        return {
            "mot": self.mot.to_json(),
            "height": self.height.to_json(),
            "width": self.width.to_json(),
            "weak_mot": None if self.weak_mot is None else str(self.weak_mot),
            "notes": list(self.notes),
        }


_Triple = tuple[InvariantResult, InvariantResult, InvariantResult]


def _exact3(o: Ordinal, h: Ordinal, w: Ordinal) -> _Triple:
    return (
        InvariantResult.exact(o),
        InvariantResult.exact(h),
        InvariantResult.exact(w),
    )


_OMEGA_CHAIN: _Triple = _exact3(OMEGA, OMEGA, ONE)


def _max(*xs: Ordinal) -> Ordinal:
    """The first largest of `xs`, one value or more."""
    return max(xs)


def _lift(fn, *parts: InvariantResult) -> InvariantResult:
    """Apply a monotone ordinal function componentwise to bound results.
    A bound that `fn` refuses to compute is treated like one too large to
    print: an upper bound is dropped, and a lower one makes the result
    unsupported with the refusal's reason."""
    for p in parts:
        if p.reason is not None:
            return p
    try:
        lo = fn(*(p.lower for p in parts))
    except UnsupportedComputation as exc:
        return InvariantResult.unsupported(exc.reason)
    if all(p.kind == "exact" for p in parts):
        return InvariantResult.exact(lo)
    hi = None
    if all(p.upper is not None and not p.finite_multiple for p in parts):
        with suppress(UnsupportedComputation):
            hi = fn(*(p.upper for p in parts))
    return InvariantResult(lo, hi)


# ---------------------------------------------------------------------------
# exact evaluation of elementary expressions
# ---------------------------------------------------------------------------


_Summary = tuple[Ordinal, Ordinal, Ordinal, Ordinal]


def _summary(notes: list[str], e: WqoExpr, kids: list[_Summary]) -> _Summary:
    """(L, N, h, sN) of an elementary node from those of its children:
    its normal form is a union of union-free components, L sums
    (naturally) the bare leaves among them, N the other components' o,
    and sN is the largest weakened o among those (0 if none).  Sound as
    hat_nat_sum and hstar are monotone, hat_nat_sum is the maximum on the
    heights met under M and Pf, and every o has only infinite exponents,
    so 2^x = w^x.  At a node `eliminate_pf` would rewrite, a powerset of
    a leaf or of a union, it notes ``simplification-applied``."""
    if isinstance(e, Ord):
        return e.value, ZERO, e.value, ZERO
    if isinstance(e, (DisjUnion, CartProd)):
        (l1, n1, h1, s1), (l2, n2, h2, s2) = kids
        if isinstance(e, DisjUnion):
            return nat_sum(l1, l2), nat_sum(n1, n2), max(h1, h2), max(s1, s2)
        o = nat_prod(nat_sum(l1, n1), nat_sum(l2, n2))
        return ZERO, o, hat_nat_sum(h1, h2), max(_weak(l1, s1), _weak(l2, s2))
    ((leaves, rest, h, s),) = kids
    if isinstance(e, Words):
        o = omega_pow(omega_pow(pm(nat_sum(leaves, rest))))
        return ZERO, o, hstar(h), _weak(leaves, s)
    if isinstance(e, Multisets):
        return ZERO, omega_pow(nat_sum(leaves, rest)), hstar(h), _weak(leaves, s)
    if isinstance(e.arg, (Ord, DisjUnion)):
        notes.append("simplification-applied")
    if rest.is_zero and leaves.is_additively_indecomposable:
        return leaves, rest, h, s  # Pf of one leaf rewrites to the leaf
    # Pf: the product of each leaf w^(w^g) and of 2^o = w^o per other component
    log = Ordinal(tuple((a.leading_exponent, c) for a, c in leaves.terms))
    return ZERO, omega_pow(nat_sum(log, rest)), _weak(leaves, s), _weak(leaves, two_pow(s))


def _weak(leaves: Ordinal, s: Ordinal) -> Ordinal:
    """The weakened o from a summary's L and sN: the largest leaf or sN."""
    return s if leaves.is_zero else max(omega_pow(leaves.leading_exponent), s)


def weak_mot(e: WqoExpr) -> Ordinal:
    """The weakened maximal order type that `invariants` reports (it equals
    the powerset height), for expressions that simplify to elementary ones."""
    e2, _ = _simplified(e, [])
    if e2.fragment != "elementary":
        raise UnsupportedComputation("weak-mot-requires-elementary", print_expr(e))
    return _evaluate(e2, [])[1]


# ---------------------------------------------------------------------------
# the bound-attaining families
# ---------------------------------------------------------------------------


def _desugar(e: Sim | SimExt) -> WqoExpr:
    """The Sim family member as a plain expression, checking the index
    precondition (a = w, or a >= w^w multiplicatively indecomposable);
    SimExt(a, m) is (Sim(a) ++ 1) * G(m), built through `_elim_root`, so
    it is simplified as the same term parsed and eliminated would be."""
    a = e.value
    if a == OMEGA:
        base = Ord(OMEGA)
    elif a.is_multiplicatively_indecomposable and cmp(a, omega_pow(OMEGA)) >= 0:
        base = Pf(Words(Ord(a)))
    else:
        raise HypothesisNotMet(
            "sim-family", "index must be w, or >= w^w and multiplicatively indecomposable"
        )
    if isinstance(e, SimExt):
        return _elim_root(
            CartProd(_elim_root(LexSum(base, Ord(ONE))), _elim_root(Gamma(e.copies)))
        )
    return base


# ---------------------------------------------------------------------------
# powerset bounds
# ---------------------------------------------------------------------------


def _central_binomial(k: int) -> Ordinal:
    """C(k, k // 2), the width of the powerset of a k-antichain.  It is at
    most 2^k, so it is refused on the same terms as `two_pow`, which keeps
    every value printable."""
    if k > _NAT_EXP_LIMIT:
        raise UnsupportedComputation(
            "binomial-too-large", f"refusing C({k},{k // 2}) (limit {_NAT_EXP_LIMIT})"
        )
    return Ordinal.from_nat(comb(k, k // 2))


def _pf_table_parts(base: _Triple, notes: list[str]) -> _Triple:
    """Sound bounds for the invariants of Pf(A) from the invariants of A:
    o and h land in [1 + x, 2^x] (the height upper bound only up to a
    finite multiple at successor heights), while w only has lower bounds
    (binomial at finite widths, 2^w at infinite ones)."""
    bo, bh, bw = base
    notes.append("powerset-bounds")
    o = _pf_table_bound(bo, height=False)
    h = _pf_table_bound(bh, height=True)

    if bw.reason is not None:
        w = bw
    else:
        v = bw.lower
        try:
            w = InvariantResult.lower_only(
                _central_binomial(v.nat) if v.is_finite else two_pow(v)
            )
        except UnsupportedComputation as exc:
            w = InvariantResult.unsupported(exc.reason)
        if bo.kind == "exact":
            with suppress(UnsupportedComputation):
                notes.append(f"width-cap: w <= 2^o = {two_pow(bo.value)}")

    return o, h, w


def _pf_table_bound(r: InvariantResult, height: bool) -> InvariantResult:
    """[1 + x, 2^x] from the bounds of `r`; for a height the upper bound
    holds only up to a finite multiple unless the height is a known limit."""
    if r.reason is not None:
        return r
    lo = add(ONE, r.lower)
    hi = None
    if r.upper is not None and (height or not r.finite_multiple):
        with suppress(UnsupportedComputation):
            hi = two_pow(r.upper)
    if hi is None:
        return InvariantResult.lower_only(lo)
    # a successor (or zero) height, or one not known exactly, may be a
    # successor, where the bound is only 2^x times some finite m
    fm = height and (r.kind != "exact" or r.value.is_successor or r.value.is_zero)
    return InvariantResult.interval(lo, hi, finite_multiple=fm)


def pf_bounds(e: WqoExpr) -> InvariantReport:
    """Bound report for Pf(e), derived from the invariants of ``e`` via
    the powerset bound table."""
    rep = invariants(e)
    notes: list[str] = []
    o, h, w = _pf_table_parts((rep.mot, rep.height, rep.width), notes)
    return InvariantReport(o, h, w, None, tuple(dict.fromkeys(notes)))


# ---------------------------------------------------------------------------
# general evaluation
# ---------------------------------------------------------------------------


def invariants(e: WqoExpr) -> InvariantReport:
    """Compute (o, h, w) of ``e``, together with the weakened order type
    when ``e`` simplifies to an elementary expression."""
    notes: list[str] = []
    e2, parts = _simplified(e, notes)
    (o, h, w), wm = _evaluate(e2, notes, parts)
    # a `|` chain read as its parts lies in the fragment they all share,
    # and a `++` chain in none
    if type(e2) is not LexSum and all(x.fragment == "omega" for x in parts or (e2,)):
        assert h == InvariantResult.exact(OMEGA), "omega-elementary height is not w"
    _sanity(o, h, w)
    return InvariantReport(o, h, w, wm, tuple(dict.fromkeys(notes)))


def _simplified(e: WqoExpr, notes: list[str]) -> tuple[WqoExpr, list | None]:
    """The term to evaluate for `e`, and the parts to read at its root
    (None to read the term's own): `e` itself when it is elementary, as
    the fold of `_summary` gives it the values of its elimination and
    notes where elimination fires; else what `_elim_as_parts` gives, a
    chain with the list of its eliminated parts, read without the spine
    that `eliminate_pf` builds over them, or the term `eliminate_pf(e)`,
    noting ``simplification-applied`` if a rule fired."""
    if e.fragment == "elementary":
        return e, None
    e2, parts = _elim_as_parts(e)
    if e2 is not e or parts is not None:
        notes.append("simplification-applied")
    return e2, parts


def _sanity(o: InvariantResult, h: InvariantResult, w: InvariantResult) -> None:
    if o.kind == h.kind == w.kind == "exact":
        assert cmp(h.value, o.value) <= 0, "height exceeds order type"
        assert cmp(w.value, o.value) <= 0, "width exceeds order type"
        try:
            bound = nat_prod(h.value, w.value)
        except UnsupportedComputation:
            # h (x) w < w^(e_h (+) e_w) * (c_h * c_w + 1), where w^e_h * c_h
            # and w^e_w * c_w are the leading terms of h and w
            (eh, ch), (ew, cw) = h.value.terms[0], w.value.terms[0]
            bound = Ordinal(((nat_sum(eh, ew), ch * cw + 1),))
        assert cmp(o.value, bound) <= 0, (
            "order type exceeds natural product of height and width"
        )


def _evaluate(e: WqoExpr, notes: list[str], parts=None) -> tuple[_Triple, Ordinal | None]:
    """The triple of `e` and, when `e` is elementary, its weakened o.

    An elementary term is one fold of `_summary`, which also notes where
    `eliminate_pf` would rewrite it.  Any other is one `fold(e, up, down)`
    in which `down` names the nodes a node reads: `parts`, if given, at
    `e`, a chain whose eliminated parts they are, so that the fold reads
    them as the parts of the spine that `eliminate_pf` would build over
    them; none at a fact, Pf(X) at Pf+(X), and else the nodes
    `eliminate_pf` reads there, a chain's parts or the children.  `up`
    takes the triple of a node that reads none from the node's `facts`,
    which `_leaf_facts` makes on first need (by `_fact`, or for a Pf, M
    or ^<w over a leaf by `_rule` over the leaf's `_fact`), and any other
    node's from `_rule`, given the triples read.  A rule appends its notes
    where it fires (Pf+'s before those of the Pf(X) it reads), and a
    node's kept notes, its leaf's first, are appended where its rule would
    fire, so they come in the order of a recursive walk.  A node met again
    adds no notes, as its notes are in the list already."""
    if e.fragment != "elementary":

        def down(x):
            # the nodes whose triples make that of `x`: none at a fact
            if x is e and parts is not None:
                return parts
            t = type(x)
            if x.fragment == "elementary" or t is MultisetsN:
                return ()
            if t is PfPlus:
                notes.append("nonempty-powerset: derived from Pf minus its bottom")
                return (_elim_root(Pf(x.arg)),)
            # none at a leaf or at a constructor directly over one
            return _elim_parts(x)

        def up(x, kids):
            if kids:
                return _rule(notes, x, kids)
            triple, fact_notes = getattr(x, "facts", None) or _leaf_facts(x)
            notes.extend(fact_notes)
            return triple

        return fold(e, up, down), None
    leaves, rest, h, s = fold(e, partial(_summary, notes))
    notes.append("elementary-exact")
    # a bare leaf adds 1 to the width, any other component its o
    m = Ordinal.from_nat(sum(c for _, c in leaves.terms))
    o = InvariantResult.exact(nat_sum(leaves, rest))
    # o bounds w, so w is refused whenever o is
    w = o if o.reason is not None else InvariantResult.exact(nat_sum(m, rest))
    return (o, InvariantResult.exact(h), w), _weak(leaves, s)


# the family members, whose powersets `_fact` reads off the index
_FAMILIES = frozenset((Phi, Sim, SimExt))


def _leaf_facts(x: WqoExpr) -> tuple[_Triple, tuple[str, ...]]:
    """The triple of `x`, a leaf of the engine's fold (a node with no
    subexpression, a Pf, M or ^<w directly over one, an elementary subterm
    or a fixed-size multiset order), and the notes it appends, kept in the
    node's `facts` slot, to be read there while the node lives: a family
    member, or a constructor over one, is desugared and its term evaluated
    once per node, and `parse_expr` makes one node of each such text while
    `_LEAVES` keeps it, and `eliminate_pf` one eliminated form of each
    such constructor over a leaf while the constructor lives.  A Pf, M
    or ^<w over a leaf that is not elementary, nor the powerset of a
    family member, is `_rule`'s over `_fact` of the leaf; any other is
    `_fact`'s.  A refusal, such as a Sim index that fails the hypothesis
    or a binomial too large, is raised each time, never kept."""
    notes: list[str] = []
    fact = (
        not _over_leaf(x)
        or x.fragment == "elementary"
        or type(x) is Pf and type(x.arg) in _FAMILIES
    )
    triple = _fact(notes, x) if fact else _rule(notes, x, [_fact(notes, x.arg)])
    object.__setattr__(x, "facts", (triple, tuple(notes)))  # past the guard
    return x.facts


def _fact(notes: list[str], x: WqoExpr) -> _Triple:
    """The triple of a node whose rule reads no other node's triple, and
    so depends on the node's value alone: an elementary term, read off by
    the fold of `_summary`; a leaf; a fixed-size multiset order; or the
    powerset of a family member, from the member's index.  It appends
    the notes that fire, in the order they fire."""
    if x.fragment == "elementary":
        try:
            return _evaluate(x, notes)[0]
        except UnsupportedComputation as exc:
            # as `_lift` treats a refused bound: the part's components are
            # unsupported, and the rules that read them pass that on
            u = InvariantResult.unsupported(exc.reason)
            return u, u, u
    if isinstance(x, Ord):
        a = x.value
        if a.is_zero:
            return _exact3(ZERO, ZERO, ZERO)
        if a == OMEGA:
            # the general rules keep h = w exactly at every node built
            # from w by the elementary constructors
            notes.append("omega-elementary-height")
        return _exact3(a, a, ONE)
    if isinstance(x, Gamma):
        k = Ordinal.from_nat(x.size)
        return _exact3(k, ONE, k)
    if isinstance(x, MultisetsN):
        # the rules do not read the argument
        u = InvariantResult.unsupported("fixed-size-multisets-no-rule")
        return u, u, u
    if isinstance(x, Phi):
        # o = w = a and h = w^a1, a1 the leading exponent of a (an
        # ordinal-indexed lexicographic sum of antichains)
        notes.append("family:phi")
        a = x.value
        return _exact3(a, omega_pow(a.leading_exponent), a)
    if isinstance(x, (Sim, SimExt)):
        notes.append("family:sim" if isinstance(x, Sim) else "family:sim-extended")
        return _evaluate(_desugar(x), notes)[0]

    y = x.arg  # x is Pf of a family member
    if isinstance(y, Phi):
        # o and w equal 2^a exactly (binomial at a finite index), while h
        # is only known inside the general powerset bounds
        notes.append("family:phi-powerset")
        a = y.value
        t = InvariantResult.exact(two_pow(a))
        if a.is_finite:
            h = InvariantResult.interval(_TWO, _TWO, finite_multiple=True)
            return t, h, InvariantResult.exact(_central_binomial(a.nat))
        hl = omega_pow(a.leading_exponent)
        return t, InvariantResult.interval(hl, two_pow(hl)), t
    if isinstance(y, Sim):
        notes.append("family:sim-powerset")
        return _evaluate(_elim_root(Pf(_desugar(y))), notes)[0]
    notes.append("family:sim-extended-powerset")
    o, _h, w = _pf_table_parts(_evaluate(_desugar(y), notes)[0], notes)
    # this family attains the powerset height bound: h >= 2^a * m
    bound = mul(two_pow(y.value), Ordinal.from_nat(y.copies))
    notes.append("powerset-height: family lower bound 2^a * m")
    return o, InvariantResult.lower_only(bound), w


def _rule(notes: list[str], e: WqoExpr, kids: list[_Triple]) -> _Triple:
    """The triple of `e`, a node whose triple is made from the triples
    `kids` of the nodes it reads, appending the notes that fire."""
    if isinstance(e, DisjUnion):
        # natural sums for o and w and a maximum for h, each lifted once
        # over the distinct part triples in first-occurrence order, so the
        # first reason still wins; a part that repeats is summed once per
        # copy
        parts = {id(t): t for t in kids}
        mots, heights, widths = zip(*parts.values())
        total = nat_sum
        if len(parts) < len(kids):
            counts = tuple(Counter(map(id, kids)).values())
            total = lambda *xs: _nat_sum_copies(xs, counts)
        return _lift(total, *mots), _lift(_max, *heights), _lift(total, *widths)

    if isinstance(e, LexSum):
        # ordinal sums for o and h, and a maximum for w
        mots, heights, widths = zip(*kids)
        return _lift(add, *mots), _lift(add, *heights), _lift(_max, *widths)

    if isinstance(e, CartProd):
        left, right = kids
        o = _lift(nat_prod, left[0], right[0])
        h = _lift(hat_nat_sum, left[1], right[1])
        return o, h, _product_width(e, left, right, notes)

    if isinstance(e, LexProd):
        (lo, lh, lw), (ro, rh, rw) = kids
        why = _unreadable(
            ro, "lex-product-mot", "o(B) is a limit ordinal", Ordinal.is_limit.fget
        )
        o = _lift(mul, lo, ro) if why is None else InvariantResult.unsupported(why)
        return o, _lift(mul, lh, rh), _lex_prod_width(lw, rw)

    if isinstance(e, Words):
        ((bo, bh, _bw),) = kids
        if bo.kind == "exact" and bo.value == ONE:
            notes.append("words-over-singleton-alphabet")
            return _OMEGA_CHAIN
        # w = o holds when o(A) > 1, and after the unit and zero laws every
        # supported o(A) is exact or at least 2
        o = _lift(lambda x: omega_pow(omega_pow(pm(x))), bo)
        if o.reason is None:
            notes.append("words-width-equals-mot")
        return o, _lift(hstar, bh), o

    if isinstance(e, Multisets):
        ((bo, bh, _bw),) = kids
        if bo.kind == "exact" and bo.value == ONE:
            notes.append("multisets-over-singleton-order")
            return _OMEGA_CHAIN
        o = _lift(omega_pow, bo)
        # the reason of o (that of o(A), or value-too-large) comes first
        why = o.reason or _unreadable(
            bo,
            "multisets-width",
            "o(A) is additively indecomposable and infinite",
            _infinite_indecomposable,
        )
        if why is None:
            notes.append("multisets-width-equals-mot")
        return o, _lift(hstar, bh), o if why is None else InvariantResult.unsupported(why)

    if isinstance(e, Pf):
        return _pf_table_parts(kids[0], notes)

    if isinstance(e, PfPlus):
        return _pf_plus_parts(kids[0])

    raise TypeError(f"unknown expression node {type(e).__name__}")


def _unreadable(r: InvariantResult, rule: str, condition: str, holds) -> str | None:
    """Why `rule` cannot read the component `r`, or None if it can: the
    reason of `r` if it has one, else that `r` is not exact, else that its
    value fails the hypothesis `condition`, which `holds` tests."""
    if r.reason is not None:
        return r.reason
    if r.kind != "exact":
        return f"needs-exact-value:{rule}"
    if not holds(r.value):
        return HypothesisNotMet(rule, condition).reason
    return None


def _infinite_indecomposable(a: Ordinal) -> bool:
    """Whether `a` is w^g for some g >= 1."""
    return not a.is_finite and a.is_additively_indecomposable


def _product_width(
    e: CartProd, left: _Triple, right: _Triple, notes: list[str]
) -> InvariantResult:
    """Width of a Cartesian product: not a function of the factor
    invariants in general, but several special shapes are known."""
    if isinstance(e.left, Ord) and isinstance(e.right, Ord):
        a, b = e.left.value, e.right.value
        for x, y in ((a, b), (b, a)):
            if x == OMEGA:
                notes.append("product-width: w(w x b) = b")
                return InvariantResult.exact(y)
        if a == b == _OMEGA_TWO:
            notes.append("product-width: catalogued value")
            return InvariantResult.exact(mul(OMEGA, Ordinal.from_nat(3)))

    for r in (left[2], right[2], left[0], right[0]):
        if r.reason is not None:
            return r

    # width lower bound: an additively indecomposable infinite factor
    # width multiplies with the other factor's order type
    best: Ordinal | None = None
    for (xo, _xh, _xw), (_yo, _yh, yw) in ((left, right), (right, left)):
        if yw.kind == "exact" and _infinite_indecomposable(yw.value):
            cand = mul(yw.value, xo.lower)
            if best is None or cmp(cand, best) > 0:
                best = cand
    if best is not None:
        w = InvariantResult.lower_only(best)
        if w.reason is None:
            notes.append("product-width: lower bound w(B) * o(A)")
        return w
    return InvariantResult.unsupported("width-of-product-non-functional")


def _lex_prod_width(wa: InvariantResult, wb: InvariantResult) -> InvariantResult:
    # `_lift` passes on the first reason of a part
    if "unsupported" in (wa.kind, wb.kind) or wa.kind == wb.kind == "exact":
        return _lift(odot, wa, wb)
    return InvariantResult.unsupported("needs-exact-value:lex-product-width")


def _pf_plus_parts(pf: _Triple) -> _Triple:
    """Pf+(X) from the triple `pf` of Pf(X), which has one more element,
    the empty set, below all others."""
    bo, bh, bw = pf

    def drop_one(r: InvariantResult) -> InvariantResult:
        if r.reason is not None:
            return r
        lo = left_subtract(ONE, r.lower)
        if r.upper is None:
            return InvariantResult.lower_only(lo)
        hi = r.upper if r.finite_multiple else left_subtract(ONE, r.upper)
        return InvariantResult.interval(lo, hi, finite_multiple=r.finite_multiple)

    return drop_one(bo), drop_one(bh), bw
