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

`_eval` is one bottom-up fold over the expression: it evaluates each
child once, takes one stack frame per nesting level, and picks one of
two strategies per subtree:

1. *elementary* subtrees (union / product / words / multisets / powerset
   over multiplicatively indecomposable ordinal leaves >= w^w) are
   normalised by the rewrite system and evaluated exactly, including the
   weakened order type used for powerset heights;
2. everything else goes through the general compositional rules, with
   powersets handled by the sound bound table (1 + x <= f(Pf(A)) <= 2^x
   style) and conditional rules reporting ``unsupported`` when their
   hypothesis cannot be verified.

A chain of unions A1|...|An is one step of the fold: ``o`` and ``w`` of a
union are natural sums and ``h`` a maximum, both associative, so the left
spine is walked down to the first node that is not a union or is
elementary, the parts are evaluated left to right, and each component
is lifted once with an n-ary natural sum or maximum.  A chain of
lexicographic sums A1++...++An is folded the same way: ``o`` and ``h``
are n-ary ordinal sums and ``w`` a maximum.

*Omega-elementary* subtrees (the elementary constructors over the single
leaf w) need no rule of their own: the general rules already give them
height exactly w, and each w leaf adds the note ``omega-elementary-height``.

The two bound-attaining families are expression nodes: ``Phi`` (all
three invariants prescribed by the index, also under ``Pf``) is evaluated
from its index, and ``Sim``/``SimExt`` (realising the powerset height
bound) are desugared into plain expressions first.
"""

from __future__ import annotations

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
    elementary_kind,
    is_elementary,
    is_omega_elementary,
    print_expr,
)
from .ordinal import (
    _NAT_EXP_LIMIT,
    ONE,
    OMEGA,
    ZERO,
    Ordinal,
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
from .rewrite import eliminate_pf, normalize_elementary

_TWO = Ordinal.from_nat(2)

# the handful of product widths that are known exactly without being an
# instance of a general rule; keyed by the (smaller, larger) factor pair
_PRODUCT_WIDTH_TABLE: dict[tuple[Ordinal, Ordinal], Ordinal] = {
    (mul(OMEGA, _TWO), mul(OMEGA, _TWO)): mul(OMEGA, Ordinal.from_nat(3)),
}


# ---------------------------------------------------------------------------
# result and report types
# ---------------------------------------------------------------------------


class InvariantResult(Record):
    """One invariant component, as precise as the rules allow.

    ``finite_multiple`` marks an upper bound of the form ``upper * m`` for
    some unspecified finite ``m`` (this is how the powerset height bound
    behaves at successor heights).  ``kind`` is not a field: it is worked
    out once, when the record is made.
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


_EMPTY: _Triple = _exact3(ZERO, ZERO, ZERO)
_SINGLETON: _Triple = _exact3(ONE, ONE, ONE)


def _is_empty(t: _Triple) -> bool:
    """An order is empty exactly when one of its invariants is 0, so one
    exact 0 settles it whatever the other two components say."""
    return any(r.kind == "exact" and r.value.is_zero for r in t)


# sums and maxima take their exponents from their arguments, so only the
# top-level coefficients of their results can grow
_SUMS = (nat_sum, add, max)

# (o, h, w) of a chain from those of its parts: a union has natural sums
# for o and w and a maximum for h, a lexicographic sum ordinal sums for o
# and h and a maximum for w
_CHAIN_FNS = {DisjUnion: (nat_sum, max, nat_sum), LexSum: (add, add, max)}


def _lift(fn, *parts: InvariantResult) -> InvariantResult:
    """Apply a monotone ordinal function componentwise to bound results.
    An upper bound too large to print is dropped; an exact value or a
    lower bound too large to print makes the result unsupported."""
    for p in parts:
        if p.reason is not None:
            return InvariantResult.unsupported(p.reason)
    lo = fn(*(p.lower for p in parts))
    deep = fn not in _SUMS
    if not _printable(lo, deep):
        return InvariantResult.unsupported("value-too-large")
    if all(p.kind == "exact" for p in parts):
        return InvariantResult.exact(lo)
    if all(p.upper is not None and not p.finite_multiple for p in parts):
        hi = fn(*(p.upper for p in parts))
        if _printable(hi, deep):
            return InvariantResult.interval(lo, hi)
    return InvariantResult.lower_only(lo)


# ---------------------------------------------------------------------------
# exact evaluation of elementary expressions
# ---------------------------------------------------------------------------


def _elem_eval(e: WqoExpr) -> tuple[Ordinal, Ordinal, Ordinal, Ordinal]:
    """Exact (o, h, w, weakened-o) of a *normalised* elementary expression.

    The weakened order type stays multiplicatively indecomposable at every
    step; this invariant is what makes the powerset-height column sound.
    """
    if isinstance(e, Ord):
        a = e.value
        assert a.is_multiplicatively_indecomposable
        return a, a, ONE, a
    if isinstance(e, DisjUnion):
        o1, h1, w1, s1 = _elem_eval(e.left)
        o2, h2, w2, s2 = _elem_eval(e.right)
        return nat_sum(o1, o2), max(h1, h2), nat_sum(w1, w2), max(s1, s2)
    if isinstance(e, CartProd):
        o1, h1, w1, s1 = _elem_eval(e.left)
        o2, h2, w2, s2 = _elem_eval(e.right)
        o = nat_prod(o1, o2)
        return o, hat_nat_sum(h1, h2), o, max(s1, s2)
    if isinstance(e, Words):
        o1, h1, w1, s1 = _elem_eval(e.arg)
        o = omega_pow(omega_pow(pm(o1)))
        return o, hstar(h1), o, s1
    if isinstance(e, Multisets):
        o1, h1, w1, s1 = _elem_eval(e.arg)
        o = omega_pow(o1)
        return o, hstar(h1), o, s1
    if isinstance(e, Pf):
        o1, h1, w1, s1 = _elem_eval(e.arg)
        assert s1.is_multiplicatively_indecomposable
        o = two_pow(o1)
        return o, s1, o, two_pow(s1)
    raise UnsupportedComputation("not-elementary", print_expr(e))


def _eval_elementary(e: WqoExpr, notes: list[str]) -> tuple[_Triple, Ordinal]:
    """Exact (o, h, w) and the weakened o of an elementary expression, all
    read off its one normal form."""
    nf, _ = normalize_elementary(e)
    o, h, w, wm = _elem_eval(nf)
    notes.append("elementary-exact")
    return _exact3(o, h, w), wm


def weak_mot(e: WqoExpr) -> Ordinal:
    """The weakened maximal order type of an elementary expression (the
    invariant that equals the powerset height of the expression)."""
    if not is_elementary(e):
        raise UnsupportedComputation("weak-mot-requires-elementary", print_expr(e))
    return _eval_elementary(e, [])[1]


# ---------------------------------------------------------------------------
# the bound-attaining families
# ---------------------------------------------------------------------------


def _desugar(e: Sim | SimExt) -> WqoExpr:
    """The Sim family member as a plain expression, checking the index
    precondition (a = w, or a >= w^w multiplicatively indecomposable);
    SimExt(a, m) is (Sim(a) ++ 1) * G(m)."""
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
        return CartProd(LexSum(base, Ord(ONE)), Gamma(e.copies))
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
        w = InvariantResult.unsupported(bw.reason)
    else:
        v = bw.lower
        try:
            w = InvariantResult.lower_only(
                _central_binomial(v.nat) if v.is_finite else two_pow(v)
            )
        except UnsupportedComputation as exc:
            w = InvariantResult.unsupported(exc.reason)
        if bo.kind == "exact":
            try:
                notes.append(f"width-cap: w <= 2^o = {two_pow(bo.value)}")
            except UnsupportedComputation:
                pass

    return o, h, w


def _pf_table_bound(r: InvariantResult, height: bool) -> InvariantResult:
    """[1 + x, 2^x] from the bounds of `r`; for a height the upper bound
    holds only up to a finite multiple unless the height is a known limit.
    A lower bound too large to print makes the result unsupported."""
    if r.reason is not None:
        return InvariantResult.unsupported(r.reason)
    lo = add(ONE, r.lower)
    if not _printable(lo, deep=False):
        return InvariantResult.unsupported("value-too-large")
    hi = None
    if r.upper is not None and (height or not r.finite_multiple):
        try:
            hi = two_pow(r.upper)
        except UnsupportedComputation:
            pass
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
    e2 = eliminate_pf(e)
    notes: list[str] = []
    if e2 is not e:
        notes.append("simplification-applied")
    if is_elementary(e2):
        (o, h, w), wm = _eval_elementary(e2, notes)
    else:
        (o, h, w), wm = _eval(e2, notes), None
        if is_omega_elementary(e2):
            assert h == InvariantResult.exact(OMEGA), "omega-elementary height is not w"
    _sanity(o, h, w)
    return InvariantReport(o, h, w, wm, tuple(dict.fromkeys(notes)))


def _sanity(o: InvariantResult, h: InvariantResult, w: InvariantResult) -> None:
    if o.kind == h.kind == w.kind == "exact":
        assert cmp(h.value, o.value) <= 0, "height exceeds order type"
        assert cmp(w.value, o.value) <= 0, "width exceeds order type"
        assert cmp(o.value, nat_prod(h.value, w.value)) <= 0 or o.value.is_zero, (
            "order type exceeds natural product of height and width"
        )


def _eval(e: WqoExpr, notes: list[str]) -> _Triple:
    """The triple of `e`, evaluating each child once, bottom-up."""
    if elementary_kind(e) == "elementary":
        return _eval_elementary(e, notes)[0]

    if isinstance(e, Ord):
        a = e.value
        if a.is_zero:
            return _EMPTY
        if a == OMEGA:
            # the general rules keep h = w exactly at every node built
            # from w by the elementary constructors
            notes.append("omega-elementary-height")
        return (
            InvariantResult.exact(a),
            InvariantResult.exact(a),
            InvariantResult.exact(ONE),
        )

    if isinstance(e, Gamma):
        k = Ordinal.from_nat(e.size)
        return (
            InvariantResult.exact(k),
            InvariantResult.exact(ONE),
            InvariantResult.exact(k),
        )

    if isinstance(e, Phi):
        # o = w = a and h = w^a1, a1 the leading exponent of a (an
        # ordinal-indexed lexicographic sum of antichains)
        notes.append("family:phi")
        a = e.value
        return _exact3(a, omega_pow(a.leading_exponent), a)

    if isinstance(e, (Sim, SimExt)):
        notes.append("family:sim" if isinstance(e, Sim) else "family:sim-extended")
        return _eval(_desugar(e), notes)

    if isinstance(e, (DisjUnion, LexSum)):
        # each component of a chain A1|...|An or A1++...++An is an
        # associative function of its parts, so the left spine is walked
        # down to its first node of another kind (or elementary union),
        # the parts are evaluated left to right, and each component is
        # lifted once
        node = type(e)
        parts = []
        while isinstance(e, node) and elementary_kind(e) != "elementary":
            parts.append(e.right)
            e = e.left
        parts.append(e)
        mots, heights, widths = zip(*[_eval(p, notes) for p in reversed(parts)])
        fo, fh, fw = _CHAIN_FNS[node]
        return _lift(fo, *mots), _lift(fh, *heights), _lift(fw, *widths)

    if isinstance(e, (CartProd, LexProd)):
        # a singleton factor leaves the other factor unchanged, and an
        # empty factor, however its emptiness was found, empties the product
        for mine, other in ((e.left, e.right), (e.right, e.left)):
            if isinstance(mine, Ord) and mine.value == ONE:
                notes.append("product-with-singleton-factor")
                return _eval(other, notes)
        left, right = _eval(e.left, notes), _eval(e.right, notes)
        if _is_empty(left) or _is_empty(right):
            notes.append("product-with-empty-factor")
            return _EMPTY
        if isinstance(e, CartProd):
            o = _lift(nat_prod, left[0], right[0])
            h = _lift(hat_nat_sum, left[1], right[1])
            w = _product_width(e, left, right, notes)
            return o, h, w
        ro = right[0]
        if ro.reason is not None:
            o = InvariantResult.unsupported(ro.reason)
        elif ro.kind != "exact":
            o = InvariantResult.unsupported("needs-exact-value:lex-product-mot")
        elif ro.value.is_limit:
            o = _lift(mul, left[0], ro)
        else:
            o = InvariantResult.unsupported(
                HypothesisNotMet("lex-product-mot", "o(B) is a limit ordinal").reason
            )
        h = _lift(mul, left[1], right[1])
        w = _lex_prod_width(left[2], right[2])
        return o, h, w

    if isinstance(e, Words):
        return _words_parts(_eval(e.arg, notes), notes)

    if isinstance(e, Multisets):
        return _multisets_parts(_eval(e.arg, notes), notes)

    if isinstance(e, MultisetsN):
        if e.size == 0:
            notes.append("fixed-size-multisets: only the empty multiset")
            return _SINGLETON
        u = InvariantResult.unsupported("fixed-size-multisets-no-rule")
        return u, u, u

    if isinstance(e, Pf):
        if isinstance(e.arg, (Phi, Sim, SimExt)):
            return _pf_family_parts(e.arg, notes)
        base = _eval(e.arg, notes)
        if _is_empty(base):
            notes.append("powerset-of-empty-order")
            return _SINGLETON
        return _pf_table_parts(base, notes)

    if isinstance(e, PfPlus):
        return _pf_plus_parts(e, notes)

    raise TypeError(f"unknown expression node {type(e).__name__}")


def _product_width(e: CartProd, left: _Triple, right: _Triple, notes: list[str]) -> _Triple:
    """Width of a Cartesian product: not a function of the factor
    invariants in general, but several special shapes are known."""
    if isinstance(e.left, Ord) and isinstance(e.right, Ord):
        a, b = e.left.value, e.right.value
        for x, y in ((a, b), (b, a)):
            if x == OMEGA:
                notes.append("product-width: w(w x b) = b")
                return InvariantResult.exact(y)
        key = (a, b) if cmp(a, b) <= 0 else (b, a)
        if key in _PRODUCT_WIDTH_TABLE:
            notes.append("product-width: catalogued value")
            return InvariantResult.exact(_PRODUCT_WIDTH_TABLE[key])

    for r in (left[2], right[2], left[0], right[0]):
        if r.reason is not None:
            return InvariantResult.unsupported(r.reason)

    # width lower bound: an additively indecomposable infinite factor
    # width multiplies with the other factor's order type
    best: Ordinal | None = None
    for (xo, _xh, _xw), (_yo, _yh, yw) in ((left, right), (right, left)):
        if (
            yw.kind == "exact"
            and not yw.value.is_finite
            and yw.value.is_additively_indecomposable
            and not xo.lower.is_zero
        ):
            cand = mul(yw.value, xo.lower)
            if best is None or cmp(cand, best) > 0:
                best = cand
    if best is not None:
        if not _printable(best):
            return InvariantResult.unsupported("value-too-large")
        notes.append("product-width: lower bound w(B) * o(A)")
        return InvariantResult.lower_only(best)
    return InvariantResult.unsupported("width-of-product-non-functional")


def _lex_prod_width(wa: InvariantResult, wb: InvariantResult) -> InvariantResult:
    for r in (wa, wb):
        if r.reason is not None:
            return InvariantResult.unsupported(r.reason)
    if wa.kind == "exact" and wb.kind == "exact":
        try:
            return _lift(odot, wa, wb)
        except UnsupportedComputation as exc:
            return InvariantResult.unsupported(exc.reason)
    return InvariantResult.unsupported("needs-exact-value:lex-product-width")


def _words_parts(base: _Triple, notes: list[str]) -> _Triple:
    """Words over an alphabet with the invariants `base`."""
    bo, bh, _bw = base
    if _is_empty(base):
        notes.append("words-over-empty-alphabet")
        return _SINGLETON
    if bo.kind == "exact" and bo.value == ONE:
        notes.append("words-over-singleton-alphabet")
        return (
            InvariantResult.exact(OMEGA),
            InvariantResult.exact(OMEGA),
            InvariantResult.exact(ONE),
        )
    if bo.reason is not None:
        o = InvariantResult.unsupported(bo.reason)
    elif bo.lower.is_zero:
        # the alphabet might be empty; all we know is that the empty word exists
        o = InvariantResult.lower_only(ONE)
    else:
        o = _lift(lambda x: omega_pow(omega_pow(pm(x))), bo)
    h = _lift(hstar, bh)
    if o.reason is not None:
        w = InvariantResult.unsupported(o.reason)
    elif bo.reason is None and cmp(bo.lower, _TWO) >= 0:
        w = o
        notes.append("words-width-equals-mot")
    else:
        w = InvariantResult.unsupported(
            HypothesisNotMet("words-width", "o(A) > 1").reason
        )
    return o, h, w


def _multisets_parts(base: _Triple, notes: list[str]) -> _Triple:
    """Multisets over an order with the invariants `base`."""
    bo, bh, _bw = base
    if _is_empty(base):
        notes.append("multisets-over-empty-order")
        return _SINGLETON
    if bo.kind == "exact" and bo.value == ONE:
        notes.append("multisets-over-singleton-order")
        return (
            InvariantResult.exact(OMEGA),
            InvariantResult.exact(OMEGA),
            InvariantResult.exact(ONE),
        )
    o = _lift(omega_pow, bo)
    h = _lift(hstar, bh)
    if o.reason is not None:
        w = InvariantResult.unsupported(o.reason)
    elif (
        bo.kind == "exact"
        and not bo.value.is_finite
        and bo.value.is_additively_indecomposable
    ):
        w = o
        notes.append("multisets-width-equals-mot")
    elif bo.kind == "exact":
        w = InvariantResult.unsupported(
            HypothesisNotMet(
                "multisets-width", "o(A) is additively indecomposable and infinite"
            ).reason
        )
    else:
        w = InvariantResult.unsupported("needs-exact-value:multisets-width")
    return o, h, w


def _pf_family_parts(x: Phi | Sim | SimExt, notes: list[str]) -> _Triple:
    """Pf of a family member, from its index rather than from its triple."""
    if isinstance(x, Phi):
        # both o and w equal 2^a exactly (binomial at finite indices),
        # while h is only known inside the general powerset bounds
        notes.append("family:phi-powerset")
        a = x.value
        if a.is_finite:
            k = a.nat
            return (
                InvariantResult.exact(two_pow(a)),
                InvariantResult.interval(_TWO, _TWO, finite_multiple=True),
                InvariantResult.exact(_central_binomial(k)),
            )
        t = InvariantResult.exact(two_pow(a))
        hl = omega_pow(a.leading_exponent)
        return t, InvariantResult.interval(hl, two_pow(hl)), t
    if isinstance(x, Sim):
        notes.append("family:sim-powerset")
        return _eval(eliminate_pf(Pf(_desugar(x))), notes)
    notes.append("family:sim-extended-powerset")
    o, h, w = _pf_table_parts(_eval(_desugar(x), notes), notes)
    # this family attains the powerset height bound: h >= 2^a * m
    bound = mul(two_pow(x.value), Ordinal.from_nat(x.copies))
    h = InvariantResult.lower_only(bound)
    notes.append("powerset-height: family lower bound 2^a * m")
    return o, h, w


def _pf_plus_parts(e: PfPlus, notes: list[str]) -> _Triple:
    notes.append("nonempty-powerset: derived from Pf minus its bottom")
    bo, bh, bw = _eval(eliminate_pf(Pf(e.arg)), notes)
    if bo.kind == "exact" and bo.value == ONE:
        # Pf(X) is the singleton {empty set}, so X is empty and so is Pf+(X)
        return _EMPTY

    def drop_one(r: InvariantResult) -> InvariantResult:
        if r.reason is not None:
            return r
        lo = left_subtract(ONE, r.lower)
        if r.upper is None:
            return InvariantResult.lower_only(lo)
        hi = r.upper if r.finite_multiple else left_subtract(ONE, r.upper)
        return InvariantResult.interval(lo, hi, finite_multiple=r.finite_multiple)

    return drop_one(bo), drop_one(bh), bw
