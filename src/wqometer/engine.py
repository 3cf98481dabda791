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
once per layer.  `_evaluate` is one `fold` over the expression with one
rule per node kind, `_rules`: a generator that names the nodes a node's
triple is made from and makes the triple, and a rule appends its notes
where it fires.  It picks one of two strategies per subtree.  The rules are
compositional, so a node's value depends on the node alone; `parse_expr`
makes equal subterms one object, and a fold treats each distinct object
once, with no stack frame per nesting level.  The strategies:

1. *elementary* subtrees (union / product / words / multisets / powerset
   over multiplicatively indecomposable ordinal leaves >= w^w) are leaves
   of that fold, each read off exactly, with the weakened order type used
   for powerset heights, by a fold of `_summary`, which never builds
   their normal form;
2. everything else goes through the general compositional rules, with
   powersets handled by the sound bound table (1 + x <= f(Pf(A)) <= 2^x
   style) and conditional rules reporting ``unsupported`` when their
   hypothesis cannot be verified.

`_rules` has one branch per node kind, each product kind included.  A
rule that holds only under a side condition on a component (o(A.B) =
o(A)*o(B) needs o(B) a limit, w(M(A)) = o(M(A)) needs o(A) infinite and
additively indecomposable) asks one helper, `_unreadable`, which gives
the component's own reason, ``needs-exact-value:<rule>`` or
``hypothesis-not-met:<rule>:<condition>``, or None when the rule
applies.  A word order's width is its o: that needs o(A) > 1, which
every supported o(A) but the exact 1 satisfies.

A chain of unions A1|...|An is one step of the fold: ``o`` and ``w`` of a
union are natural sums and ``h`` a maximum, both associative, so its
parts are the nodes off its left spine, down to the first node that is
not a union or is elementary, and each component is lifted once with an
n-ary natural sum or maximum.  A chain of
lexicographic sums A1++...++An is folded the same way: ``o`` and ``h``
are n-ary ordinal sums and ``w`` a maximum.

No rule decides emptiness or a unit: `eliminate_pf` applies the unit
and zero laws first, so the leaf 0 is the only empty term a rule meets,
and every supported component of any other term is at least 1.

*Omega-elementary* subtrees (the elementary constructors over the single
leaf w) need no rule of their own: the general rules already give them
height exactly w, and each w leaf adds the note ``omega-elementary-height``.

The two bound-attaining families are expression nodes: ``Phi`` (all
three invariants prescribed by the index, also under ``Pf``) is evaluated
from its index, and ``Sim``/``SimExt`` (realising the powerset height
bound) are desugared into plain expressions first.
"""

from __future__ import annotations

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
    fold,
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
from .rewrite import _elim_root, eliminate_pf

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


_OMEGA_CHAIN: _Triple = _exact3(OMEGA, OMEGA, ONE)


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
            return p
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
    e2 = _simplified(e, [])
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
        return r
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
    notes: list[str] = []
    e2 = _simplified(e, notes)
    (o, h, w), wm = _evaluate(e2, notes)
    if e2.fragment == "omega":
        assert h == InvariantResult.exact(OMEGA), "omega-elementary height is not w"
    _sanity(o, h, w)
    return InvariantReport(o, h, w, wm, tuple(dict.fromkeys(notes)))


def _simplified(e: WqoExpr, notes: list[str]) -> WqoExpr:
    """The term to evaluate for `e`: `e` itself when it is elementary, as
    the fold of `_summary` gives it the values of its elimination and
    notes where elimination fires; else `eliminate_pf(e)`, noting
    ``simplification-applied`` if that is not `e`."""
    if e.fragment == "elementary":
        return e
    e2 = eliminate_pf(e)
    if e2 is not e:
        notes.append("simplification-applied")
    return e2


def _sanity(o: InvariantResult, h: InvariantResult, w: InvariantResult) -> None:
    if o.kind == h.kind == w.kind == "exact":
        assert cmp(h.value, o.value) <= 0, "height exceeds order type"
        assert cmp(w.value, o.value) <= 0, "width exceeds order type"
        assert cmp(o.value, nat_prod(h.value, w.value)) <= 0, (
            "order type exceeds natural product of height and width"
        )


def _evaluate(e: WqoExpr, notes: list[str]) -> tuple[_Triple, Ordinal | None]:
    """The triple of `e` and, when `e` is elementary, its weakened o.

    An elementary term is one fold of `_summary`, which also notes where
    `eliminate_pf` would rewrite it; any other is one fold of `_rules`,
    in which each elementary subterm is a leaf evaluated here.  A rule
    appends its notes where it fires, so they come in the order of a
    recursive walk.  A node met again adds no notes, as its notes are in
    the list already."""
    if e.fragment != "elementary":
        # the rules waiting for the triples of the nodes they read: `fold`
        # finishes every node it reaches after `x` before it finishes `x`,
        # so the rule to finish is always the last one started
        pending = []

        def down(x):
            rule = _rules(notes, x)
            pending.append(rule)
            return next(rule)

        def up(x, kids):
            try:
                pending.pop().send(kids)
            except StopIteration as stop:
                return stop.value

        return fold(e, up, down), None
    leaves, rest, h, s = fold(e, partial(_summary, notes))
    notes.append("elementary-exact")
    # a bare leaf adds 1 to the width, any other component its o
    m = Ordinal.from_nat(sum(c for _, c in leaves.terms))
    return _exact3(nat_sum(leaves, rest), h, nat_sum(m, rest)), _weak(leaves, s)


def _chain_parts(e: DisjUnion | LexSum) -> list[WqoExpr]:
    """The parts A1, ..., An of the chain A1|...|An or A1++...++An at `e`,
    left to right: the nodes off its left spine, down to the first node of
    another kind (or an elementary union)."""
    node = type(e)
    parts = []
    while isinstance(e, node) and e.fragment != "elementary":
        parts.append(e.right)
        e = e.left
    parts.append(e)
    parts.reverse()
    return parts


def _rules(notes: list[str], e: WqoExpr):
    """The rule for `e`: it appends the notes that fire before it reads
    anything, yields once the nodes it reads (none for a leaf), is sent
    their triples, and returns the triple of `e`."""
    if e.fragment == "elementary":
        yield ()
        return _evaluate(e, notes)[0]

    if isinstance(e, Ord):
        yield ()
        a = e.value
        if a.is_zero:
            return _exact3(ZERO, ZERO, ZERO)
        if a == OMEGA:
            # the general rules keep h = w exactly at every node built
            # from w by the elementary constructors
            notes.append("omega-elementary-height")
        return _exact3(a, a, ONE)

    if isinstance(e, Gamma):
        yield ()
        k = Ordinal.from_nat(e.size)
        return _exact3(k, ONE, k)

    if isinstance(e, Phi):
        yield ()
        # o = w = a and h = w^a1, a1 the leading exponent of a (an
        # ordinal-indexed lexicographic sum of antichains)
        notes.append("family:phi")
        a = e.value
        return _exact3(a, omega_pow(a.leading_exponent), a)

    if isinstance(e, (DisjUnion, LexSum)):
        mots, heights, widths = zip(*(yield _chain_parts(e)))
        fo, fh, fw = _CHAIN_FNS[type(e)]
        return _lift(fo, *mots), _lift(fh, *heights), _lift(fw, *widths)

    if isinstance(e, CartProd):
        left, right = yield e.left, e.right
        o = _lift(nat_prod, left[0], right[0])
        h = _lift(hat_nat_sum, left[1], right[1])
        return o, h, _product_width(e, left, right, notes)

    if isinstance(e, LexProd):
        (lo, lh, lw), (ro, rh, rw) = yield e.left, e.right
        why = _unreadable(
            ro, "lex-product-mot", "o(B) is a limit ordinal", Ordinal.is_limit.fget
        )
        o = _lift(mul, lo, ro) if why is None else InvariantResult.unsupported(why)
        return o, _lift(mul, lh, rh), _lex_prod_width(lw, rw)

    if isinstance(e, Words):
        bo, bh, _bw = (yield (e.arg,))[0]
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
        bo, bh, _bw = (yield (e.arg,))[0]
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

    if isinstance(e, MultisetsN):
        # the rules do not read the argument
        yield ()
        u = InvariantResult.unsupported("fixed-size-multisets-no-rule")
        return u, u, u

    if isinstance(e, Pf):
        x = e.arg
        if isinstance(x, Phi):
            yield ()
            return _pf_phi_parts(x, notes)
        if isinstance(x, Sim):
            notes.append("family:sim-powerset")
            return (yield (_elim_root(Pf(_desugar(x))),))[0]
        if isinstance(x, SimExt):
            notes.append("family:sim-extended-powerset")
            o, _h, w = _pf_table_parts((yield (_desugar(x),))[0], notes)
            # this family attains the powerset height bound: h >= 2^a * m
            bound = mul(two_pow(x.value), Ordinal.from_nat(x.copies))
            notes.append("powerset-height: family lower bound 2^a * m")
            return o, InvariantResult.lower_only(bound), w
        return _pf_table_parts((yield (x,))[0], notes)

    if isinstance(e, PfPlus):
        notes.append("nonempty-powerset: derived from Pf minus its bottom")
        return _pf_plus_parts((yield (_elim_root(Pf(e.arg)),))[0])

    if isinstance(e, (Sim, SimExt)):
        notes.append("family:sim" if isinstance(e, Sim) else "family:sim-extended")
        return (yield (_desugar(e),))[0]

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
        if not _printable(best):
            return InvariantResult.unsupported("value-too-large")
        notes.append("product-width: lower bound w(B) * o(A)")
        return InvariantResult.lower_only(best)
    return InvariantResult.unsupported("width-of-product-non-functional")


def _lex_prod_width(wa: InvariantResult, wb: InvariantResult) -> InvariantResult:
    for r in (wa, wb):
        if r.reason is not None:
            return r
    if wa.kind == "exact" and wb.kind == "exact":
        try:
            return _lift(odot, wa, wb)
        except UnsupportedComputation as exc:
            return InvariantResult.unsupported(exc.reason)
    return InvariantResult.unsupported("needs-exact-value:lex-product-width")


def _pf_phi_parts(x: Phi, notes: list[str]) -> _Triple:
    """Pf of a Phi member, from its index rather than from its triple:
    both o and w equal 2^a exactly (binomial at finite indices), while h
    is only known inside the general powerset bounds."""
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
