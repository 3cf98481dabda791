"""Ordinals below epsilon_0 in Cantor normal form, and the arithmetic the
invariant calculator needs on them.

An ordinal is a finite sum  w^e1 * c1 + ... + w^ek * ck  with exponents
e1 > e2 > ... > ek (themselves ordinals) and coefficients ci >= 1.  We store
exactly that: a tuple of (exponent, coefficient) pairs, strictly decreasing
in the exponent.  Zero is the empty tuple.  Everything here stays below
epsilon_0, so exponent towers are always finite.  The walks down them
(comparison, hashing, printing and reading) run on explicit stacks, so a
tower of any height costs no Python frames.

Callers build ordinals with `Ordinal(terms)`, which checks that normal
form.  The arithmetic here builds its results with the private `_cnf`,
which skips the check: each operation yields normal form by construction,
and the test suite checks every one of them against the validating
constructor.

Besides the classical operations (comparison, sum, product, left
subtraction, Hessenberg natural sum/product) this module implements the
more exotic functions the composition tables call for: base-2
exponentiation, the "hat" variant of the natural sum used for heights of
Cartesian products, the height-star closure, and the product-like `odot`
used for widths of lexicographic products.

Text syntax (used by `parse_ordinal` and `str()`), round-trip safe::

    ordinal := term ('+' term)*
    term    := 'w' ['^' atom] ['*' nat] | nat
    atom    := nat | 'w' | '(' ordinal ')'

e.g. ``0``, ``7``, ``w``, ``w^2*8``, ``w^(w^2)*3+w*2+5``; a ``nat`` is a
run of the ASCII digits 0-9.
"""

from __future__ import annotations

import math
import re
import sys
from functools import cmp_to_key

from .errors import ParseError, UnsupportedComputation
from .record import Record

__all__ = [
    "Ordinal",
    "ZERO",
    "ONE",
    "OMEGA",
    "cmp",
    "add",
    "left_subtract",
    "mul",
    "nat_sum",
    "nat_prod",
    "omega_pow",
    "two_pow",
    "decompose_omega",
    "hat_nat_sum",
    "pm",
    "hstar",
    "odot",
    "parse_ordinal",
]

# The largest n for which 2^n is computed: 2^n has at most
# n*log10(2) + 1 digits, so every allowed power (and every binomial
# C(n, k) <= 2^n) fits CPython's limit on printing integers.  Without
# that limit, refuse past 2^1000000 rather than allocate megabyte integers.
_MAX_STR_DIGITS = sys.get_int_max_str_digits()
_NAT_EXP_LIMIT = (
    int((_MAX_STR_DIGITS - 1) * math.log2(10)) if _MAX_STR_DIGITS else 1_000_000
)
# The least integer too long to print, if there is such a limit.
_MAX_NAT = 10**_MAX_STR_DIGITS if _MAX_STR_DIGITS else 0
# The least coefficient refused: _MAX_NAT, or 2^1000001 without a limit.
_NAT_CAP = _MAX_NAT or 1 << _NAT_EXP_LIMIT + 1
# The most term pairs a natural product of two sums of terms may multiply.
_PROD_TERMS = 16_384


def _printable(a: "Ordinal") -> bool:
    """Whether every coefficient of `a` and of its exponents is below
    _NAT_CAP, and so prints within Python's digit limit.

    An ordinal is immutable, so once found to print it stays so: a check
    that succeeds marks `a` and every exponent it walked, and a later
    check stops at a marked ordinal.  A check that fails marks nothing."""
    # the ordinals to walk, which the walk appends to as it reads them
    seen = [] if a._ok else [a]
    for x in seen:
        for e, c in x.terms:
            if c >= _NAT_CAP:
                return False
            if e.terms and not e._ok:
                seen.append(e)
    for x in seen:
        _set_ok(x, True)
    return True


class Ordinal(Record):
    """Immutable ordinal below epsilon_0, in Cantor normal form."""

    __slots__ = ("terms", "_hash", "_ok")
    _fields = ("terms",)

    terms: tuple[tuple["Ordinal", int], ...]

    def __init__(self, terms: tuple[tuple["Ordinal", int], ...] = ()):
        for i, (e, c) in enumerate(terms):
            if not isinstance(e, Ordinal) or c < 1:
                raise ValueError(f"bad CNF term {(e, c)!r}")
            if i and cmp(terms[i - 1][0], e) <= 0:
                raise ValueError("CNF exponents must strictly decrease")
        _set_terms(self, tuple(terms))
        _set_hash(self, None)
        _set_ok(self, False)

    @staticmethod
    def from_nat(n: int) -> "Ordinal":
        if n < 0:
            raise ValueError("ordinals are not negative")
        return ZERO if n == 0 else _cnf(((ZERO, n),))

    # -- structural predicates ------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero)

    @property
    def nat(self) -> int:
        """The integer value of a finite ordinal."""
        if not self.is_finite:
            raise ValueError(f"{self} is infinite")
        return self.terms[0][1] if self.terms else 0

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and not self.terms[-1][0].is_zero

    @property
    def is_additively_indecomposable(self) -> bool:
        """True for the omega-powers w^g: a single CNF term with coefficient 1."""
        return len(self.terms) == 1 and self.terms[0][1] == 1

    @property
    def is_multiplicatively_indecomposable(self) -> bool:
        """True for ordinals of shape w^(w^g) (this rules out 0, 1 and 2)."""
        return (
            self.is_additively_indecomposable
            and self.terms[0][0].is_additively_indecomposable
        )

    @property
    def leading_exponent(self) -> "Ordinal":
        if self.is_zero:
            raise ValueError("0 has no leading exponent")
        return self.terms[0][0]

    def pred(self) -> "Ordinal":
        """Predecessor of a successor ordinal."""
        if not self.is_successor:
            raise ValueError(f"{self} is not a successor")
        return _dec_last(self)

    # -- operators -------------------------------------------------------

    def __eq__(self, other):
        # unequal at once when the term counts or the cached hashes differ;
        # else the term tuples compare in C, which takes a frame per level
        # of exponents that are not one object, so exponents nested deeper
        # than the frames left are compared by `cmp`, on the heap
        if self is other:
            return True
        if not isinstance(other, Ordinal) or len(self.terms) != len(other.terms):
            return False
        h, k = self._hash, other._hash
        try:
            return (h is None or k is None or h == k) and self.terms == other.terms
        except RecursionError:
            return cmp(self, other) == 0

    def __lt__(self, other):
        return cmp(self, other) < 0

    def __le__(self, other):
        return cmp(self, other) <= 0

    def __gt__(self, other):
        return cmp(self, other) > 0

    def __ge__(self, other):
        return cmp(self, other) >= 0

    def __hash__(self):
        # hash(self.terms), with the caches of the exponents filled first,
        # bottom-up on an explicit stack, so that it meets only cached ones
        h = self._hash
        if h is None:
            stack = [self]
            while stack:
                a = stack[-1]
                todo = [e for e, _ in a.terms if e._hash is None]
                if todo:
                    stack += todo
                else:
                    stack.pop()
                    _set_hash(a, hash(a.terms))
            h = self._hash
        return h

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        # the text, built on an explicit stack of the pieces still to
        # write: strings, and the exponents to write in parentheses
        if not self.terms:
            return "0"
        out = []
        stack = [self]
        while stack:
            a = stack.pop()
            if isinstance(a, str):
                out.append(a)
                continue
            pieces = []
            for e, c in a.terms:
                if pieces:
                    pieces.append("+")
                if not e.terms:
                    pieces.append(str(c))
                    continue
                if e.is_finite:
                    pieces.append("w" if e == ONE else f"w^{e.nat}")
                elif e == OMEGA:
                    pieces.append("w^w")
                else:
                    pieces += ("w^(", e, ")")
                if c > 1:
                    pieces.append(f"*{c}")
            stack += reversed(pieces)
        return "".join(out)

    def __repr__(self):
        return f"Ordinal[{self}]"


# the slot setters, which write past the guard in `__setattr__`
_set_terms, _set_hash, _set_ok = (getattr(Ordinal, name).__set__ for name in Ordinal.__slots__)


def _cnf(terms: tuple[tuple[Ordinal, int], ...]) -> Ordinal:
    """The ordinal with the given terms, which must already be in Cantor
    normal form: the arithmetic below builds its results this way, as its
    exponents strictly decrease by construction, and skips the check."""
    a = object.__new__(Ordinal)
    _set_terms(a, terms)
    _set_hash(a, None)
    _set_ok(a, False)
    return a


ZERO = Ordinal()
ONE = Ordinal.from_nat(1)
OMEGA = Ordinal(((ONE, 1),))


# ---------------------------------------------------------------------------
# classical arithmetic
# ---------------------------------------------------------------------------


def cmp(a: Ordinal, b: Ordinal) -> int:
    """Three-way comparison: -1, 0 or 1.

    Normal forms compare lexicographically, term by term: the exponents
    first, then the coefficients, and a proper prefix is the smaller.  One
    loop walks both and returns at the first difference.  It descends into
    each pair of exponents that are not the same object, keeping the term
    lists it leaves on an explicit stack, so nesting costs no frames.
    """
    if a is b:
        return 0
    # (terms of a, terms of b, index, coefficients there): the place to
    # go on from once the exponents at the index are found equal
    stack = []
    ta, tb, i = a.terms, b.terms, 0
    na, nb = len(ta), len(tb)
    while True:
        if i < na and i < nb:
            (ea, ca), (eb, cb) = ta[i], tb[i]
            if ea is not eb:
                stack.append((ta, tb, i, ca, cb))
                ta, tb, i = ea.terms, eb.terms, 0
                na, nb = len(ta), len(tb)
                continue
        elif na != nb:
            return -1 if na < nb else 1
        elif stack:
            ta, tb, i, ca, cb = stack.pop()
            na, nb = len(ta), len(tb)
        else:
            return 0
        if ca != cb:
            return -1 if ca < cb else 1
        i += 1


def add(a: Ordinal, b: Ordinal, *more: Ordinal) -> Ordinal:
    """Ordinal sum a + b + ...: each summand absorbs the terms before it
    whose exponents are below its leading exponent.  Associative, not
    commutative.

    Two arguments: b pops the trailing terms of a that its leading
    exponent absorbs, merges an equal exponent, and appends the rest; this
    step reverses no list, and the scan below was slower on pairs.
    More arguments (a lexicographic chain A1++...++An sums all its parts
    at once) are read from the right, where the sum so far only grows:
    each summand keeps its terms above the sum's leading exponent, merges
    one equal to it and loses the rest.  A summand whose leading exponent
    is below is lost after one comparison, or none if that exponent
    object was found below before.
    """
    if not more:
        out = list(a.terms)
        if b.terms:
            lead, c = b.terms[0]
            while out and (k := cmp(out[-1][0], lead)) < 0:
                out.pop()
            if out and k == 0:
                out[-1] = (lead, out[-1][1] + c)
                out.extend(b.terms[1:])
            else:
                out.extend(b.terms)
        return _cnf(tuple(out))
    out = []  # the terms of the sum so far, smallest exponent first
    below = set()  # the ids of exponents found below its leading one
    for x in reversed((a, b, *more)):
        terms = x.terms
        if not terms or id(terms[0][0]) in below:
            continue
        if not out:
            out = list(reversed(terms))
            continue
        lead = out[-1][0]
        k = 0
        while k < len(terms) and (s := cmp(terms[k][0], lead)) > 0:
            k += 1
        if k < len(terms):
            if s == 0:
                out[-1] = (lead, out[-1][1] + terms[k][1])
            elif not k:
                below.add(id(terms[0][0]))
        out.extend(reversed(terms[:k]))
    return _cnf(tuple(reversed(out)))


def left_subtract(a: Ordinal, b: Ordinal) -> Ordinal:
    """The unique c with a + c = b, for a <= b."""
    if cmp(a, b) > 0:
        raise ValueError(f"left_subtract: {a} > {b}")
    i = 0
    while i < len(a.terms) and a.terms[i] == b.terms[i]:
        i += 1
    if i == len(a.terms):
        # a is a prefix of b; left-cancel it
        return _cnf(b.terms[i:])
    ea, ca = a.terms[i]
    eb, cb = b.terms[i]
    if cmp(ea, eb) == 0:
        # ca < cb here, otherwise a > b
        return _cnf(((eb, cb - ca),) + b.terms[i + 1 :])
    # ea < eb: the remainder of b swallows a's tail
    return _cnf(b.terms[i:])


def mul(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal product a * b."""
    if a.is_zero or b.is_zero:
        return ZERO
    lead_e, lead_c = a.terms[0]
    out: list[tuple[Ordinal, int]] = []
    for f, d in b.terms:
        if f.is_zero:
            # a * d for finite d scales the leading coefficient only
            out.append((lead_e, lead_c * d))
            out.extend(a.terms[1:])
        else:
            out.append((add(lead_e, f), d))
    # blocks arrive with strictly decreasing exponents, so this is valid CNF
    return _cnf(tuple(out))


def omega_pow(e: Ordinal, coeff: int = 1) -> Ordinal:
    """w^e (times an optional positive coefficient)."""
    if not isinstance(e, Ordinal):
        raise ValueError(f"bad exponent {e!r}")
    if coeff < 1:
        raise ValueError("coefficient must be >= 1")
    return _cnf(((e, coeff),))


# ---------------------------------------------------------------------------
# natural (Hessenberg) arithmetic
# ---------------------------------------------------------------------------


def nat_sum(a: Ordinal, b: Ordinal, *more: Ordinal) -> Ordinal:
    """Natural sum: add the coefficients of equal exponents across all the
    normal forms.  Commutative, associative, strictly monotone.

    Two arguments are merged in one linear pass over both normal forms,
    unless one is 0 and the sum is the other.  More arguments are summed
    by `_nat_sum_copies`, one copy of each.
    """
    if more:
        return _nat_sum_copies((a, b, *more), (1,) * (len(more) + 2))
    ta, tb = a.terms, b.terms
    if not tb:
        return a
    if not ta:
        return b
    out: list[tuple[Ordinal, int]] = []
    i = j = 0
    while i < len(ta) and j < len(tb):
        k = cmp(ta[i][0], tb[j][0])
        if k > 0:
            out.append(ta[i])
            i += 1
        elif k < 0:
            out.append(tb[j])
            j += 1
        else:
            out.append((ta[i][0], ta[i][1] + tb[j][1]))
            i += 1
            j += 1
    out.extend(ta[i:])
    out.extend(tb[j:])
    return _cnf(tuple(out))


def _nat_sum_copies(xs: tuple[Ordinal, ...], counts: tuple[int, ...]) -> Ordinal:
    """The natural sum of `counts[i]` copies of each `xs[i]`: n copies of
    an ordinal add n times each of its coefficients.  It adds up the
    coefficients of each exponent and sorts the distinct exponents once,
    instead of merging into a growing accumulator, so a union chain
    A1|...|An sums all its parts at once, and each distinct one once."""
    acc: dict[Ordinal, int] = {}
    for x, n in zip(xs, counts):
        for e, c in x.terms:
            acc[e] = acc.get(e, 0) + c * n
    exps = sorted(acc, key=cmp_to_key(cmp), reverse=True)
    return _cnf(tuple((e, acc[e]) for e in exps))


def nat_prod(a: Ordinal, b: Ordinal) -> Ordinal:
    """Natural product: distribute over both normal forms, natural-summing
    the exponents termwise.

    Built in normal form in one pass over the shorter operand's terms:
    a term w^e*c times the other operand is the row of terms
    w^(e (+) f)*(c*d), already in normal form because (+) is strictly
    monotone, and the rows are natural-summed as they come.

    A product whose operands' term counts multiply past _PROD_TERMS is
    refused before it is built, as ``value-too-large``: a product of n
    unions of distinct leaves has 2^n terms.  An operand of one term is
    exempt, as every height of an elementary term is one term.
    """
    if len(a.terms) > len(b.terms):
        a, b = b, a
    if len(a.terms) > 1 and len(a.terms) * len(b.terms) > _PROD_TERMS:
        raise UnsupportedComputation(
            "value-too-large", f"a natural product past {_PROD_TERMS} term pairs"
        )
    out = ZERO
    for e, c in a.terms:
        out = nat_sum(out, _cnf(tuple((nat_sum(e, f), c * d) for f, d in b.terms)))
    return out


# ---------------------------------------------------------------------------
# base-2 exponentiation
# ---------------------------------------------------------------------------


def decompose_omega(a: Ordinal) -> tuple[Ordinal, int]:
    """Write a = w*q + n with n < w; returns (q, n).

    q is obtained termwise: an infinite-part term w^e*c contributes
    w^(e-1)*c when e is finite (since w*w^(e-1) = w^e) and w^e*c unchanged
    when e is infinite (since 1+e = e there).
    """
    n = 0
    quo: list[tuple[Ordinal, int]] = []
    for e, c in a.terms:
        if e.is_zero:
            n = c
        elif e.is_finite:
            quo.append((Ordinal.from_nat(e.nat - 1), c))
        else:
            quo.append((e, c))
    return _cnf(tuple(quo)), n


def two_pow(a: Ordinal) -> Ordinal:
    """2^a.  With a = w*q + n this is w^q * 2^n; in particular 2^w = w and
    2^(w^2) = w^w.

    Built in normal form in one pass: w^q * 2^n is the one term w^q with
    coefficient 2^n >= 1 (the natural number 2^n when q = 0, just w^q when
    n = 0), so nothing is multiplied out."""
    q, n = decompose_omega(a)
    if n > _NAT_EXP_LIMIT:
        raise UnsupportedComputation(
            "two-pow-finite-too-large", f"refusing 2^{n} (limit {_NAT_EXP_LIMIT})"
        )
    return _cnf(((q, 2**n),))


# ---------------------------------------------------------------------------
# the table functions
# ---------------------------------------------------------------------------


def hat_nat_sum(a: Ordinal, b: Ordinal) -> Ordinal:
    """The natural-sum variant used for heights of Cartesian products.

    This computes sup{(a' (+) b') + 1 : a' < a, b' < b}  (sup of the empty
    set being 0), which is what height composition needs: finite chains
    give hat_nat_sum(n, m) = n + m - 1, and successor arguments generally
    give pred(a) (+) pred(b) + 1.

    Closed form, writing (+) for the natural sum: if either argument is 0
    the sup is empty.  Otherwise let each successor argument contribute its
    predecessor, each limit argument x = g + w^e*c (e >= 1 its smallest
    exponent) contribute g + w^e*(c-1) together with the candidate cut e;
    with M the natural sum of contributions and E the largest cut (E = 0
    when both arguments are successors, where the sup is attained at the
    predecessors), the value is (M truncated to terms >= w^E) + w^E: terms
    below w^E are swallowed by suprema of the form
    sup_{r < w^E} (M' (+) r) = w^E.

    That value is built in normal form in one pass over M: its prefix of
    exponents >= E is kept, and w^E raises the last coefficient kept if
    that exponent is E, or is appended after it.
    """
    if a.is_zero or b.is_zero:
        return ZERO
    # a successor's predecessor is the same `_dec_last` step, and its last
    # exponent, 0, never raises the cut
    ea, eb = a.terms[-1][0], b.terms[-1][0]
    cut = ea if cmp(ea, eb) >= 0 else eb
    kept: list[tuple[Ordinal, int]] = []
    c = 1
    for x, d in nat_sum(_dec_last(a), _dec_last(b)).terms:
        k = cmp(x, cut)
        if k <= 0:
            if k == 0:
                c += d
            break
        kept.append((x, d))
    kept.append((cut, c))
    return _cnf(tuple(kept))


def _dec_last(x: Ordinal) -> Ordinal:
    """x with its last CNF coefficient lowered by one."""
    e, c = x.terms[-1]
    rest = x.terms[:-1]
    return _cnf(rest if c == 1 else rest + ((e, c - 1),))


def pm(a: Ordinal) -> Ordinal:
    """a-minus: a - 1 for finite a > 0, otherwise a itself.

    (The definition also special-cases epsilon-number neighbourhoods, which
    cannot occur below epsilon_0, so that branch is unreachable here.)
    """
    if a.is_zero:
        raise ValueError("pm(0) is undefined")
    if a.is_finite:
        return Ordinal.from_nat(a.nat - 1)
    return a


def hstar(h: Ordinal) -> Ordinal:
    """Height closure: h if h is additively indecomposable and infinite,
    otherwise h * w."""
    if h.is_additively_indecomposable and not h.is_finite:
        return h
    return mul(h, OMEGA)


def odot(a: Ordinal, b: Ordinal) -> Ordinal:
    """Width composition for lexicographic products.

    Only defined here for additively indecomposable a = w^e.  Unrolling b's
    coefficients into unit omega-powers b = w^f1 + w^f2 + ..., the value is
    w^(e+f1) + w^(e+f2) + ...; when both arguments are additively
    indecomposable this coincides with the ordinal product.  Anything with
    a decomposable left operand has no closed form and is refused.
    """
    if not a.is_additively_indecomposable:
        raise UnsupportedComputation(
            "unsupported-odot", f"left operand {a} is additively decomposable"
        )
    e = a.terms[0][0]
    # exponents e+f inherit b's strict ordering, so this is already CNF
    return _cnf(tuple((add(e, f), c) for f, c in b.terms))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def parse_ordinal(text: str) -> Ordinal:
    """Parse the textual ordinal syntax (see module docstring)."""
    value, pos = parse_ordinal_prefix(text, _skip_ws(text, 0))
    if pos != len(text):
        raise ParseError(text, pos, "end of ordinal")
    return value


# Each reader below starts at a non-blank position, whose blanks its caller
# has skipped, and returns its value with the position past the blanks
# that follow what it read; so blanks are skipped once, after each token.

_DIGITS = tuple("0123456789")
# a run of ASCII digits and the blanks after it
_NAT = re.compile(r"([0-9]*)[ \t]*")


def parse_ordinal_prefix(text: str, pos: int) -> tuple[Ordinal, int]:
    """Parse an ordinal starting at the non-blank `pos`; returns (value,
    position past the blanks after it).

    Exposed so the expression parser can read ordinal arguments in place.
    Sums are folded left with ordinal addition, so non-normal spellings
    like ``1+w`` are accepted and normalised.  A sum that merges terms
    into a coefficient too long to print is refused.
    """
    return _parse_sum(text, pos, [])


def _parse_atom(text: str, pos: int) -> tuple[Ordinal, int]:
    """Parse an exponent: a natural number, 'w' or an ordinal in
    parentheses; the expression parser reads a bare ``w^atom`` with it."""
    if text.startswith("(", pos):
        # the None frame: the sum ends at its ')', and so does the atom
        return _parse_sum(text, _skip_ws(text, pos + 1), [None])
    return _parse_base(text, pos)


def _parse_sum(text: str, pos: int, stack: list) -> tuple[Ordinal, int]:
    """Parse a sum of terms from `pos`, and the parenthesised exponents in
    it without recursion: `stack` holds, for each open parenthesis, the
    sum it interrupted as (its start, its value so far), or None for one
    that ends the parse."""
    start, value = pos, None
    while True:
        # one term, or the opening of an exponent in parentheses
        exponent = None
        if text.startswith("w", pos):
            if text.startswith("^", pos + 1):
                p = _skip_ws(text, pos + 2)
                if text.startswith("(", p):
                    stack.append((start, value))
                    start = pos = _skip_ws(text, p + 1)
                    value = None
                    continue
                exponent, pos = _parse_base(text, p)
            else:
                exponent, pos = ONE, _skip_ws(text, pos + 1)
        elif text.startswith(_DIGITS, pos):
            n, pos = _parse_nat(text, pos)
            term = Ordinal.from_nat(n)
        else:
            raise ParseError(text, pos, "'w' or a natural number")
        # add the term; then each sum that ends here is the exponent of a
        # term of the sum its parenthesis interrupted
        while True:
            if exponent is not None:
                coeff = 1
                if text.startswith("*", pos):
                    p = _skip_ws(text, pos + 1)
                    coeff, pos = _parse_nat(text, p)
                    if coeff == 0:
                        raise ParseError(text, p, "a coefficient of at least 1")
                term = omega_pow(exponent, coeff)
            value = term if value is None else add(value, term)
            # a lone '+' continues the sum; '++' belongs to the expression layer
            if text.startswith("+", pos) and not text.startswith("++", pos):
                pos = _skip_ws(text, pos + 1)
                break
            # the sum ends here; one of two or more terms may have merged
            # coefficients (the exponents were parsed, and checked, alone)
            if value is not term and _MAX_NAT and any(c >= _MAX_NAT for _, c in value.terms):
                raise ParseError(text, start, "a sum small enough to print")
            if not stack:
                return value, pos
            if not text.startswith(")", pos):
                raise ParseError(text, pos, "')'")
            pos = _skip_ws(text, pos + 1)
            frame = stack.pop()
            if frame is None:
                return value, pos
            exponent = value
            start, value = frame


def _parse_base(text: str, pos: int) -> tuple[Ordinal, int]:
    """An exponent that is a natural number or 'w'."""
    if text.startswith(_DIGITS, pos):
        n, pos = _parse_nat(text, pos)
        return Ordinal.from_nat(n), pos
    if text.startswith("w", pos):
        return OMEGA, _skip_ws(text, pos + 1)
    raise ParseError(text, pos, "a natural number, 'w' or '('")


def _parse_nat(text: str, pos: int) -> tuple[int, int]:
    m = _NAT.match(text, pos)
    digits = m[1]
    if not digits:
        raise ParseError(text, pos, "a natural number")
    if _MAX_STR_DIGITS and len(digits) > _MAX_STR_DIGITS:
        raise ParseError(
            text, pos, f"a natural number of at most {_MAX_STR_DIGITS} digits"
        )
    return int(digits), m.end()


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos] in " \t":
        pos += 1
    return pos
