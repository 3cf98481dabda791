"""Ordinals below epsilon_0 in Cantor normal form, and the arithmetic the
invariant calculator needs on them.

An ordinal is a finite sum  w^e1 * c1 + ... + w^ek * ck  with exponents
e1 > e2 > ... > ek (themselves ordinals) and coefficients ci >= 1.  We store
exactly that: a tuple of (exponent, coefficient) pairs, strictly decreasing
in the exponent.  Zero is the empty tuple.  Everything here stays below
epsilon_0, so exponent towers are always finite and structural recursion
terminates.

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
_MAX_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_NAT_EXP_LIMIT = (
    int((_MAX_STR_DIGITS - 1) * math.log2(10)) if _MAX_STR_DIGITS else 1_000_000
)
# The least integer too long to print, if there is such a limit.
_MAX_NAT = 10**_MAX_STR_DIGITS if _MAX_STR_DIGITS else 0
# The least coefficient refused: _MAX_NAT, or 2^1000001 without a limit.
_NAT_CAP = _MAX_NAT or 1 << _NAT_EXP_LIMIT + 1


def _printable(a: "Ordinal", deep: bool = True) -> bool:
    """Whether every coefficient of `a` is below _NAT_CAP, and so prints
    within Python's digit limit; the coefficients of the exponents are
    checked too unless `deep` is false."""
    stack = [a]
    while stack:
        for x, c in stack.pop().terms:
            if c >= _NAT_CAP:
                return False
            if deep and x.terms:
                stack.append(x)
    return True


class Ordinal(Record):
    """Immutable ordinal below epsilon_0, in Cantor normal form."""

    __slots__ = ("terms", "_hash")
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
        return isinstance(other, Ordinal) and self.terms == other.terms

    def __lt__(self, other):
        return cmp(self, other) < 0

    def __le__(self, other):
        return cmp(self, other) <= 0

    def __gt__(self, other):
        return cmp(self, other) > 0

    def __ge__(self, other):
        return cmp(self, other) >= 0

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.terms)
            _set_hash(self, h)
        return h

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        return "+".join(_term_str(e, c) for e, c in self.terms)

    def __repr__(self):
        return f"Ordinal[{self}]"


# the slot setters, which write past the guard in `__setattr__`
_set_terms, _set_hash = (getattr(Ordinal, name).__set__ for name in Ordinal.__slots__)


def _cnf(terms: tuple[tuple[Ordinal, int], ...]) -> Ordinal:
    """The ordinal with the given terms, which must already be in Cantor
    normal form: the arithmetic below builds its results this way, as its
    exponents strictly decrease by construction, and skips the check."""
    a = object.__new__(Ordinal)
    _set_terms(a, terms)
    _set_hash(a, None)
    return a


def _term_str(e: Ordinal, c: int) -> str:
    if e.is_zero:
        return str(c)
    s = "w"
    if e != ONE:
        if e.is_finite:
            s += f"^{e.nat}"
        elif e == OMEGA:
            s += "^w"
        else:
            s += f"^({e})"
    if c > 1:
        s += f"*{c}"
    return s


ZERO = Ordinal()
ONE = Ordinal.from_nat(1)
OMEGA = Ordinal(((ONE, 1),))


# ---------------------------------------------------------------------------
# classical arithmetic
# ---------------------------------------------------------------------------


def cmp(a: Ordinal, b: Ordinal) -> int:
    """Three-way comparison: -1, 0 or 1."""
    if a is b:
        return 0
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        k = cmp(ea, eb)
        if k:
            return k
        if ca != cb:
            return -1 if ca < cb else 1
    na, nb = len(a.terms), len(b.terms)
    return 0 if na == nb else (-1 if na < nb else 1)


def add(a: Ordinal, b: Ordinal, *more: Ordinal) -> Ordinal:
    """Ordinal sum a + b + ...: each summand absorbs the terms before it
    whose exponents are below its leading exponent.  Associative, not
    commutative.

    One left-to-right pass over a list of terms, for any number of
    arguments (a lexicographic chain A1++...++An sums all its parts at
    once): each summand pops the trailing terms its leading exponent
    absorbs, merges an equal exponent, and appends the rest.
    """
    out = list(a.terms)
    for x in (b, *more):
        if not x.terms:
            continue
        lead, c = x.terms[0]
        while out and (k := cmp(out[-1][0], lead)) < 0:
            out.pop()
        if out and k == 0:
            out[-1] = (lead, out[-1][1] + c)
            out.extend(x.terms[1:])
        else:
            out.extend(x.terms)
    return _cnf(tuple(out))


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
    unless one is 0 and the sum is the other.
    More arguments (a union chain A1|...|An sums all its parts at once)
    add up the coefficients of each exponent and sort the distinct
    exponents once, instead of n-1 merges into a growing accumulator.
    """
    if more:
        acc: dict[Ordinal, int] = {}
        for x in (a, b, *more):
            for e, c in x.terms:
                acc[e] = acc.get(e, 0) + c
        exps = sorted(acc, key=cmp_to_key(cmp), reverse=True)
        return _cnf(tuple((e, acc[e]) for e in exps))
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


def nat_prod(a: Ordinal, b: Ordinal) -> Ordinal:
    """Natural product: distribute over both normal forms, natural-summing
    the exponents termwise.

    Built in normal form in one pass over the shorter operand's terms:
    a term w^e*c times the other operand is the row of terms
    w^(e (+) f)*(c*d), already in normal form because (+) is strictly
    monotone, and the rows are natural-summed as they come.
    """
    if len(a.terms) > len(b.terms):
        a, b = b, a
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
    parts: list[Ordinal] = []
    cut = ZERO
    for x in (a, b):
        if x.is_successor:
            parts.append(x.pred())
        else:
            e = x.terms[-1][0]  # smallest exponent, >= 1 since x is a limit
            parts.append(_dec_last(x))
            if cmp(e, cut) > 0:
                cut = e
    kept: list[tuple[Ordinal, int]] = []
    c = 1
    for x, d in nat_sum(parts[0], parts[1]).terms:
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
    start = pos
    value, pos = _parse_term(text, pos)
    summed = False
    # a lone '+' continues the sum; '++' belongs to the expression layer
    while text.startswith("+", pos) and not text.startswith("++", pos):
        term, pos = _parse_term(text, _skip_ws(text, pos + 1))
        value = add(value, term)
        summed = True
    if summed and _MAX_NAT and any(c >= _MAX_NAT for _, c in value.terms):
        # the exponents were parsed, and checked, on their own
        raise ParseError(text, start, "a sum small enough to print")
    return value, pos


def _parse_term(text: str, pos: int) -> tuple[Ordinal, int]:
    if text.startswith("w", pos):
        exponent = ONE
        if text.startswith("^", pos + 1):
            exponent, pos = _parse_atom(text, _skip_ws(text, pos + 2))
        else:
            pos = _skip_ws(text, pos + 1)
        coeff = 1
        if text.startswith("*", pos):
            p = _skip_ws(text, pos + 1)
            coeff, pos = _parse_nat(text, p)
            if coeff == 0:
                raise ParseError(text, p, "a coefficient of at least 1")
        return omega_pow(exponent, coeff), pos
    if text.startswith(_DIGITS, pos):
        n, pos = _parse_nat(text, pos)
        return Ordinal.from_nat(n), pos
    raise ParseError(text, pos, "'w' or a natural number")


def _parse_atom(text: str, pos: int) -> tuple[Ordinal, int]:
    if text.startswith(_DIGITS, pos):
        n, pos = _parse_nat(text, pos)
        return Ordinal.from_nat(n), pos
    if text.startswith("w", pos):
        return OMEGA, _skip_ws(text, pos + 1)
    if text.startswith("(", pos):
        value, pos = parse_ordinal_prefix(text, _skip_ws(text, pos + 1))
        if not text.startswith(")", pos):
            raise ParseError(text, pos, "')'")
        return value, _skip_ws(text, pos + 1)
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
