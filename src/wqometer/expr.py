"""The expression language for well-quasi-orders.

Constructors: ordinal leaves, finite antichains G(k), disjoint union ``|``,
lexicographic sum ``++`` (``+`` is accepted as an alias), Cartesian product
``*``, lexicographic product ``.``, finite words ``^<w``, finite multisets
``M(...)`` (and the exact-size variant ``Mn(e, n)`` used by the brute-force
oracle), finite powersets ``Pf(...)`` under domination, the powerset minus
its empty-set bottom ``Pf+`` (internal, produced by powerset elimination),
and three symbolic families ``Phi(a)``, ``Sim(a)``, ``SimExt(a, m)`` whose
members are not themselves finite expression trees.

Grammar (ASCII, whitespace free-form)::

    expr   := alt  (('++' | '+') alt)*          -- lexicographic sum
    alt    := prod ('|' prod)*                   -- disjoint union
    prod   := post (('*' | '.') post)*           -- cartesian / lex product
    post   := base ('^<w')*                      -- finite words
    base   := 'o(' ordinal ')' | NAT | 'w' ['^' atom]
            | 'G(' NAT ')' | 'Pf(' expr ')' | 'M(' expr ')'
            | 'Mn(' expr ',' NAT ')' | 'Phi(' ordinal ')'
            | 'Sim(' ordinal ')' | 'SimExt(' ordinal ',' NAT ')'
            | '(' expr ')'

All binary operators associate to the left.  Bare ordinal literals are
restricted to single-term spellings (naturals, ``w``, ``w^atom``) so that
``*`` and ``+`` always mean product and sum of wqos; composite ordinals go
through ``o(...)``.  ``parse_expr`` and ``print_expr`` round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cache
from operator import attrgetter

from . import ordinal as ord_mod
from .errors import ParseError
from .ordinal import OMEGA, Ordinal, omega_pow

__all__ = [
    "WqoExpr",
    "Ord",
    "Gamma",
    "DisjUnion",
    "LexSum",
    "CartProd",
    "LexProd",
    "Words",
    "Multisets",
    "MultisetsN",
    "Pf",
    "PfPlus",
    "Phi",
    "Sim",
    "SimExt",
    "parse_expr",
    "print_expr",
    "elementary_kind",
    "is_elementary",
    "is_omega_elementary",
    "is_finite_expr",
    "expr_size",
]

OMEGA_OMEGA = omega_pow(OMEGA)


@cache
def _subexpr_fields(cls: type) -> tuple[str, ...]:
    """The fields of node class `cls` that hold subexpressions (``left``
    and ``right``, or ``arg``), in declaration order."""
    return tuple(f.name for f in fields(cls) if f.type == "WqoExpr")


@cache
def _children_getter(cls: type):
    """A function from a node of class `cls` to its subexpressions."""
    names = _subexpr_fields(cls)
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda e: (get(e),)
    return attrgetter(*names) if names else lambda e: ()


@dataclass(frozen=True)
class WqoExpr:
    """Base class; every node is an immutable dataclass."""

    def children(self) -> tuple["WqoExpr", ...]:
        return _children_getter(type(self))(self)

    def with_children(self, kids: tuple["WqoExpr", ...]) -> "WqoExpr":
        return replace(self, **dict(zip(_subexpr_fields(type(self)), kids)))

    def __str__(self):
        return print_expr(self)


@dataclass(frozen=True)
class Ord(WqoExpr):
    value: Ordinal


@dataclass(frozen=True)
class Gamma(WqoExpr):
    """Antichain with `size` incomparable elements."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("antichains G(k) need k >= 1")


@dataclass(frozen=True)
class DisjUnion(WqoExpr):
    left: WqoExpr
    right: WqoExpr


@dataclass(frozen=True)
class LexSum(WqoExpr):
    left: WqoExpr
    right: WqoExpr


@dataclass(frozen=True)
class CartProd(WqoExpr):
    left: WqoExpr
    right: WqoExpr


@dataclass(frozen=True)
class LexProd(WqoExpr):
    left: WqoExpr
    right: WqoExpr


@dataclass(frozen=True)
class Words(WqoExpr):
    """Finite words under word embedding."""

    arg: WqoExpr


@dataclass(frozen=True)
class Multisets(WqoExpr):
    """Finite multisets under multiset embedding."""

    arg: WqoExpr


@dataclass(frozen=True)
class MultisetsN(WqoExpr):
    """Multisets of one fixed size; an oracle-side construct."""

    arg: WqoExpr
    size: int

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("Mn(e, n) needs n >= 0")


@dataclass(frozen=True)
class Pf(WqoExpr):
    """Finite subsets under domination: S <= T iff every element of S is
    below some element of T."""

    arg: WqoExpr


@dataclass(frozen=True)
class PfPlus(WqoExpr):
    """Pf minus its empty-set bottom element (so Pf(X) = 1 ++ PfPlus(X))."""

    arg: WqoExpr


@dataclass(frozen=True)
class Phi(WqoExpr):
    """The canonical family member with all three invariants prescribed by
    its ordinal index (an infinite lexicographic sum of antichains)."""

    value: Ordinal

    def __post_init__(self):
        if self.value.is_zero:
            raise ValueError("Phi(a) needs a >= 1")


@dataclass(frozen=True)
class Sim(WqoExpr):
    """The family member Pf(a^<w) realising the powerset height bound."""

    value: Ordinal


@dataclass(frozen=True)
class SimExt(WqoExpr):
    """Extended member (Sim(a) ++ 1) * G(m) covering successor heights."""

    value: Ordinal
    copies: int

    def __post_init__(self):
        if self.copies < 1:
            raise ValueError("SimExt(a, m) needs m >= 1")


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def elementary_kind(e: WqoExpr) -> str | None:
    """Which rewrite fragment `e` lies in, computed once per node.

    ``"elementary"`` when `e` is built from union, Cartesian product,
    words, multisets and powersets over multiplicatively indecomposable
    ordinal leaves >= w^w (the fragment the rewrite system fully
    normalises); ``"omega"`` when it uses the same constructors over the
    single leaf w (every such wqo has height exactly w); None otherwise.
    The answer is cached on the immutable node outside its dataclass
    fields, so equality, hashing, repr and `children()` ignore it.
    """
    if "_kind" in e.__dict__:
        return e.__dict__["_kind"]
    if isinstance(e, Ord):
        a = e.value
        if a == OMEGA:
            kind = "omega"
        elif a.is_multiplicatively_indecomposable and ord_mod.cmp(a, OMEGA_OMEGA) >= 0:
            kind = "elementary"
        else:
            kind = None
    elif isinstance(e, (DisjUnion, CartProd, Words, Multisets, Pf)):
        kinds = set(map(elementary_kind, e.children()))
        kind = kinds.pop() if len(kinds) == 1 else None
    else:
        kind = None
    object.__setattr__(e, "_kind", kind)
    return kind


def is_elementary(e: WqoExpr) -> bool:
    return elementary_kind(e) == "elementary"


def is_omega_elementary(e: WqoExpr) -> bool:
    return elementary_kind(e) == "omega"


def is_finite_expr(e: WqoExpr) -> bool:
    """True when `e` denotes a finite quasi-order the oracle can build
    outright (words need an explicit length cap and are excluded here)."""
    if isinstance(e, Ord):
        return e.value.is_finite
    if isinstance(e, Gamma):
        return True
    if isinstance(e, (DisjUnion, LexSum, CartProd, LexProd, Pf, PfPlus, MultisetsN)):
        return all(is_finite_expr(k) for k in e.children())
    return False


def expr_size(e: WqoExpr) -> int:
    """Number of nodes in the tree."""
    n, stack = 0, [e]
    while stack:
        n += 1
        stack.extend(stack.pop().children())
    return n


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC_LEXSUM = 1
_PREC_UNION = 2
_PREC_PROD = 3
_PREC_POSTFIX = 4
_PREC_ATOM = 5


def print_expr(e: WqoExpr) -> str:
    """Render `e` in the concrete syntax; parse_expr(print_expr(e)) == e."""
    return _pp(e, 0)


def _pp(e: WqoExpr, min_prec: int) -> str:
    if isinstance(e, LexSum):
        prec = _PREC_LEXSUM
        s = f"{_pp(e.left, prec)}++{_pp(e.right, prec + 1)}"
    elif isinstance(e, DisjUnion):
        prec = _PREC_UNION
        s = f"{_pp(e.left, prec)}|{_pp(e.right, prec + 1)}"
    elif isinstance(e, CartProd):
        prec = _PREC_PROD
        s = f"{_pp(e.left, prec)}*{_pp(e.right, prec + 1)}"
    elif isinstance(e, LexProd):
        prec = _PREC_PROD
        s = f"{_pp(e.left, prec)}.{_pp(e.right, prec + 1)}"
    elif isinstance(e, Words):
        prec = _PREC_POSTFIX
        s = f"{_pp(e.arg, prec)}^<w"
    else:
        prec = _PREC_ATOM
        if isinstance(e, Ord):
            s = str(e.value.nat) if e.value.is_finite else f"o({e.value})"
        elif isinstance(e, Gamma):
            s = f"G({e.size})"
        elif isinstance(e, Pf):
            s = f"Pf({_pp(e.arg, 0)})"
        elif isinstance(e, PfPlus):
            s = f"Pf+({_pp(e.arg, 0)})"
        elif isinstance(e, Multisets):
            s = f"M({_pp(e.arg, 0)})"
        elif isinstance(e, MultisetsN):
            s = f"Mn({_pp(e.arg, 0)},{e.size})"
        elif isinstance(e, Phi):
            s = f"Phi({e.value})"
        elif isinstance(e, Sim):
            s = f"Sim({e.value})"
        elif isinstance(e, SimExt):
            s = f"SimExt({e.value},{e.copies})"
        else:  # pragma: no cover
            raise TypeError(f"unknown node {e!r}")
    return f"({s})" if prec < min_prec else s


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def parse_expr(text: str) -> WqoExpr:
    p = _Parser(text)
    e = p.parse_lexsum()
    p.skip_ws()
    if p.pos != len(text):
        raise ParseError(text, p.pos, "end of expression or an operator")
    return e


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def accept(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str):
        if not self.accept(token):
            raise ParseError(self.text, self.pos, f"'{token}'")

    def parse_lexsum(self) -> WqoExpr:
        e = self.parse_union()
        while True:
            self.skip_ws()
            if self.text.startswith("++", self.pos):
                self.pos += 2
            elif self.text.startswith("+", self.pos):
                self.pos += 1
            else:
                return e
            e = LexSum(e, self.parse_union())

    def parse_union(self) -> WqoExpr:
        e = self.parse_prod()
        while self.accept("|"):
            e = DisjUnion(e, self.parse_prod())
        return e

    def parse_prod(self) -> WqoExpr:
        e = self.parse_postfix()
        while True:
            if self.accept("*"):
                e = CartProd(e, self.parse_postfix())
            elif self.accept("."):
                e = LexProd(e, self.parse_postfix())
            else:
                return e

    def parse_postfix(self) -> WqoExpr:
        e = self.parse_base()
        while True:
            self.skip_ws()
            if self.text.startswith("^<w", self.pos):
                self.pos += 3
                e = Words(e)
            else:
                return e

    def parse_base(self) -> WqoExpr:
        self.skip_ws()
        t, pos = self.text, self.pos
        if pos >= len(t):
            raise ParseError(t, pos, "an expression")
        c = t[pos]
        if c == "(":
            self.pos += 1
            e = self.parse_lexsum()
            self.expect(")")
            return e
        if c in "0123456789":
            n, self.pos = ord_mod._parse_nat(t, pos)
            return Ord(Ordinal.from_nat(n))
        if c == "w" and not _is_word_start(t, pos):
            # bare single-term ordinal literal: w or w^atom
            self.pos += 1
            exponent = ord_mod.ONE
            if self.text.startswith("^", self.pos) and not self.text.startswith(
                "^<", self.pos
            ):
                exponent, self.pos = ord_mod._parse_atom(t, self.pos + 1)
            return Ord(omega_pow(exponent))
        name = _scan_name(t, pos)
        if name == "o":
            self.pos += 1
            self.expect("(")
            value = self.parse_ordinal_arg()
            self.expect(")")
            return Ord(value)
        if name == "G":
            self.pos += 1
            self.expect("(")
            k = self.parse_nat_arg()
            self.expect(")")
            return self._make(Gamma, k)
        if name == "Pf":
            self.pos += 2
            plus = self.text.startswith("+", self.pos)
            if plus:
                self.pos += 1
            self.expect("(")
            e = self.parse_lexsum()
            self.expect(")")
            return PfPlus(e) if plus else Pf(e)
        if name == "Mn":
            self.pos += 2
            self.expect("(")
            e = self.parse_lexsum()
            self.expect(",")
            k = self.parse_nat_arg()
            self.expect(")")
            return self._make(MultisetsN, e, k)
        if name == "M":
            self.pos += 1
            self.expect("(")
            e = self.parse_lexsum()
            self.expect(")")
            return Multisets(e)
        if name == "Phi":
            self.pos += 3
            self.expect("(")
            value = self.parse_ordinal_arg()
            self.expect(")")
            return self._make(Phi, value)
        if name == "SimExt":
            self.pos += 6
            self.expect("(")
            value = self.parse_ordinal_arg()
            self.expect(",")
            m = self.parse_nat_arg()
            self.expect(")")
            return self._make(SimExt, value, m)
        if name == "Sim":
            self.pos += 3
            self.expect("(")
            value = self.parse_ordinal_arg()
            self.expect(")")
            return Sim(value)
        raise ParseError(t, pos, "a constructor (o, G, Pf, M, Mn, Phi, Sim, SimExt), '(', 'w' or a natural number")

    def _make(self, cls, *args):
        try:
            return cls(*args)
        except ValueError as exc:
            raise ParseError(self.text, self.pos, str(exc)) from None

    def parse_ordinal_arg(self) -> Ordinal:
        value, self.pos = ord_mod.parse_ordinal_prefix(self.text, self.pos)
        return value

    def parse_nat_arg(self) -> int:
        n, self.pos = ord_mod._parse_nat(self.text, self.pos)
        return n


def _scan_name(text: str, pos: int) -> str:
    end = pos
    while end < len(text) and text[end].isalpha():
        end += 1
    return text[pos:end]


def _is_word_start(text: str, pos: int) -> bool:
    """Is the 'w' at `pos` the start of a longer name?  (There are none
    today beginning with w, but keep the lexer honest.)"""
    return pos + 1 < len(text) and text[pos + 1].isalpha()
