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
through ``o(...)``.

The tokens, precedences and constructor names live in one table
(``_INFIX``, ``_WORDS`` and ``_CALLS`` below), the one source that both
``parse_expr`` and ``print_expr`` read; the two round-trip.  The parser
keeps its stacks on the heap, so expression nesting costs it no Python
frames.
"""

from __future__ import annotations

import re

from . import ordinal as ord_mod
from .errors import ParseError
from .ordinal import OMEGA, Ordinal, omega_pow
from .record import Record

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


class WqoExpr(Record):
    """Base class; every node is an immutable `Record`, and the `_kind`
    slot caches `elementary_kind`."""

    __slots__ = ("_kind",)

    def children(self) -> tuple[WqoExpr, ...]:
        return ()

    def with_children(self, kids: tuple[WqoExpr, ...]) -> WqoExpr:
        """This node over the subexpressions `kids`; a leaf has none."""
        return type(self)(*kids) if kids else self

    def __str__(self):
        return print_expr(self)


class _Unary(WqoExpr):
    """A constructor over one subexpression, `arg`."""

    __slots__ = _fields = ("arg",)

    def __init__(self, arg: WqoExpr):
        _set_arg(self, arg)

    def children(self) -> tuple[WqoExpr, ...]:
        return (self.arg,)


class _Binary(WqoExpr):
    """A constructor over two subexpressions, `left` and `right`."""

    __slots__ = _fields = ("left", "right")

    def __init__(self, left: WqoExpr, right: WqoExpr):
        _set_left(self, left)
        _set_right(self, right)

    def children(self) -> tuple[WqoExpr, ...]:
        return self.left, self.right


class Ord(WqoExpr):
    __slots__ = _fields = ("value",)

    def __init__(self, value: Ordinal):
        _set_value(self, value)


class Gamma(WqoExpr):
    """Antichain with `size` incomparable elements."""

    __slots__ = _fields = ("size",)

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("k >= 1 in G(k)")
        object.__setattr__(self, "size", size)


class DisjUnion(_Binary):
    __slots__ = ()


class LexSum(_Binary):
    __slots__ = ()


class CartProd(_Binary):
    __slots__ = ()


class LexProd(_Binary):
    __slots__ = ()


class Words(_Unary):
    """Finite words under word embedding."""

    __slots__ = ()


class Multisets(_Unary):
    """Finite multisets under multiset embedding."""

    __slots__ = ()


class MultisetsN(_Unary):
    """Multisets of one fixed size; an oracle-side construct."""

    __slots__ = ("size",)
    _fields = ("arg", "size")

    def __init__(self, arg: WqoExpr, size: int):
        if size < 0:
            raise ValueError("n >= 0 in Mn(e, n)")
        Record.__init__(self, arg, size)

    def with_children(self, kids: tuple[WqoExpr, ...]) -> WqoExpr:
        return MultisetsN(*kids, self.size)


class Pf(_Unary):
    """Finite subsets under domination: S <= T iff every element of S is
    below some element of T."""

    __slots__ = ()


class PfPlus(_Unary):
    """Pf minus its empty-set bottom element (so Pf(X) = 1 ++ PfPlus(X))."""

    __slots__ = ()


class Phi(WqoExpr):
    """The canonical family member with all three invariants prescribed by
    its ordinal index (an infinite lexicographic sum of antichains)."""

    __slots__ = _fields = ("value",)

    def __init__(self, value: Ordinal):
        if value.is_zero:
            raise ValueError("a >= 1 in Phi(a)")
        object.__setattr__(self, "value", value)


class Sim(WqoExpr):
    """The family member Pf(a^<w) realising the powerset height bound."""

    __slots__ = _fields = ("value",)


class SimExt(WqoExpr):
    """Extended member (Sim(a) ++ 1) * G(m) covering successor heights."""

    __slots__ = _fields = ("value", "copies")

    def __init__(self, value: Ordinal, copies: int):
        if copies < 1:
            raise ValueError("m >= 1 in SimExt(a, m)")
        super().__init__(value, copies)


# the slot setters of the hot constructors, which write past the guard
_set_kind, _set_value = WqoExpr._kind.__set__, Ord.value.__set__
_set_arg = _Unary.arg.__set__
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__


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
    The answer is cached in the node's `_kind` slot, which is not one of
    its fields, so equality, hashing, repr and `children()` ignore it.
    """
    if hasattr(e, "_kind"):
        return e._kind
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
    _set_kind(e, kind)
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
# concrete syntax: the one table that parse_expr and print_expr read
# ---------------------------------------------------------------------------

# infix token -> (precedence, class); every operator associates to the
# left, precedences start at 1, and a class prints as its first token
_INFIX = {
    "++": (1, LexSum),
    "+": (1, LexSum),
    "|": (2, DisjUnion),
    "*": (3, CartProd),
    ".": (3, LexProd),
}
# finite words: a postfix operator that binds tighter than every infix one
_WORDS = "^<w"
_WORDS_PREC = 4
# constructor name -> (class, argument kinds), the arguments being the
# class's fields in order: "e" an expression, "a" an ordinal, "n" a
# natural number
_CALLS = {
    "o": (Ord, "a"),
    "G": (Gamma, "n"),
    "Pf": (Pf, "e"),
    "Pf+": (PfPlus, "e"),
    "M": (Multisets, "e"),
    "Mn": (MultisetsN, "en"),
    "Phi": (Phi, "a"),
    "Sim": (Sim, "a"),
    "SimExt": (SimExt, "an"),
}

# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

# the table read backwards: each operator class with its precedence and
# printed token, each constructor class with its name and (field, kind)s
_OPERATOR = {cls: (prec, tok) for tok, (prec, cls) in reversed(_INFIX.items())}
_OPERATOR[Words] = (_WORDS_PREC, _WORDS)
_CONSTRUCTOR = {
    cls: (name, tuple(zip(cls._fields, kinds)))
    for name, (cls, kinds) in _CALLS.items()
}


def print_expr(e: WqoExpr) -> str:
    """Render `e` in the concrete syntax; parse_expr(print_expr(e)) == e."""
    return _pp(e, 0)


def _pp(e: WqoExpr, min_prec: int) -> str:
    cls = type(e)
    call = _CONSTRUCTOR.get(cls)
    if call is not None:
        if cls is Ord and e.value.is_finite:
            return str(e.value.nat)
        name, params = call
        args = []
        for field, kind in params:
            value = getattr(e, field)
            args.append(_pp(value, 0) if kind == "e" else str(value))
        return f"{name}({','.join(args)})"
    prec, tok = _OPERATOR[cls]
    if cls is Words:
        s = _pp(e.arg, prec) + tok
    else:
        s = f"{_pp(e.left, prec)}{tok}{_pp(e.right, prec + 1)}"
    return f"({s})" if prec < min_prec else s


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# one token after blanks: a multi-character token that is not all letters,
# a run of letters, any other character, or nothing at the end of the text
_TOKEN = re.compile(
    "[ \t]*(%s|[^\\W\\d_]+|.?)"
    % "|".join(
        re.escape(t)
        for t in sorted((*_INFIX, _WORDS, *_CALLS), key=len, reverse=True)
        if len(t) > 1 and not t.isalpha()
    ),
    re.DOTALL,
)
# what may start an operand (the internal Pf+ is not offered)
_OPERAND = "a constructor (%s), '(', 'w' or a natural number" % ", ".join(
    name for name in _CALLS if name.isalpha()
)
_LEAF = {"a": ord_mod.parse_ordinal_prefix, "n": ord_mod._parse_nat}


def parse_expr(text: str) -> WqoExpr:
    """Parse the concrete syntax; see the grammar in the module docstring.

    One operator-precedence loop over explicit stacks, so nesting costs no
    Python frames: `out` holds the operands read so far, and `groups` the
    open groups, innermost last, each a ``(``, a constructor call waiting
    for an expression argument, or the whole text, with the arguments read
    so far and its own pending infix operators.
    """
    out: list[WqoExpr] = []
    groups: list[tuple[str | None, list, list]] = [(None, [], [])]
    pos = 0
    while True:
        # an operand: a leaf, or the opening of a group
        m = _TOKEN.match(text, pos)
        tok, p, pos = m[1], m.start(1), m.end()
        if not tok:
            raise ParseError(text, p, "an expression")
        if tok == "(":
            groups.append((tok, [], []))
            continue
        if tok in _CALLS:
            args = []
            node, pos = _call(text, pos, tok, args)
            if node is None:
                groups.append((tok, args, []))
                continue
        elif tok == "w":
            # bare single-term ordinal literal: w or w^atom
            exponent = ord_mod.ONE
            if text.startswith("^", pos) and not text.startswith("^<", pos):
                exponent, pos = ord_mod._parse_atom(text, pos + 1)
            node = Ord(omega_pow(exponent))
        elif tok in "0123456789":
            n, pos = ord_mod._parse_nat(text, p)
            node = Ord(Ordinal.from_nat(n))
        else:
            raise ParseError(text, p, _OPERAND)
        out.append(node)
        # the operators after it; any other token ends the innermost group
        while True:
            m = _TOKEN.match(text, pos)
            tok, p = m[1], m.start(1)
            if tok == _WORDS:
                out[-1] = Words(out[-1])
                pos = m.end()
                continue
            name, args, ops = groups[-1]
            infix = _INFIX.get(tok)
            prec = infix[0] if infix else 0
            while ops and ops[-1][0] >= prec:
                right = out.pop()
                out[-1] = ops.pop()[1](out[-1], right)
            if infix:
                ops.append(infix)
                pos = m.end()
                break
            if name is None:
                if tok:
                    raise ParseError(text, p, "end of expression or an operator")
                return out[0]
            groups.pop()
            if name == "(":
                if tok != ")":
                    raise ParseError(text, p, "')'")
                pos = m.end()
                continue
            args.append(out.pop())
            node, pos = _call(text, p, name, args)
            if node is None:
                groups.append((name, args, []))
                break
            out.append(node)


def _call(text: str, pos: int, name: str, args: list) -> tuple[WqoExpr | None, int]:
    """Read on in constructor call `name` from `pos`, just after its name
    or its last argument read so far (`args`): the separators, and the
    leaf arguments up to the next expression argument or through the
    closing ')'.  Returns the node and the position after it, or None and
    the position where the expression argument starts."""
    cls, kinds = _CALLS[name]
    while True:
        i = len(args)
        sep = "(" if i == 0 else "," if i < len(kinds) else ")"
        pos = ord_mod._skip_ws(text, pos)
        if not text.startswith(sep, pos):
            raise ParseError(text, pos, f"'{sep}'")
        pos += 1
        if i == len(kinds):
            try:
                return cls(*args), pos
            except ValueError as exc:
                # only leaf arguments have side conditions, and only the
                # last one of a call
                raise ParseError(text, start, str(exc)) from None
        if kinds[i] == "e":
            return None, pos
        start = ord_mod._skip_ws(text, pos)
        value, pos = _LEAF[kinds[i]](text, start)
        args.append(value)
