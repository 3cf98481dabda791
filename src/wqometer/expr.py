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
frames, and it makes equal subterms of one text one object: a term that
repeats a part many times holds it once.  Equality, hashing and pickling
are as for unshared terms.

Every walk over a term in the package, here and in the layers above,
is one `fold`: a bottom-up pass over an explicit stack that treats each
distinct node object once, so neither depth nor repetition costs frames.

Each node's `fragment` (elementary, omega-elementary or neither) is set by
its constructor from its children's, so classifying a term takes no walk
over it and no frame per nesting level.
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
    "is_finite_expr",
    "expr_size",
]


class WqoExpr(Record):
    """Base class; every node is an immutable `Record`.

    `fragment` names the rewrite fragment the node lies in, fixed by its
    constructor from its own value or its children's: ``"elementary"``
    when it is built from union, Cartesian product, words, multisets and
    powersets over multiplicatively indecomposable ordinal leaves >= w^w
    (the fragment the rewrite system fully normalises); ``"omega"`` when
    it uses the same constructors over the single leaf w (every such wqo
    has height exactly w); None otherwise.  It is not one of the node's
    fields, so equality, hashing, repr and `children()` ignore it.  A
    class that is never in a fragment says so once, with a class
    attribute that hides the slot.
    """

    __slots__ = ("fragment",)

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
        _set_fragment(self, arg.fragment)

    def children(self) -> tuple[WqoExpr, ...]:
        return (self.arg,)


class _Binary(WqoExpr):
    """A constructor over two subexpressions, `left` and `right`."""

    __slots__ = _fields = ("left", "right")

    def __init__(self, left: WqoExpr, right: WqoExpr):
        _set_left(self, left)
        _set_right(self, right)
        f = left.fragment
        _set_fragment(self, f if f == right.fragment else None)

    def children(self) -> tuple[WqoExpr, ...]:
        return self.left, self.right


class Ord(WqoExpr):
    __slots__ = _fields = ("value",)

    def __init__(self, value: Ordinal):
        _set_value(self, value)
        # the multiplicatively indecomposable w^(w^g) are w (g = 0) and
        # those >= w^w
        if value.is_multiplicatively_indecomposable:
            _set_fragment(self, "omega" if value == OMEGA else "elementary")
        else:
            _set_fragment(self, None)


class Gamma(WqoExpr):
    """Antichain with `size` incomparable elements."""

    __slots__ = _fields = ("size",)
    fragment = None

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("k >= 1 in G(k)")
        object.__setattr__(self, "size", size)


class DisjUnion(_Binary):
    __slots__ = ()


class LexSum(_Binary):
    __slots__ = ()
    fragment = None


class CartProd(_Binary):
    __slots__ = ()


class LexProd(_Binary):
    __slots__ = ()
    fragment = None


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
    fragment = None

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
    fragment = None


class Phi(WqoExpr):
    """The canonical family member with all three invariants prescribed by
    its ordinal index (an infinite lexicographic sum of antichains)."""

    __slots__ = _fields = ("value",)
    fragment = None

    def __init__(self, value: Ordinal):
        if value.is_zero:
            raise ValueError("a >= 1 in Phi(a)")
        object.__setattr__(self, "value", value)


class Sim(WqoExpr):
    """The family member Pf(a^<w) realising the powerset height bound."""

    __slots__ = _fields = ("value",)
    fragment = None


class SimExt(WqoExpr):
    """Extended member (Sim(a) ++ 1) * G(m) covering successor heights."""

    __slots__ = _fields = ("value", "copies")
    fragment = None

    def __init__(self, value: Ordinal, copies: int):
        if copies < 1:
            raise ValueError("m >= 1 in SimExt(a, m)")
        super().__init__(value, copies)


# the slot setters of the hot constructors, which write past the guard
_set_fragment, _set_value = WqoExpr.fragment.__set__, Ord.value.__set__
_set_arg = _Unary.arg.__set__
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__


# ---------------------------------------------------------------------------
# walking a term
# ---------------------------------------------------------------------------


def fold(e: WqoExpr, up, down=None):
    """``up(node, values)`` of `e`, bottom-up, once per distinct node object.

    `values` lists the results for the nodes ``down(node)`` names (by
    default the node's children), in order.  `down` runs once per distinct
    node, when the walk first reaches it; the nodes it names are then
    folded left to right, each completely, and `up` runs after the last,
    in the order of a recursive walk, so side effects of `down` and `up`
    come in that order too.  A node met again (`parse_expr` shares equal
    subterms, and `down` may name one twice) is looked up by identity.
    The stack lives on the heap, so nesting costs no Python frames, and
    every node stays referenced until the fold returns, so no id is
    reused, also for nodes that `down` builds.
    """
    done = {}
    keep = []  # the sequences of named nodes, which hold every node but `e`
    # each node waiting for the values of the nodes it names, as (node,
    # id, count), above those of the nodes not reached yet; the values of
    # the nodes named by the waiting ones, in order
    stack = []
    values = []
    x = e
    while True:
        key = id(x)
        if key in done:
            v = done[key]
        else:
            kids = x.children() if down is None else down(x)
            if kids:
                keep.append(kids)
                stack.append((x, key, len(kids)))
                stack += kids[:0:-1]  # all but the first, last first
                x = kids[0]
                continue
            v = done[key] = up(x, kids)
        values.append(v)
        # finish the waiting nodes whose named nodes are all folded, up to
        # the next node to reach
        while stack:
            x = stack.pop()
            if type(x) is not tuple:
                break
            x, key, n = x
            v = done[key] = up(x, values[-n:])
            values[-n:] = (v,)
        else:
            return v


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def is_finite_expr(e: WqoExpr) -> bool:
    """True when `e` denotes a finite quasi-order the oracle can build
    outright (words need an explicit length cap and are excluded here)."""
    return fold(e, _finite)


def _finite(e: WqoExpr, kids: list[bool]) -> bool:
    if isinstance(e, Ord):
        return e.value.is_finite
    if isinstance(e, MultisetsN) and not e.size:
        return True  # only the empty multiset, whatever the argument
    return isinstance(e, _FINITE) and all(kids)


# the constructors that keep a finite order finite
_FINITE = (Gamma, DisjUnion, LexSum, CartProd, LexProd, Pf, PfPlus, MultisetsN)


def expr_size(e: WqoExpr) -> int:
    """Number of nodes in the tree, a shared subterm counted each time."""
    return fold(e, lambda _, kids: 1 + sum(kids))


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
    """Render `e` in the concrete syntax; parse_expr(print_expr(e)) == e.

    A fold gives each node its layout, which holds its subexpressions'
    layouts rather than their text, so a deep term keeps one copy of each
    piece; the text is read off the root's layout in one pass."""
    out, todo = [], [fold(e, _layout)]
    while todo:
        x = todo.pop()
        if type(x) is str:
            out.append(x)
        else:
            todo += reversed(x[1])
    return "".join(out)


def _layout(e: WqoExpr, kids: list[tuple]) -> tuple[int, tuple]:
    """(precedence, pieces) of `e`: the precedence of its operator (that
    of a leaf or a call binds tightest), and its text as strings and the
    layouts of its subexpressions, each in parentheses when it binds
    looser than its place needs."""
    cls = type(e)
    call = _CONSTRUCTOR.get(cls)
    if call is not None:
        if cls is Ord and e.value.is_finite:
            return _TIGHTEST, (str(e.value.nat),)
        name, params = call
        # an expression argument, if any, is the one and the first
        first, *rest = (kids[0] if k == "e" else str(getattr(e, f)) for f, k in params)
        return _TIGHTEST, (name + "(", first, "".join("," + a for a in rest) + ")")
    prec, tok = _OPERATOR[cls]
    # the left operand may bind as loosely as the operator, the right one
    # must bind tighter (every operator associates to the left)
    first = _operand(kids[0], prec)
    if cls is Words:
        return prec, (*first, tok)
    return prec, (*first, tok, *_operand(kids[1], prec + 1))


def _operand(layout: tuple[int, tuple], min_prec: int) -> tuple:
    return ("(", layout, ")") if layout[0] < min_prec else (layout,)


_TIGHTEST = _WORDS_PREC + 1


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
# A leaf met before is looked up by its text, not read again.  The text a
# leaf call's arguments span, and that of a bare w's exponent (if any), is
# ordinal text balanced in parentheses; matched here up to two deep, it
# ends where reading it would (each ordinal reader stops at a non-blank
# after the blanks that follow it).  Deeper text is read, not looked up.
_BALANCED = r"\((?:[^()]++|\([^()]*+\))*+\)"
_LEAF_CALLS = {name for name, (_cls, kinds) in _CALLS.items() if "e" not in kinds}
_LEAF_ARGS = re.compile(r"[ \t]*+" + _BALANCED)
_EXPONENT = re.compile(r"\^(?!<)[ \t]*+(?:[0-9]++|w|%s)[ \t]*+|(?!\^(?!<))" % _BALANCED)


def parse_expr(text: str) -> WqoExpr:
    """Parse the concrete syntax; see the grammar in the module docstring.

    One operator-precedence loop over explicit stacks, so nesting costs no
    Python frames: `out` holds the operands read so far, and `groups` the
    open groups, innermost last, each a ``(``, a constructor call waiting
    for an expression argument, or the whole text, with the arguments read
    so far and its own pending infix operators.

    Equal subterms come out as one object.  `shared` maps the text of each
    leaf (an ordinal literal, or a call whose arguments are all ordinals
    and naturals), and each other node's class with the ids of its
    subexpressions, to the first node made for it.  Those subexpressions
    are shared already, so the sharing grows bottom-up, and every node in
    `out` stays in `shared`, so no id is reused.  A leaf call whose text
    was seen before is not read again.  The table lives for one call.
    """
    out: list[WqoExpr] = []
    groups: list[tuple[str | None, list, list]] = [(None, [], [])]
    shared: dict = {}
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
        if tok in _LEAF_CALLS or tok == "w":
            m = (_EXPONENT if tok == "w" else _LEAF_ARGS).match(text, pos)
            node = shared.get(text[p : m.end()]) if m else None
            if node is not None:
                pos = m.end()
            else:
                if tok != "w":
                    node, pos = _call(text, pos, tok, [])
                else:
                    # bare single-term ordinal literal: w or w^atom
                    exponent = ord_mod.ONE
                    if text.startswith("^", pos) and not text.startswith("^<", pos):
                        exponent, pos = ord_mod._parse_atom(
                            text, ord_mod._skip_ws(text, pos + 1)
                        )
                    node = Ord(omega_pow(exponent))
                node = shared.setdefault(text[p:pos], node)
        elif tok in _CALLS:
            args = []
            pos = _call(text, pos, tok, args)[1]
            groups.append((tok, args, []))
            continue
        elif tok in "0123456789":
            n, pos = ord_mod._parse_nat(text, p)
            key = text[p:pos]
            node = shared.get(key)
            if node is None:
                node = shared[key] = Ord(Ordinal.from_nat(n))
        else:
            raise ParseError(text, p, _OPERAND)
        out.append(node)
        # the operators after it; any other token ends the innermost group
        while True:
            m = _TOKEN.match(text, pos)
            tok, p = m[1], m.start(1)
            if tok == _WORDS:
                x = out[-1]
                out[-1] = shared.setdefault((Words, id(x)), Words(x))
                pos = m.end()
                continue
            name, args, ops = groups[-1]
            infix = _INFIX.get(tok)
            prec = infix[0] if infix else 0
            while ops and ops[-1][0] >= prec:
                cls = ops.pop()[1]
                right = out.pop()
                left = out[-1]
                out[-1] = shared.setdefault((cls, id(left), id(right)), cls(left, right))
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
            # the expression argument comes first, any natural after it
            out.append(shared.setdefault((type(node), id(args[0]), *args[1:]), node))


def _call(text: str, pos: int, name: str, args: list) -> tuple[WqoExpr | None, int]:
    """Read on in constructor call `name` from `pos`, just after its name
    or its last argument read so far (`args`): the separators, and the
    leaf arguments up to its expression argument or through the closing
    ')'.  Returns None and the position where the expression argument
    starts, which only a call with no argument read yet can meet (an
    expression argument is always the first), or else the node and the
    position after it."""
    cls, kinds = _CALLS[name]
    if not args:
        pos = ord_mod._skip_ws(text, pos)  # the blanks after the name
    while True:
        i = len(args)
        sep = "(" if i == 0 else "," if i < len(kinds) else ")"
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
        # a leaf reader also skips the blanks after its argument
        start = ord_mod._skip_ws(text, pos)
        value, pos = _LEAF[kinds[i]](text, start)
        args.append(value)
