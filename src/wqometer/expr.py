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
runs over the token list that one regular-expression `findall` makes of
the text, in which a whole leaf (``w^(w^2)``, ``Sim(w^w)``, ``3``) is one
token, and so is a Pf, M or ^<w directly over one (``M(G(3))``,
``o(w+1)^<w``); it keeps its stacks on the heap, so expression nesting
costs it no Python frames, and it makes equal subterms of one text one
object: a term that repeats a part many times holds it once.  Such a
token is one node across texts too: one met before, in this text or an
earlier one, is looked up by its text in a bounded table, not read
again.  Equality, hashing and pickling are as for unshared terms.

Every walk over a term in the package, here and in the layers above,
is one `fold`: a bottom-up pass over an explicit stack that treats each
distinct node object once, so neither depth nor repetition costs frames.

Each node's `fragment` (elementary, omega-elementary or neither) is set by
its constructor from its children's, so classifying a term takes no walk
over it and no frame per nesting level; so is an elementary node's
`nf_shape`, the size of its normal form and whether a rewrite rule can
fire at or below it.
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
    has height exactly w); None otherwise.  `nf_shape`, which the
    constructor of an elementary node sets too, is the shape of its normal
    form (see `_shape`); no other node has one.  `facts` is the engine's:
    the triple and notes of a node it evaluates without reading another
    node's triple, such as a leaf or a constructor in `_OVER_LEAF`
    directly over one, set when it is first evaluated.  None of these is
    one of the node's fields, so equality, hashing, repr, `children()`,
    pickling and copying ignore them.  A class that is never in a
    fragment says so once, with a class attribute that hides the slot.
    """

    __slots__ = ("fragment", "nf_shape", "facts", "__weakref__")

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
        if self.fragment == "elementary":
            _set_nf_shape(self, _shape(self))

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
        if self.fragment == "elementary":
            _set_nf_shape(self, _shape(self))

    def children(self) -> tuple[WqoExpr, ...]:
        return self.left, self.right


class Ord(WqoExpr):
    __slots__ = _fields = ("value",)

    def __init__(self, value: Ordinal):
        _set_value(self, value)
        # the multiplicatively indecomposable w^(w^g) are w (g = 0) and
        # those >= w^w
        if value.is_multiplicatively_indecomposable and value != OMEGA:
            _set_fragment(self, "elementary")
            _set_nf_shape(self, (1, 1, 1, 1, False))  # its own normal form
        else:
            _set_fragment(self, "omega" if value == OMEGA else None)


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
_set_fragment, _set_nf_shape = WqoExpr.fragment.__set__, WqoExpr.nf_shape.__set__
_set_value, _set_arg = Ord.value.__set__, _Unary.arg.__set__
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__

# the nodes with no subexpression, and the constructors that the parser
# reads directly over one as one token (see `_TOKEN`), and whose triples
# over one the engine keeps on the node, as it does those of a leaf
_LEAF_KINDS = frozenset((Ord, Gamma, Phi, Sim, SimExt))
_OVER_LEAF = frozenset((Pf, Multisets, Words))

# the redexes of the rewrite rules: a node of one of these classes over a
# child of a class it names, either child of a product; `_shape` finds
# them, and `rewrite._raw_match` reads its rules off them
_REDEXES = {Pf: (Ord, DisjUnion), Multisets: (DisjUnion,), CartProd: (DisjUnion,)}


def _shape(e: WqoExpr) -> tuple[int, int, int, int, bool]:
    """The `nf_shape` of the inner elementary node `e`, from its
    children's: the number of components of its normal form, a union of
    union-free components, the bare leaves among them, and their nodes in
    all; the number of nodes in `e`; and whether a redex lies at or below
    `e`.  So the size of the normal form is known without building it."""
    kinds = _REDEXES.get(type(e), ())
    if type(e) is DisjUnion or type(e) is CartProd:
        (n, leaves, size, t1, redex), (n2, l2, s2, t2, r2) = e.left.nf_shape, e.right.nf_shape
        redex = redex or r2 or type(e.left) in kinds or type(e.right) in kinds
        if type(e) is DisjUnion:
            return n + n2, leaves + l2, size + s2, t1 + t2 + 1, redex
        # one product component per pair of components
        return n * n2, 0, n * n2 + n2 * size + n * s2, t1 + t2 + 1, redex
    n, leaves, size, t, redex = e.arg.nf_shape
    redex = redex or type(e.arg) in kinds
    if type(e) is Words:
        # no rule splits words: the one component Words(nf)
        return 1, 0, n + size, t + 1, redex
    if type(e) is Multisets:
        leaves = 0  # the product of M(C) over the components C
    elif n == leaves == 1:
        return 1, 1, 1, t + 1, redex  # Pf of a leaf is the leaf
    # the product of Pf(C) over the components C, with Pf(a) = a
    return 1, 0, 2 * n - 1 + size - leaves, t + 1, redex


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

# The tokens, which one `findall` lists for the whole text, so that each
# token starts where the one before it ends: a run of blanks; 'Pf(' or
# 'M(' directly followed by a whole leaf or a bare w and then ')'; a whole
# leaf, with the '^<w' directly after it if there is one, or a bare w
# with it; the opening of a call with an expression argument, through its
# '('; each multi-character token that is not all letters; a run of
# letters; any other character.  A whole leaf is a leaf call (one whose
# arguments are all ordinals and naturals) with its arguments, a bare w
# with its exponent, or a natural number, each spelled as far as reading
# it goes (an ordinal or natural reader also takes the blanks after it, a
# call stops at its ')'), so that a leaf, or a constructor in `_OVER_LEAF`
# directly over one, met before is looked up by its text, not read again.
# The arguments and the exponent are ordinal text balanced in
# parentheses, matched here up to two deep; a leaf nested deeper comes as
# its call name alone, or as "w^", and is read in place.  Any other
# spelling of a constructor over a leaf (``Pf( 3)``, ``M((3))``,
# ``w ^<w``) comes as its separate tokens.
_BALANCED = r"\((?:[^()]++|\([^()]*+\))*+\)"


def _either(names) -> str:
    return "|".join(re.escape(t) for t in sorted(names, key=len, reverse=True))


# the names of the calls whose arguments are all leaves, of those with an
# expression argument and of those in `_OVER_LEAF`, and the multi-character
# tokens that are not all letters
_LEAF_CALLS = _either(n for n, (_cls, kinds) in _CALLS.items() if "e" not in kinds)
_OPENERS = _either(n for n, (_cls, kinds) in _CALLS.items() if "e" in kinds)
_OVER_LEAF_CALLS = _either(n for n, (cls, _kinds) in _CALLS.items() if cls in _OVER_LEAF)
_MULTI = _either(t for t in (*_INFIX, _WORDS, *_CALLS) if len(t) > 1 and not t.isalpha())
_WHOLE_LEAF = (
    rf"w\^(?!<)(?:[ \t]*+(?:[0-9]++|w|{_BALANCED})[ \t]*+)?"
    rf"|(?:{_LEAF_CALLS})[ \t]*+{_BALANCED}"
    r"|[0-9]++[ \t]*+"
)
_TOKEN = re.compile(
    r"[ \t]++"
    rf"|(?:{_OVER_LEAF_CALLS})\((?:{_WHOLE_LEAF}|w)\)"
    rf"|(?:{_WHOLE_LEAF})(?:\^<w)?|w\^<w"
    rf"|(?:{_OPENERS})[ \t]*+\("
    rf"|{_MULTI}|[^\W\d_]++|.",
    re.DOTALL,
)
# "(" and each call opening spelled without blanks, with its group's name
_OPENS = {"(": "("} | {
    name + "(": name for name, (_cls, kinds) in _CALLS.items() if "e" in kinds
}
# what may start an operand (the internal Pf+ is not offered)
_OPERAND = "a constructor (%s), '(', 'w' or a natural number" % ", ".join(
    name for name in _CALLS if name.isalpha()
)
_LEAF = {"a": ord_mod.parse_ordinal_prefix, "n": ord_mod._parse_nat}
# every text's whole-leaf tokens, and tokens of a constructor over a whole
# leaf, read so far, each with its node, for all calls; emptied when it
# holds this many
_LEAF_TABLE_SIZE = 256
_LEAVES: dict[str, WqoExpr] = {}


def parse_expr(text: str) -> WqoExpr:
    """Parse the concrete syntax; see the grammar in the module docstring.

    One operator-precedence loop over the token list of the text and over
    explicit stacks, so nesting costs no Python frames: `out` holds the
    operands read so far, and `groups` the open groups, innermost last,
    each a ``(``, a constructor call waiting for its expression argument,
    or the whole text, with its own pending infix operators.  Token `i`
    starts at `pos`, the sum of the lengths before it, and the one being
    read at `p`, so every error has its exact position.  A leaf reader
    may run past its token (a literal nested too deep to be one token);
    the loop then goes on at the token that starts where the reader
    stopped.

    Equal subterms come out as one object.  `shared` maps the text of each
    leaf (an ordinal literal, or a call whose arguments are all ordinals
    and naturals), and each other node's class with the ids of its
    subexpressions, to the first node made for it, and a node is made
    only when it is not there.  Those subexpressions are shared already,
    so the sharing grows bottom-up, and every node in `out` stays in
    `shared`, so no id is reused.  `shared` lives for one call; a leaf
    that is one token, or a constructor in `_OVER_LEAF` over a leaf that is
    one, is also looked up in `_LEAVES`, which every call shares and which
    holds at most `_LEAF_TABLE_SIZE` nodes, and entered there once it is
    read.  So a node whose text was seen before is not read again, and
    the engine finds the facts it keeps on it.  Such a constructor is
    then entered in `shared` over the leaf of its text there, as one node
    with any other spelling of it.  A failed read enters nothing, so an
    error comes with its text and position every time.
    """
    out: list[WqoExpr] = []
    groups: list[tuple[str | None, list]] = [(None, [])]
    shared: dict = {}
    toks = _TOKEN.findall(text)
    toks.append("")  # the end of the text
    i = pos = 0  # the next token, and where it starts
    while True:
        # an operand: a leaf, or the opening of a group
        tok = toks[i]
        p = pos
        i += 1
        pos += len(tok)
        node = shared.get(tok)
        if node is None:
            name = _OPENS.get(tok)
            if name is not None or tok.endswith("("):
                groups.append((name or tok[:-1].rstrip(" \t"), []))
                continue
            if tok and tok[0] in " \t":
                continue
            node, end = _LEAVES.get(tok), pos
            if node is None:
                node, end = _read(text, p, tok)
                if end == pos:  # the leaf is the whole token
                    _keep(tok, node)
            cls = type(node)
            if cls in _OVER_LEAF:
                # over the leaf this call holds for the leaf's text, and
                # one node with any other spelling of it, such as Pf((3))
                x = shared.setdefault(_leaf_text(tok), node.arg)
                node = shared.setdefault((cls, id(x)), node if x is node.arg else cls(x))
            node = shared.setdefault(text[p:end], node)
            i, pos = _resume(toks, i, pos, end)
        out.append(node)
        # the operators after it; any other token ends the innermost group
        while True:
            tok = toks[i]
            p = pos
            i += 1
            pos += len(tok)
            infix = _INFIX.get(tok)
            if infix is None:
                if tok == _WORDS:
                    x = out[-1]
                    out[-1] = shared.get(key := (Words, id(x))) or shared.setdefault(key, Words(x))
                    continue
                if tok and tok[0] in " \t":
                    continue
            name, ops = groups[-1]
            prec = infix[0] if infix else 0
            while ops and ops[-1][0] >= prec:
                cls = ops.pop()[1]
                right = out.pop()
                left = out[-1]
                key = (cls, id(left), id(right))
                out[-1] = shared.get(key) or shared.setdefault(key, cls(left, right))
            if infix:
                ops.append(infix)
                break
            if name is None:
                if tok:
                    raise ParseError(text, p, "end of expression or an operator")
                return out[0]
            groups.pop()
            cls, kinds = _CALLS.get(name, (None, ""))  # a '(' group has none
            if len(kinds) > 1:
                # Mn(e, n): the ',', the natural and the ')' are read on
                args = [out.pop()]
                node, end = _call(text, p, name, args)
                out.append(shared.setdefault((cls, id(args[0]), *args[1:]), node))
                i, pos = _resume(toks, i, pos, end)
                continue
            if tok != ")":
                raise ParseError(text, p, "')'")
            if cls is not None:
                x = out[-1]
                out[-1] = shared.get(key := (cls, id(x))) or shared.setdefault(key, cls(x))


def _resume(toks: list[str], i: int, pos: int, end: int) -> tuple[int, int]:
    """Where to go on once a reader has stopped at `end`, token `i` of
    `toks` starting at `pos`: the index of the token that starts at `end`,
    and `end`.  Each reader stops where the pattern ends a token: after a
    ')', or after the blanks that follow a natural or a 'w'."""
    while pos < end:
        pos += len(toks[i])
        i += 1
    assert pos == end, "a leaf reader stopped inside a token"
    return i, pos


def _keep(tok: str, node: WqoExpr) -> None:
    """Enter `node`, read from the whole token `tok`, in `_LEAVES`."""
    if len(_LEAVES) >= _LEAF_TABLE_SIZE:
        _LEAVES.clear()
    _LEAVES[tok] = node


def _leaf_text(tok: str) -> str:
    """The whole leaf in `tok`, a constructor in `_OVER_LEAF` directly over
    one, as its own token would spell it."""
    return tok[: -len(_WORDS)] if tok.endswith(_WORDS) else tok[tok.index("(") + 1 : -1]


def _read(text: str, pos: int, tok: str) -> tuple[WqoExpr, int]:
    """Read the node that starts at `pos` with token `tok`: a leaf, as
    `_leaf` does, or, when `tok` is a constructor in `_OVER_LEAF` directly
    over a whole leaf, that constructor over the node `_LEAVES` keeps for
    the leaf's text, which is read and entered there if it is not there.
    Returns the node and the position after it."""
    words = tok.endswith(_WORDS) and tok != _WORDS
    cls = Words if words else tok.endswith(")") and _CALLS.get(tok.partition("(")[0], (None,))[0]
    if cls not in _OVER_LEAF:
        return _leaf(text, pos, tok)
    key = _leaf_text(tok)
    leaf = _LEAVES.get(key)
    if leaf is None:
        start = pos if words else pos + tok.index("(") + 1
        leaf, end = _leaf(text, start, key)
        assert end == start + len(key), "a leaf reader stopped inside a token"
        _keep(key, leaf)
    return cls(leaf), pos + len(tok)


def _leaf(text: str, pos: int, tok: str) -> tuple[WqoExpr, int]:
    """Read the leaf that starts at `pos` with token `tok`, a whole leaf
    or the start of a deeper one; returns it and the position after it."""
    if not tok:
        raise ParseError(text, pos, "an expression")
    if tok[0] in "0123456789":
        n, end = ord_mod._parse_nat(text, pos)
        return Ord(Ordinal.from_nat(n)), end
    if tok == "w":
        return Ord(OMEGA), pos + 1
    if tok.startswith("w^"):
        exponent, end = ord_mod._parse_atom(text, ord_mod._skip_ws(text, pos + 2))
        return Ord(omega_pow(exponent)), end
    name = tok.partition("(")[0].rstrip(" \t")
    if name not in _CALLS:
        raise ParseError(text, pos, _OPERAND)
    # a leaf call, or a call name with no '(' after it, which is refused
    return _call(text, pos + len(name), name, [])


def _call(text: str, pos: int, name: str, args: list) -> tuple[WqoExpr, int]:
    """Read on in constructor call `name` from `pos`, just after its name
    or its expression argument (`args`): the separators and the leaf
    arguments through the closing ')'.  Returns the node and the position
    after it.  (A call with an expression argument is opened by its own
    token, so this meets one with no argument read only to refuse it.)"""
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
        # a leaf reader also skips the blanks after its argument
        start = ord_mod._skip_ws(text, pos)
        value, pos = _LEAF[kinds[i]](text, start)
        args.append(value)
