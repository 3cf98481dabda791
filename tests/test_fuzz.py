"""Fuzzing the command line in process: every generated command line, over
all seven subcommands, ends with `cli.main` returning a documented exit
code (0-5) and printing no traceback, and `check` never reports a
mismatch.  `main` catches only the package's own errors, so a
`RecursionError` or any other exception from a generated input fails
here.  The arguments come from the expression grammar, read off the
parser's own syntax table, with leaves at the edges (naturals at Python's
4,300-digit print limit and one digit past it, exponent towers, families
and multisets of size 0), also nested past the default recursion limit;
from token soup over the same table; and from arbitrary text.  `oracle`
gets every combination of its three sources.  The suite's hypothesis
profile draws the same examples on every run."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from wqometer.cli import _COMMANDS
from wqometer.expr import _CALLS, _INFIX, _WORDS
from wqometer.oracle import SIZE_LIMIT

from genlib import documented_exit

_BIG = "9" * 4300  # the longest natural that prints; one digit more is refused
_TOWER = "w^(" * 40 + "w+1" + ")" * 40
# the table's calls over these give G(0), Sim(3), SimExt(w,0) and Mn(e,0)
_NATS = ("0", "1", "2", _BIG)
_ORDINALS = ("1", "3", "w", "w*2+1", "w^w", _TOWER, _BIG)
_LEAVES = ("0", "1", "2", "w", "w^w", _TOWER, _BIG, _BIG + "9", "Phi(0)")


def _call(name: str, args: dict) -> st.SearchStrategy[str]:
    kinds = _CALLS[name][1]
    return st.tuples(*(args[k] for k in kinds)).map(lambda xs: f"{name}({','.join(xs)})")


_SCALARS = {"a": st.sampled_from(_ORDINALS), "n": st.sampled_from(_NATS)}


def _extend(inner: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    args = {"e": inner, **_SCALARS}
    return st.one_of(
        st.tuples(inner, st.sampled_from(list(_INFIX)), inner).map("".join),
        inner.map(lambda t: t + _WORDS),
        inner.map(lambda t: f"({t})"),
        *(_call(name, args) for name, (_cls, kinds) in _CALLS.items() if "e" in kinds),
    )


# at most four leaves, so that every finite term is small enough for the
# oracle to build and measure at once
TERMS = st.recursive(
    st.one_of(
        st.sampled_from(_LEAVES),
        *(_call(name, _SCALARS) for name, (_cls, kinds) in _CALLS.items() if "e" not in kinds),
    ),
    _extend,
    max_leaves=4,
)
_DEPTH = 1200  # past the default recursion limit
_OPENERS = [name for name, (_cls, kinds) in _CALLS.items() if "e" in kinds]


def _tower(name: str, text: str) -> str:
    # the expression is the constructor's first argument; each further
    # one is the natural 1
    closer = ",1" * (len(_CALLS[name][1]) - 1) + ")"
    return f"{name}(" * _DEPTH + text + closer * _DEPTH


# a tower of one constructor over a generated term, or a chain of copies
DEEP = st.one_of(
    st.builds(_tower, st.sampled_from(_OPENERS), TERMS),
    st.builds(lambda t, op: op.join([f"({t})"] * _DEPTH), TERMS, st.sampled_from(list(_INFIX))),
    TERMS.map(lambda t: f"({t})" + _WORDS * _DEPTH),
)
SOUP = st.lists(
    st.sampled_from(
        [*_INFIX, _WORDS, *(f"{name}(" for name in _CALLS), "w", "w^", "0", "2", _BIG]
        + [" ", "\t", ")", ",", "٣", "²", "５"]
    ),
    max_size=20,
).map("".join)
_CAPS = (None, -1, 0, 1, 3)


@st.composite
def _argv(draw, texts: st.SearchStrategy[str]) -> list[str]:
    """Any of the seven subcommands with its arguments drawn from
    `texts` (`iso` takes two) and its flags."""
    cmd = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [cmd] + [draw(texts) for _ in range(2 if cmd == "iso" else 1)]
    if draw(st.booleans()):
        argv.append("--json")
    if cmd == "normalize" and draw(st.booleans()):
        argv.append("--trace")
    cap = draw(st.sampled_from(_CAPS)) if cmd in ("oracle", "check", "iso") else None
    if cap is not None:
        argv += ["--word-len-cap", str(cap)]
    return argv


def _assert_documented(argv: list[str]) -> None:
    code = documented_exit(argv)
    assert argv[0] != "check" or code != 1


@given(_argv(TERMS))
# parts too large to build, under a whole of at most one element
@example(["check", f"Mn(0,{_BIG})"])
@example(["oracle", f"{_BIG}^<w", "--word-len-cap", "0"])
def test_grammar_terms_end_in_a_documented_exit_code(argv):
    _assert_documented(argv)


@settings(max_examples=10)
@given(_argv(DEEP))
def test_deep_terms_end_in_a_documented_exit_code(argv):
    _assert_documented(argv)


@given(_argv(SOUP))
def test_token_soup_ends_in_a_documented_exit_code(argv):
    _assert_documented(argv)


@given(_argv(st.text()))
def test_any_text_ends_in_a_documented_exit_code(argv):
    _assert_documented(argv)


@pytest.fixture(scope="module")
def posets(tmp_path_factory) -> list[str]:
    """Paths to one well-formed poset file and to malformed ones: not
    JSON, nested too deeply, not UTF-8, of the wrong shape, with booleans
    for numbers, with a pair out of range, above the size limit, a
    directory and a missing file."""
    root = tmp_path_factory.mktemp("posets")
    files = {
        "good.json": json.dumps({"n": 3, "leq": [[0, 1], [1, 2]]}).encode(),
        "truncated.json": b'{"n": 3, "leq": [[0, 1]',
        "deep.json": b"[" * 100_000,
        "latin1.json": '{"n": 1, "leq": [], "é": 0}'.encode("latin-1"),
        "list.json": b"[1, 2]",
        "bools.json": b'{"n": true, "leq": [[false, true]]}',
        "range.json": b'{"n": 2, "leq": [[0, 5]]}',
        "large.json": json.dumps({"n": SIZE_LIMIT + 1, "leq": []}).encode(),
    }
    for name, data in files.items():
        (root / name).write_bytes(data)
    return [str(root / name) for name in files] + [str(root), str(root / "missing.json")]


@st.composite
def _oracle_argv(draw, posets: list[str]) -> list[str]:
    """`oracle` with any combination of its three sources, each with
    edge values."""
    argv = ["oracle"]
    if draw(st.booleans()):
        argv.append(draw(TERMS))
    if draw(st.booleans()):
        argv += ["--poset", draw(st.sampled_from(posets))]
    if draw(st.booleans()):
        argv += ["--random", str(draw(st.sampled_from((-1, 0, 4, SIZE_LIMIT + 1))))]
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(-(2**70), 2**70)))]
    if draw(st.booleans()):
        argv.append("--json")
    cap = draw(st.sampled_from(_CAPS))
    if cap is not None:
        argv += ["--word-len-cap", str(cap)]
    return argv


@given(st.data())
def test_every_oracle_source_ends_in_a_documented_exit_code(posets, data):
    _assert_documented(data.draw(_oracle_argv(posets)))
