"""Depth: every walk over a term runs on an explicit stack, in one `fold`
or in the rewriting pass, and so do the comparison, hashing, printing and
reading of ordinals, so terms nested 10,000 levels deep, and ordinals
whose exponents nest as deep, pass through every layer at the default
recursion limit, which is never raised here, and every subcommand ends
on them in a documented exit code.  The walks that still recurse are
pinned by name."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wqometer import (
    cmp,
    eliminate_pf,
    invariants,
    is_finite_expr,
    is_normal,
    parse_expr,
    parse_ordinal,
    pf_bounds,
    print_expr,
    step,
    weak_mot,
)
from wqometer.cli import _COMMANDS
from wqometer.errors import UnsupportedComputation
from wqometer.oracle import SIZE_LIMIT, est_size

from genlib import documented_exit

SRC = Path(__file__).resolve().parents[1] / "src"
N = 10_000


def _chain(op: str, leaf: str) -> str:
    return op.join([leaf] * N)


def _tower(call: str, leaf: str, n: int = N) -> str:
    return f"{call}(" * n + leaf + ")" * n


# name -> (text, whether the oracle can build it); the elementary shapes
# (leaves o(w^w)) also have a weakened order type
SHAPES = {
    "union": (_chain("|", "o(w^w)"), False),
    "lex-sum": (_chain("++", "G(2)"), True),
    "product": (_chain("*", "1"), True),
    "multiset-tower": (_tower("M", "o(w^w)"), False),
    "multiset-tower-over-antichain": (_tower("M", "G(2)"), False),
    "powerset-tower": (_tower("Pf", "G(2)"), True),
    "nonempty-powerset-tower": (_tower("Pf+", "G(2)"), True),
    "powerset-of-union": ("Pf(" + _chain("|", "0") + ")", True),
    "powerset-of-lex-sum": ("Pf(" + _chain("++", "0") + ")", True),
}


@pytest.mark.parametrize("name", SHAPES)
def test_deep_terms_pass_every_layer(name):
    assert sys.getrecursionlimit() < N
    text, finite = SHAPES[name]
    e = parse_expr(text)
    assert print_expr(e) == text
    assert is_finite_expr(e) == finite
    eliminate_pf(e)
    if finite:
        assert 1 <= est_size(e) <= SIZE_LIMIT + 1
    else:
        with pytest.raises(UnsupportedComputation, match="not-a-finite-order"):
            est_size(e)
    if e.fragment == "elementary":
        assert str(weak_mot(e)) == "w^w"  # the largest leaf
    # `pf_bounds` runs `invariants` on `e` first; a multiset tower's o is an
    # exponent tower 10,000 high, which its intervals compare and print
    bounds = pf_bounds(e)
    assert bounds.mot.reason is None
    if name == "union":
        # o(Pf(A)) lies in [1 + o(A), 2^o(A)], o(A) = w^w*10000
        assert str(bounds.mot) == "[w^w*10000, w^(w^w*10000)]"


def _omega_tower_height(a) -> int:
    """The n with a = w^(w^(...(w^0))), n omegas, read without recursion;
    -1 if `a` is not of that shape."""
    n = 0
    while a.terms:
        if len(a.terms) != 1 or a.terms[0][1] != 1:
            return -1
        a = a.terms[0][0]
        n += 1
    return n


def test_deep_ordinal_literals_parse_and_print():
    # an exponent tower 10,000 high: w^(w^(...(w*3+1)...)*3+1)*3+1
    text = "w^(" * N + "w*3+1" + ")*3+1" * N
    a = parse_ordinal(text)
    assert str(a) == text
    assert print_expr(parse_expr(f"o({text})")) == f"o({text})"
    # a copy of new objects, and a tower that differs only at the bottom
    assert a == parse_ordinal(text) and hash(a) == hash(parse_ordinal(text))
    lower = parse_ordinal(text.replace("w*3+1", "w*3", 1))
    assert cmp(lower, a) < 0 < cmp(a, lower) and lower != a
    # the bare w^atom leaf of the expression syntax, printed as o(...)
    bare = "w^(" * N + "w+1" + ")" * N
    assert print_expr(parse_expr(bare)) == f"o({bare})"


def test_invariants_of_a_deep_multiset_tower():
    # o(M(A)) = w^o(A) here, so o and w nest one exponent deeper per level;
    # the natural product that checks o <= h (x) w hashes no ordinal
    r = invariants(parse_expr(SHAPES["multiset-tower"][0]))
    assert r.notes == ("elementary-exact",)
    assert str(r.height) == "w^w"
    assert _omega_tower_height(r.mot.value) == N + 3
    assert _omega_tower_height(r.width.value) == N + 3


def test_deep_terms_are_stepped_without_recursion():
    # the union and the multiset tower are normal; the powerset tower
    # takes one step, at its innermost `Pf`
    for name in ("union", "multiset-tower"):
        e = parse_expr(SHAPES[name][0])
        assert is_normal(e)
        assert step(e) is None
    e = parse_expr(_tower("Pf", "o(w^w)"))
    assert not is_normal(e)
    rule, path, new = step(e)
    assert rule == "powerset-of-ordinal" and path == (0,) * (N - 1)
    assert print_expr(new) == "Pf(" * (N - 1) + "o(w^w)" + ")" * (N - 1)


def test_deep_chain_folds_to_its_values():
    r = invariants(parse_expr(SHAPES["lex-sum"][0]))
    assert (str(r.mot), str(r.height), str(r.width)) == ("20000", "10000", "2")


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@pytest.mark.parametrize("name", SHAPES)
def test_every_command_ends_a_deep_term_in_a_documented_exit_code(name, command):
    # in process, so at this process's limit, which `main` does not raise;
    # `main` catches only the package's own errors
    assert sys.getrecursionlimit() < N
    text = SHAPES[name][0]
    documented_exit([command, text] + [text] * (command == "iso"))


def _cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "wqometer", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )


def test_cli_evaluates_a_long_union():
    proc = _cli("invariants", "|".join(["G(2)"] * 2000))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1:] == ["o = 4000", "h = 1", "w = 4000"]


@pytest.mark.parametrize("command", ["invariants", "bounds"])
def test_cli_reports_a_deep_multiset_tower(command):
    # its o nests one exponent deeper per level, so the report compares
    # and prints an exponent tower more than 2,000 high
    proc = _cli(command, _tower("M", "o(w^w)", 2000))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].startswith("o = " + "[" * (command == "bounds") + "w^(w^(w^(")


def test_cli_refuses_a_deep_powerset_tower_as_too_large():
    proc = _cli("oracle", "Pf(" * 2000 + "G(2)" + ")" * 2000)
    assert proc.returncode == 5
    assert proc.stderr.startswith("too large: oracle build of Pf(Pf(")
    assert proc.stderr.endswith("needs more than 5000 elements, limit is 5000\n")


# the functions that still take a frame per level: the oracle's
# backtracking `iso` and residual ranks (both capped in size)
RECURSIVE = {"oracle.py": {"assign", "rank"}}


def _recursive_functions(source: str) -> set[str]:
    """The functions, nested ones included, that reach themselves through
    calls by name to functions of the same module."""
    calls: dict[str, set[str]] = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls.setdefault(child.name, set())
                visit(child, child.name)
                continue
            if owner and isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                calls[owner].add(child.func.id)
            visit(child, owner)

    visit(ast.parse(source), None)
    found = set()
    for f in calls:
        reached, todo = set(), [f]
        while todo:
            for g in calls[todo.pop()] & calls.keys() - reached:
                reached.add(g)
                todo.append(g)
        if f in reached:
            found.add(f)
    return found


def test_only_the_pinned_walks_recurse():
    found = {}
    for path in sorted((SRC / "wqometer").glob("*.py")):
        names = _recursive_functions(path.read_text())
        if names:
            found[path.name] = names
    assert found == RECURSIVE
