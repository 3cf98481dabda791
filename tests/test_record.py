"""Record semantics: expression nodes and result types are immutable
values with field-wise equality, hashing and repr, which pickle and
copy rebuild through their constructors."""

import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from wqometer import (
    CartProd,
    DisjUnion,
    Gamma,
    InvariantResult,
    LexProd,
    LexSum,
    Multisets,
    MultisetsN,
    OMEGA,
    ONE,
    Ord,
    Pf,
    PfPlus,
    Phi,
    RewriteStep,
    Sim,
    SimExt,
    Words,
    add,
    invariants,
    normalize_elementary,
    parse_expr,
    parse_ordinal,
)
from wqometer.oracle import CheckEntry, FinitePoset, check_engine

from genlib import one_of_each, random_any_expr

SRC = Path(__file__).resolve().parents[1] / "src"
o = parse_ordinal

# the public fields of each node class, in constructor order
_FIELDS = {
    Ord: ("value",),
    Gamma: ("size",),
    Phi: ("value",),
    Sim: ("value",),
    SimExt: ("value", "copies"),
    Words: ("arg",),
    Multisets: ("arg",),
    MultisetsN: ("arg", "size"),
    Pf: ("arg",),
    PfPlus: ("arg",),
    DisjUnion: ("left", "right"),
    LexSum: ("left", "right"),
    CartProd: ("left", "right"),
    LexProd: ("left", "right"),
}


def _nodes():
    rng = random.Random(20261018)
    return one_of_each() + [random_any_expr(rng, depth=rng.randint(0, 4)) for _ in range(500)]


def _assert_frozen(value, names):
    assert not hasattr(value, "__dict__")  # slotted all the way down
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.not_a_field = 1


def _assert_round_trips(value):
    """Pickle and both copies rebuild an equal record of the same class."""
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)


def test_nodes_are_immutable_records():
    for e in _nodes():
        fields = _FIELDS[type(e)]
        assert type(e)._fields == fields
        values = tuple(getattr(e, name) for name in fields)
        _assert_frozen(e, (*fields, "fragment"))
        assert hash(e) == hash(values)
        shown = ", ".join(f"{name}={v!r}" for name, v in zip(fields, values))
        assert repr(e) == f"{type(e).__name__}({shown})"
        assert e.with_children(e.children()) == e
        assert type(e)(*values) == e
        _assert_round_trips(e)


def test_nodes_of_different_classes_are_unequal():
    leaf = Ord(o("w^w"))
    binaries = [cls(leaf, leaf) for cls in (DisjUnion, LexSum, CartProd, LexProd)]
    unaries = [cls(leaf) for cls in (Words, Multisets, Pf, PfPlus)]
    ordinal_leaves = [Ord(OMEGA), Phi(OMEGA), Sim(OMEGA)]
    for group in (binaries, unaries, ordinal_leaves):
        for i, a in enumerate(group):
            for j, b in enumerate(group):
                assert (a == b) == (i == j)
                assert (a != b) == (i != j)
    assert Gamma(2) != 2 and Ord(OMEGA) != OMEGA


def test_node_side_conditions_keep_their_messages():
    for make, message in (
        (lambda: Gamma(0), "k >= 1 in G(k)"),
        (lambda: MultisetsN(Ord(OMEGA), -1), "n >= 0 in Mn(e, n)"),
        (lambda: Phi(o("0")), "a >= 1 in Phi(a)"),
        (lambda: SimExt(OMEGA, 0), "m >= 1 in SimExt(a, m)"),
    ):
        with pytest.raises(ValueError) as ei:
            make()
        assert str(ei.value) == message


def test_generic_constructor_checks_the_field_count():
    with pytest.raises(TypeError):
        Sim()
    with pytest.raises(TypeError):
        Sim(OMEGA, 2)
    with pytest.raises(TypeError):
        RewriteStep("rule", ())


def test_invariant_result_is_an_immutable_value():
    r = InvariantResult.exact(OMEGA)
    _assert_frozen(r, ("lower", "upper", "finite_multiple", "reason", "kind"))
    same = InvariantResult(o("w"), add(ONE, OMEGA))
    assert r == same and hash(r) == hash(same) and r is not same
    assert hash(r) == hash((OMEGA, OMEGA, False, None))
    assert r != InvariantResult.interval(OMEGA, OMEGA, finite_multiple=True)
    assert r != InvariantResult.lower_only(OMEGA)
    for x in (r, InvariantResult.interval(ONE, OMEGA, True), InvariantResult.unsupported("x")):
        _assert_round_trips(x)
        assert copy.deepcopy(x).kind == x.kind
    # `kind` is derived, so it is not a field
    assert repr(r) == (
        f"InvariantResult(lower={OMEGA!r}, upper={OMEGA!r}, "
        "finite_multiple=False, reason=None)"
    )


def test_invariant_report_is_an_immutable_value():
    rep = invariants(parse_expr("Pf(M(w)|w^<w)"))
    again = invariants(parse_expr("Pf(M(w)|w^<w)"))
    assert rep == again and hash(rep) == hash(again) and rep is not again
    _assert_frozen(rep, ("mot", "height", "width", "weak_mot", "notes"))
    assert repr(rep).startswith("InvariantReport(mot=InvariantResult(")
    assert rep != invariants(parse_expr("Pf(w)"))
    _assert_round_trips(rep)


def test_rewrite_step_is_an_immutable_value():
    e = parse_expr("Pf(o(w^w)|o(w^(w^2)))*M(o(w^w)|o(w^w))")
    steps = normalize_elementary(e)[1].steps
    assert steps and steps == normalize_elementary(e)[1].steps
    first = steps[0]
    _assert_frozen(first, ("rule", "path", "before", "after"))
    same = RewriteStep(first.rule, first.path, first.before, first.after)
    assert same == first and hash(same) == hash(first)
    _assert_round_trips(first)
    assert repr(same) == (
        f"RewriteStep(rule={first.rule!r}, path={first.path!r}, "
        f"before={first.before!r}, after={first.after!r})"
    )


def test_ordinal_is_an_immutable_value():
    a = o("w^2+w*3+1")
    _assert_frozen(a, ("terms", "_hash"))
    b = add(o("w^2+w*3"), ONE)
    assert a == b and hash(a) == hash(b) and a is not b
    assert not (a != b)
    assert a != o("w^2") and a != "w^2+w*3+1"
    assert repr(a) == "Ordinal[w^2+w*3+1]"
    _assert_round_trips(a)


def test_poset_and_check_entry_are_immutable_values():
    p = FinitePoset.from_pairs(3, [(0, 1), (1, 2)])
    assert p == FinitePoset(3, (7, 6, 4)) and hash(p) == hash(FinitePoset(3, (7, 6, 4)))
    assert p != FinitePoset(3, (7, 6, 6))
    _assert_frozen(p, ("n", "rows", "_quot", "_asc"))
    _assert_round_trips(p)
    entry = check_engine(parse_expr("G(2)*2")).entries[0]
    assert isinstance(entry, CheckEntry)
    _assert_frozen(entry, ("invariant", "expected", "result", "status"))
    _assert_round_trips(entry)


def test_records_compare_hash_print_and_pickle_as_their_field_tuples():
    # one-field classes included: their fields are a 1-tuple too
    step = normalize_elementary(parse_expr("Pf(o(w^w)|o(w^(w^2)))"))[1].steps[0]
    records = one_of_each() + [
        InvariantResult.exact(OMEGA),
        InvariantResult.interval(ONE, OMEGA, True),
        FinitePoset.from_pairs(3, [(0, 1), (1, 2)]),
        step,
    ]
    for r in records:
        values = tuple(getattr(r, name) for name in r._fields)
        assert type(r._values()) is tuple and r._values() == values
        assert r == type(r)(*values) and not (r != type(r)(*values))
        assert hash(r) == hash(values)
        shown = ", ".join(f"{name}={v!r}" for name, v in zip(r._fields, values))
        want = f"{type(r).__qualname__}({shown})"
        # a poset prints its size only
        assert repr(r) == ("FinitePoset(n=3)" if isinstance(r, FinitePoset) else want)
        assert r.__reduce__() == (type(r), values)
        assert pickle.loads(pickle.dumps(r)) == r


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # nor any module of the package that a command imports for itself
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import wqometer.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1"),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    package = {m for m in added if m.partition(".")[0] == "wqometer"}
    assert package == {"wqometer", "wqometer.cli", "wqometer.errors"}
    assert not added & {"dataclasses", "inspect", "json", "random"}, sorted(added)
