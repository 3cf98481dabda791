"""Command-line interface: output formats, exit codes, seed handling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wqometer import Ordinal, cli, oracle, parse_expr
from wqometer.oracle import CheckEntry, CheckResult
from wqometer.engine import InvariantResult

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_normalize_fixture_byte_exact(capsys):
    code, out, err = run(capsys, "normalize", "M(o(w^w)|o(w^w))")
    assert code == 0
    assert out == "M(o(w^w))*M(o(w^w))\n"
    assert err == ""


def test_module_entry_point_byte_exact():
    proc = subprocess.run(
        [sys.executable, "-m", "wqometer", "normalize", "M(o(w^w)|o(w^w))"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0
    assert proc.stdout == "M(o(w^w))*M(o(w^w))\n"


def test_invariants_plain_report(capsys):
    code, out, _ = run(capsys, "invariants", "(w+w)|(w+w)")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "expression: (o(w)++o(w))|(o(w)++o(w))"
    assert "o = w*4" in lines
    assert "h = w*2" in lines
    assert "w = 2" in lines


def test_invariants_plain_values_reparse(capsys):
    # plain output uses the expression syntax, so exact values feed back in
    code, out, _ = run(capsys, "invariants", "Phi(w^2)")
    assert code == 0
    for line in out.splitlines():
        if line.startswith(("o = ", "h = ", "w = ")):
            literal = line.split(" = ", 1)[1]
            parse_expr(literal)  # must not raise


def test_invariants_json_schema(capsys):
    code, out, _ = run(capsys, "invariants", "--json", "Pf(w^w)")
    assert code == 0
    data = json.loads(out)
    assert data["expression"] == "Pf(o(w^w))"
    for key in ("mot", "height", "width"):
        assert data[key]["kind"] in {"exact", "interval", "lower", "unsupported"}
    # Pf of a chain adds only a new bottom: o(Pf(w^w)) = 1 + w^w = w^w
    assert data["mot"] == {"kind": "exact", "value": "w^w"}
    assert isinstance(data["notes"], list)


def test_normalize_trace(capsys):
    code, out, _ = run(capsys, "normalize", "--trace", "M(o(w^w)|o(w^w))")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "M(o(w^w))*M(o(w^w))"
    assert len(lines) > 1
    assert all(l.startswith("step ") for l in lines[1:])
    assert " at " in lines[1] and " => " in lines[1]


def test_normalize_json_contains_trace(capsys):
    code, out, _ = run(capsys, "normalize", "--json", "Pf(o(w^w)|o(w^w))")
    assert code == 0
    data = json.loads(out)
    assert data["input"] == "Pf(o(w^w)|o(w^w))"
    # Pf splits over the union, then collapses on each chain
    assert data["normal_form"] == "o(w^w)*o(w^w)"
    assert isinstance(data["trace"], list)
    assert all("rule" in step for step in data["trace"])


# Steps at non-root paths, a rule firing at the root between them, and
# reducts that are rewritten again: the trace strings must come out
# exactly as when each step printed the whole term as it went.
_GOLDEN_TERM = "(o(w^w)|o(w^w))*(o(w^w)|M(o(w^w)|o(w^w)))"
_GOLDEN_TERMS = [
    "(o(w^w)|o(w^w))*(o(w^w)|M(o(w^w)|o(w^w)))",
    "(o(w^w)|o(w^w))*(o(w^w)|M(o(w^w))*M(o(w^w)))",
    "o(w^w)*(o(w^w)|M(o(w^w))*M(o(w^w)))|o(w^w)*(o(w^w)|M(o(w^w))*M(o(w^w)))",
    "o(w^w)*o(w^w)|o(w^w)*(M(o(w^w))*M(o(w^w)))|o(w^w)*(o(w^w)|M(o(w^w))*M(o(w^w)))",
    "o(w^w)*o(w^w)|o(w^w)*(M(o(w^w))*M(o(w^w)))|(o(w^w)*o(w^w)|o(w^w)*(M(o(w^w))*M(o(w^w))))",
]
_GOLDEN_STEPS = [
    ("multisets-over-union", [1, 1]),
    ("product-over-union-left", []),
    ("product-over-union-right", [0]),
    ("product-over-union-right", [1]),
]


def test_normalize_trace_golden(capsys):
    code, out, err = run(capsys, "normalize", "--trace", _GOLDEN_TERM)
    assert code == 0 and err == ""
    t = _GOLDEN_TERMS
    assert out == (
        f"{t[4]}\n"
        f"step 1: multisets-over-union at 1.1: {t[0]} => {t[1]}\n"
        f"step 2: product-over-union-left at root: {t[1]} => {t[2]}\n"
        f"step 3: product-over-union-right at 0: {t[2]} => {t[3]}\n"
        f"step 4: product-over-union-right at 1: {t[3]} => {t[4]}\n"
    )


def test_normalize_json_golden(capsys):
    code, out, err = run(capsys, "normalize", "--json", _GOLDEN_TERM)
    assert code == 0 and err == ""
    t = _GOLDEN_TERMS
    expected = {
        "input": t[0],
        "normal_form": t[4],
        "trace": [
            {"rule": rule, "path": path, "before": t[i], "after": t[i + 1]}
            for i, (rule, path) in enumerate(_GOLDEN_STEPS)
        ],
    }
    assert out == json.dumps(expected, indent=2) + "\n"


def test_bounds_heading_wraps_pf(capsys):
    code, out, _ = run(capsys, "bounds", "G(4)")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "expression: Pf(G(4))"
    assert "o = [5, 16]" in lines


def test_weakmot_elementary(capsys):
    # the weakened m.o.t. of a product is the max of the factors
    code, out, _ = run(capsys, "weakmot", "w^w*w^w")
    assert code == 0
    assert out.strip() == "w^w"
    # and the finite-powerset row exponentiates it
    code, out, _ = run(capsys, "weakmot", "Pf(w^w*w^w)")
    assert code == 0
    assert out.strip() == "w^(w^w)"


def test_oracle_expression(capsys):
    code, out, _ = run(capsys, "oracle", "Pf(G(3))")
    assert code == 0
    assert "mot = 8" in out
    assert "height = 4" in out
    assert "width = 3" in out


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ("oracle", "--json", "Pf(G(3))"),
            '{\n  "expression": "Pf(G(3))",\n  "n": 8,\n  "mot": 8,\n  "height": 4,\n'
            '  "width": 3\n}\n',
        ),
        (
            # a sampled order carries the poset it measured
            ("oracle", "--json", "--random", "3", "--seed", "1"),
            '{\n  "expression": "random(n=3, seed=1)",\n  "n": 3,\n  "mot": 3,\n'
            '  "height": 1,\n  "width": 3,\n  "poset": {\n    "n": 3,\n    "leq": []\n'
            '  }\n}\n',
        ),
        (
            ("weakmot", "--json", "w^w*w^w"),
            '{\n  "expression": "o(w^w)*o(w^w)",\n  "weak_mot": "w^w"\n}\n',
        ),
    ],
    ids=["oracle-expression", "oracle-random", "weakmot"],
)
def test_json_golden(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == expected


def test_oracle_poset_file(tmp_path, capsys):
    f = tmp_path / "poset.json"
    f.write_text('{"n": 3, "leq": [[0, 1], [1, 2]]}')
    code, out, _ = run(capsys, "oracle", "--poset", str(f))
    assert code == 0
    assert "mot = 3" in out and "height = 3" in out and "width = 1" in out

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "oracle", "--poset", str(bad))
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"n": true, "leq": []}', '"n" must be a non-negative integer, not true'),
        ('{"n": 2.0, "leq": []}', '"n" must be a non-negative integer, not 2.0'),
        ('{"n": "2", "leq": []}', '"n" must be a non-negative integer, not "2"'),
        ('{"n": -1, "leq": []}', '"n" must be a non-negative integer, not -1'),
        ('{"n": 2, "leq": [[0, true]]}', '"leq" must be a list of [i, j] integer pairs'),
        ('{"n": 2, "leq": [[0, 1, 1]]}', '"leq" must be a list of [i, j] integer pairs'),
        ('{"n": 2, "leq": {"0": 1}}', '"leq" must be a list of [i, j] integer pairs'),
        ('{"n": 2, "leq": [0, 1]}', '"leq" must be a list of [i, j] integer pairs'),
        ('{"n": 2}', 'expected an object with keys "n" and "leq"'),
        ("[[0, 1]]", 'expected an object with keys "n" and "leq"'),
        ('{"n": 2, "leq": [[0, 2]]}', "pair (0, 2) out of range"),
    ],
    ids=[
        "n-bool", "n-float", "n-string", "n-negative", "pair-bool",
        "pair-triple", "leq-object", "leq-flat", "no-leq", "not-an-object",
        "pair-out-of-range",
    ],
)
def test_oracle_poset_file_schema(tmp_path, capsys, text, reason):
    f = tmp_path / "poset.json"
    f.write_text(text)
    code, out, err = run(capsys, "oracle", "--poset", str(f))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "parse error" in err and reason in err


@pytest.mark.parametrize(
    "text", ["[" * 100_000, '{"n": 1, "leq": ' + "[" * 100_000], ids=["array", "leq"]
)
def test_oracle_poset_file_nested_too_deeply(tmp_path, text):
    f = tmp_path / "deep.json"
    f.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "wqometer", "oracle", "--poset", str(f)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("parse error")
    assert "a poset JSON file, found 'JSON nested too deeply'" in proc.stderr


def test_oracle_random_is_reproducible(capsys):
    _, out1, _ = run(capsys, "oracle", "--random", "6", "--seed", "5")
    _, out2, _ = run(capsys, "oracle", "--random", "6", "--seed", "5")
    assert out1 == out2
    assert "random(n=6, seed=5)" in out1
    assert "poset = " in out1
    _, out3, _ = run(capsys, "oracle", "--random", "6", "--seed", "6")
    assert out3 != out1


def test_oracle_random_env_seed_override(monkeypatch, capsys):
    monkeypatch.setenv("WQO_METER_SEED", "9")
    code, out, _ = run(capsys, "oracle", "--random", "6", "--seed", "5")
    assert code == 0
    assert "random(n=6, seed=9)" in out


def test_bad_env_seed_is_a_parse_error(monkeypatch, capsys):
    monkeypatch.setenv("WQO_METER_SEED", "not-a-number")
    code, _, err = run(capsys, "oracle", "--random", "4")
    assert code == 2
    assert "parse error" in err


def test_oracle_without_input_errors(capsys):
    code, out, err = run(capsys, "oracle")
    assert code == 2
    assert "--poset" in err
    assert out == "" and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("G(3)", "--random", "2"),
        ("G(3)", "--poset", "p.json"),
        ("--random", "2", "--poset", "p.json"),
        ("G(3)", "--random", "2", "--poset", "p.json"),
    ],
    ids=["expr-random", "expr-poset", "random-poset", "all-three"],
)
def test_oracle_needs_exactly_one_source(tmp_path, monkeypatch, capsys, argv):
    # a second source used to be dropped without a word
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.json").write_text('{"n": 3, "leq": [[0, 1], [1, 2]]}')
    code, out, err = run(capsys, "oracle", *argv)
    assert code == 2
    assert out == ""
    assert err == "oracle: need exactly one of an expression, --poset FILE or --random N\n"


def test_check_ok_exit_zero(capsys):
    code, out, _ = run(capsys, "check", "Pf(G(4))")
    assert code == 0
    assert out.splitlines()[-1] == "result: ok"


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "--json", "o(2)|o(3)")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert len(data["entries"]) == 3


def test_check_mismatch_exit_one(monkeypatch, capsys):
    # the engine is deliberately hard to catch out, so fake a mismatch to
    # pin the exit-code contract of the check command itself
    bogus = CheckResult("G(2)")
    bogus.entries.append(
        CheckEntry("mot", 2, InvariantResult.exact(Ordinal.from_nat(3)), "mismatch")
    )
    monkeypatch.setattr(oracle, "check_engine", lambda e, cap=None: bogus)
    code, out, _ = run(capsys, "check", "G(2)")
    assert code == 1
    assert out.splitlines()[-1] == "result: mismatch"


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "invariants", "Pf(")
    assert code == 2
    assert "parse error" in err
    assert "position" in err


def test_exit_code_hypothesis_not_met(capsys):
    code, _, err = run(capsys, "invariants", "Sim(w^2)")
    assert code == 3
    assert "hypothesis not met" in err


def test_exit_code_unsupported(capsys):
    code, _, err = run(capsys, "weakmot", "G(2)")
    assert code == 4
    assert "unsupported" in err


def test_exit_code_too_large(capsys):
    code, _, err = run(capsys, "oracle", "Pf(Pf(G(4)))")
    assert code == 5
    assert "too large" in err


def test_product_of_unions_is_evaluated_but_not_normalised(capsys):
    # the normal form of Pf(M(P_15)), P_15 a product of 15 unions, has over
    # a million nodes: `invariants` does not build it, `normalize` refuses it
    text = "Pf(M(" + "*".join(["(o(w^w)|o(w^(w^2)))"] * 15) + "))"
    code, out, _ = run(capsys, "invariants", text)
    assert code == 0 and "weak-o = w^(w^(w^2))\n" in out
    code, out, _ = run(capsys, "weakmot", text)
    assert code == 0 and out == "w^(w^(w^2))\n"
    code, out, err = run(capsys, "normalize", "--trace", text)
    assert code == 5 and out == ""
    assert err == "too large: normal form needs 1015808 nodes, limit is 2000\n"


def test_oracle_words_need_cap(capsys):
    code, _, err = run(capsys, "oracle", "G(2)^<w")
    assert code == 4
    code, out, _ = run(capsys, "oracle", "G(2)^<w", "--word-len-cap", "2")
    assert code == 0
    assert "n = 7" in out  # 1 + 2 + 4 words of length <= 2


def test_iso_command(capsys):
    code, out, _ = run(capsys, "iso", "Pf(G(1)|o(2))", "Pf(G(1))*Pf(o(2))")
    assert code == 0
    assert out.strip() == "isomorphic"
    code, out, _ = run(capsys, "iso", "--json", "G(2)", "o(2)")
    assert code == 0
    assert json.loads(out) == {"isomorphic": False}


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "G(2)^<w"),
        ("check", "G(2)^<w"),
        ("iso", "G(2)^<w", "G(2)^<w"),
    ],
)
def test_negative_word_len_cap_is_a_parse_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--word-len-cap", "-1")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "parse error" in err and "--word-len-cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "Pf(Pf(G(14)))"),
        ("check", "Pf(Pf(G(14)))"),
        ("iso", "Pf(Pf(G(14)))", "G(2)"),
        ("oracle", "G(2)^<w", "--word-len-cap", "300000"),
    ],
)
def test_oracle_builds_past_the_limit_are_refused_in_one_line(capsys, argv):
    # the exact estimates (2^16384 elements, or a sum over 300,001 word
    # lengths) are neither computed nor printed
    code, out, err = run(capsys, *argv)
    assert code == 5
    assert out == ""
    assert err == f"too large: oracle build of {argv[1]} needs more than 5000 elements, limit is 5000\n"


def test_words_over_no_letters_ignore_the_cap(capsys):
    code, out, _ = run(capsys, "oracle", "0^<w", "--word-len-cap", "1000000000")
    assert code == 0
    assert "n = 1\n" in out


@pytest.mark.parametrize(
    "argv, lines",
    [
        (("oracle", "Mn(o(w^w),0)"), ["n = 1"]),
        (
            ("check", "Mn(w,0)"),
            [f"{name}: engine 1, oracle 1 [match]" for name in ("mot", "height", "width")]
            + ["result: ok"],
        ),
        (("iso", "Mn(w,0)", "1"), ["isomorphic"]),
    ],
    ids=["oracle", "check", "iso"],
)
def test_fixed_size_zero_multisets_over_an_infinite_order_are_one_element(
    capsys, argv, lines
):
    # Mn(A, 0) is the one empty multiset, so A is never built, and the
    # oracle's order is exact, so `check` compares every component
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert err == ""
    assert set(lines) <= set(out.splitlines())


@pytest.mark.parametrize(
    "argv",
    [
        ("invariants", "w", "--seed", "3"),
        ("normalize", "o(w^w)", "--word-len-cap", "2"),
        ("check", "G(2)", "--seed", "3"),
        ("iso", "G(2)", "G(2)", "--seed", "3"),
        ("bounds", "w", "--word-len-cap", "2"),
    ],
)
def test_flags_belong_to_the_commands_that_read_them(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "unrecognized arguments" in err


def test_seed_is_read_only_when_sampling(monkeypatch, capsys):
    monkeypatch.setenv("WQO_METER_SEED", "x")
    code, out, err = run(capsys, "invariants", "w")
    assert code == 0 and err == ""
    code, out, err = run(capsys, "oracle", "G(2)")
    assert code == 0 and err == ""


def test_oracle_random_negative_is_a_parse_error(capsys):
    code, out, err = run(capsys, "oracle", "--random", "-1")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "parse error" in err


def test_oracle_random_checks_size_limit_before_sampling(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("sampled despite the size limit")

    monkeypatch.setattr(oracle, "random_quasi_order", refuse)
    n = oracle.SIZE_LIMIT + 1
    code, out, err = run(capsys, "oracle", "--random", str(n))
    assert code == 5
    assert out == ""
    assert "too large" in err and str(n) in err


def test_oracle_poset_checks_size_limit_before_closure(tmp_path, monkeypatch, capsys):
    def refuse(cls, *args):
        raise AssertionError("built the poset despite the size limit")

    monkeypatch.setattr(oracle.FinitePoset, "from_pairs", classmethod(refuse))
    n = oracle.SIZE_LIMIT + 1
    f = tmp_path / "big.json"
    f.write_text(json.dumps({"n": n, "leq": []}))
    code, out, err = run(capsys, "oracle", "--poset", str(f))
    assert code == 5
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "too large" in err and str(n) in err


@pytest.mark.parametrize(
    "argv, code, kind",
    [
        (("invariants", "Pf("), 2, "parse error"),
        (("invariants", "Sim(w^2)"), 3, "hypothesis not met"),
        (("weakmot", "G(2)"), 4, "unsupported"),
        (("oracle", "Pf(Pf(G(4)))"), 5, "too large"),
    ],
)
def test_error_kind_printed_once(capsys, argv, code, kind):
    got, _, err = run(capsys, *argv)
    assert got == code
    lines = err.splitlines()
    assert lines
    for line in lines:
        assert line.startswith(kind)
        assert line.count(kind) == 1


@pytest.mark.parametrize(
    "argv, code",
    [
        (("invariants", "Pf(G(200000))"), 0),
        (("invariants", "Pf(Phi(200000))"), 4),
        (("invariants", "--json", "Pf(Pf(G(20)))"), 0),
        (("invariants", "Pf(G(14000))*Pf(G(14000))"), 0),
    ],
)
def test_unprintable_values_are_refused(argv, code):
    # 2^200000 and C(200000, 100000) have more digits than Python will
    # print; they are refused with a reason instead of ending in a traceback,
    # and so is the upper bound 2^14000 * 2^14000 of a product
    proc = subprocess.run(
        [sys.executable, "-m", "wqometer", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code == 0:
        # a refused value shows its reason, a refused upper bound leaves
        # only the lower bound
        assert "binomial-too-large" in proc.stdout or "\no = >= " in proc.stdout
    else:
        assert proc.stderr.startswith("unsupported computation: two-pow-finite-too-large")


def test_without_a_digit_limit_coefficients_stop_at_two_to_the_million():
    # an interpreter without a limit on printing integers keeps the
    # 2^1000001 cap, far past 4,300 digits
    script = (
        "from wqometer.ordinal import Ordinal, _printable\n"
        "cap = 1 << 1000001\n"
        "print(_printable(Ordinal.from_nat(cap - 1)), _printable(Ordinal.from_nat(cap)))"
    )
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=0", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.stdout == "True False\n", proc.stderr


@pytest.mark.parametrize(
    "text, code",
    [
        ("|".join(["o(w+1)"] * 800), 0),
        ("*".join(["2"] * 800), 0),
        ("|".join(["o(w+1)"] * 1200), 0),
        ("(" * 200 + "w" + ")" * 200, 0),
        ("Pf(" * 3000 + "w" + ")" * 3000, 0),
        ("o(" + "w^(" * 400 + "w" + ")" * 401, 0),
    ],
    ids=["union-800", "product-800", "union-1200", "parens-200", "powerset-3000",
         "exponent-tower-400"],
)
def test_deep_expressions_end_in_a_documented_exit_code(text, code):
    # neither the parser, nor the ordinal literal reader, nor the folds
    # over a term take frames per level; an expression that reached the
    # recursion limit would be refused in one line
    proc = subprocess.run(
        [sys.executable, "-m", "wqometer", "invariants", text],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code == 4:
        assert proc.stderr == "unsupported computation: expression-too-deep\n"


def test_normalize_takes_no_frame_per_level():
    # a 1,200-level multiset tower over a union takes one step at its
    # innermost `M`, and its normal form of 1,204 nodes is under the limit
    text = "M(" * 1200 + "o(w^w)|o(w^(w^2))" + ")" * 1200
    proc = subprocess.run(
        [sys.executable, "-m", "wqometer", "normalize", text],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "M(" * 1199 + "M(o(w^w))*M(o(w^(w^2)))" + ")" * 1199 + "\n"


_N = "9" * 4300  # a literal at Python's 4,300-digit print limit


@pytest.mark.parametrize(
    "text",
    [f"Pf(o({_N}))", f"o({_N})++o({_N})", f"o({_N}).o(2)", f"Pf(G({_N}))"],
    ids=["pf-ordinal", "ordinal-sum", "ordinal-product", "pf-antichain"],
)
def test_literals_at_the_print_limit_are_refused_with_a_reason(capsys, text):
    # 1 + N, N + N and N * 2 do not print; the fusion or the bound that
    # would make them is refused instead of ending in a traceback (here,
    # an exception out of `cli.main`)
    code, out, err = run(capsys, "invariants", text)
    assert code in (0, 4)
    if code == 0:
        assert "value-too-large" in out
    else:
        assert err.startswith("unsupported computation: ")


def test_elementary_values_past_the_print_limit_are_refused_with_a_reason(capsys):
    # o and w of this product of 14,300 unions have the coefficient 2^14300,
    # which does not print; h and the weakened o are w^w.  The refusal
    # replaces a traceback (here, an exception out of `cli.main`)
    text = "*".join(["(o(w^w)|o(w^w))"] * 14300)
    code, out, err = run(capsys, "invariants", text)
    assert code == 0 and err == ""
    assert out.splitlines()[1:] == [
        "o = unsupported (value-too-large)",
        "h = w^w",
        "w = unsupported (value-too-large)",
        "weak-o = w^w",
        "note: elementary-exact",
    ]
    code, out, err = run(capsys, "weakmot", text)
    assert (code, out, err) == (0, "w^w\n", "")
    # under M that coefficient is in the exponent of o and of w
    code, out, err = run(capsys, "invariants", f"M({text})")
    assert code == 0 and err == ""
    assert out.splitlines()[1:4] == [
        "o = unsupported (value-too-large)",
        "h = w^w",
        "w = unsupported (value-too-large)",
    ]


_N1 = _N + "9"  # one digit past the limit


@pytest.mark.parametrize(
    "text",
    [f"o({_N1})", f"G({_N1})", f"o(w^{_N1})", _N1, f"o(w*{_N}+w*{_N})",
     f"Phi(w*{_N}+w*{_N})", "o(w*0)", "w^(w*0)", "Phi(w*0)", "Sim(w*0)"],
    ids=["ordinal", "antichain", "exponent", "bare", "ordinal-sum", "phi-sum",
         "zero-coeff", "zero-coeff-exponent", "zero-coeff-phi", "zero-coeff-sim"],
)
def test_oversized_literals_and_zero_coefficients_are_parse_errors(capsys, text):
    # a literal that does not convert, a sum of literals that does not
    # print, or w*0 is refused by the parser instead of ending in a
    # traceback (here, an exception out of `cli.main`)
    code, out, err = run(capsys, "invariants", text)
    assert code == 2
    assert out == ""
    assert err.startswith("parse error")


@pytest.mark.parametrize("text", ["²", "o(²)", "w^²", "G(٣)"])
def test_only_ascii_digits_are_numbers(capsys, text):
    # superscript two and Arabic-Indic three are digits to str.isdigit,
    # but not in the grammar
    code, out, err = run(capsys, "invariants", text)
    assert code == 2
    assert out == ""
    assert err.startswith("parse error")
