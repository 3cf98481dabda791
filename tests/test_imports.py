"""The lazy package facade: what each entry point imports, and the names
the package still exports."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wqometer

SRC = Path(__file__).resolve().parents[1] / "src"

# the exports as the package listed them when it imported every module,
# each under the module that defines it
EXPORTS = {
    "errors": [
        "WqometerError", "ParseError", "HypothesisNotMet", "UnsupportedComputation",
        "TooLargeError",
    ],
    "ordinal": [
        "Ordinal", "ZERO", "ONE", "OMEGA", "parse_ordinal", "cmp", "add", "left_subtract",
        "mul", "omega_pow", "nat_sum", "nat_prod", "hat_nat_sum", "decompose_omega",
        "two_pow", "pm", "hstar", "odot",
    ],
    "expr": [
        "WqoExpr", "Ord", "Gamma", "DisjUnion", "LexSum", "CartProd", "LexProd", "Words",
        "Multisets", "MultisetsN", "Pf", "PfPlus", "Phi", "Sim", "SimExt", "parse_expr",
        "print_expr", "expr_size", "is_finite_expr",
    ],
    "rewrite": [
        "RewriteStep", "RewriteTrace", "step", "is_normal", "normalize_elementary",
        "eliminate_pf",
    ],
    "engine": ["InvariantResult", "InvariantReport", "invariants", "pf_bounds", "weak_mot"],
    "oracle": [
        "FinitePoset", "build", "quotient", "mot", "height", "width", "iso", "pf_poset",
        "random_quasi_order", "check_engine",
    ],
}


def _python(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter on this checkout's sources that writes no bytecode,
    so nothing it imports is cached for the next run."""
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1"),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _package_modules(*args) -> set[str]:
    """The package's modules that a fresh interpreter imports running `args`,
    read off the `import 'name' # loader` lines of `-v`.  (`-X importtime`
    misses the modules that `from . import name` and `import_module` load.)"""
    stderr = _python("-v", *args).stderr
    names = {m[1] for m in re.finditer(r"^import '([\w.]+)' #", stderr, re.MULTILINE)}
    return {name for name in names if name.partition(".")[0] == "wqometer"}


def test_package_import_loads_no_submodule():
    assert _package_modules("-c", "import wqometer") == {"wqometer"}


# (argv, submodules it must load, submodules it must not load)
COMMANDS = [
    (["normalize", "M(o(w^w)|o(w^w))"], {"rewrite"}, {"engine", "oracle"}),
    (["invariants", "(w+w)|(w+w)"], {"engine"}, {"oracle"}),
    (["bounds", "G(2)"], {"engine"}, {"oracle"}),
    (["weakmot", "w^w*w^w"], {"engine"}, {"oracle"}),
    (["oracle", "Pf(G(3))"], {"oracle"}, {"engine", "rewrite"}),
    (["iso", "G(2)*2", "2*G(2)"], {"oracle"}, {"engine", "rewrite"}),
]


@pytest.mark.parametrize(
    "argv, loaded, not_loaded", COMMANDS, ids=[argv[0] for argv, *_ in COMMANDS]
)
def test_each_command_loads_only_the_modules_it_runs(argv, loaded, not_loaded):
    modules = {m.partition(".")[2] for m in _package_modules("-m", "wqometer", *argv)}
    assert loaded <= modules and not modules & not_loaded, sorted(modules)


def test_submodule_resolves_after_a_bare_package_import():
    out = _python("-c", "import wqometer; print(wqometer.oracle.SIZE_LIMIT)").stdout
    assert out == "5000\n"


def test_all_is_unchanged_and_each_name_is_its_modules_object():
    assert wqometer.__all__ == ["__version__", *(n for names in EXPORTS.values() for n in names)]
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"wqometer.{module}")
        for name in names:
            assert getattr(wqometer, name) is getattr(home, name), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from wqometer import *", namespace)
    assert [name for name in wqometer.__all__ if name not in namespace] == []
    assert namespace["__version__"] == "0.1.0"


def test_dir_lists_every_export_before_it_is_loaded():
    code = "import wqometer; print(set(wqometer.__all__) <= set(dir(wqometer)))"
    assert _python("-c", code).stdout == "True\n"


def test_unknown_attribute_raises_the_standard_error():
    with pytest.raises(AttributeError) as info:
        wqometer.no_such_name
    assert str(info.value) == "module 'wqometer' has no attribute 'no_such_name'"
    assert not hasattr(wqometer, "no_such_name")
