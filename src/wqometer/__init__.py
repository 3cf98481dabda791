"""wqometer: a symbolic calculator for the ordinal invariants of
well-quasi-orders (maximal order type, height, width), with a rewrite
system for elementary expressions, sound bounds for finite powersets,
and a brute-force oracle on finite posets for cross-validation.

Importing the package loads none of its modules: each exported name, and
each submodule, is imported on first access (PEP 562), so a process pays
only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# each module's exports, in the order of `__all__`
_EXPORTS = {
    "errors": "WqometerError ParseError HypothesisNotMet UnsupportedComputation"
    " TooLargeError",
    "ordinal": "Ordinal ZERO ONE OMEGA parse_ordinal cmp add left_subtract mul"
    " omega_pow nat_sum nat_prod hat_nat_sum decompose_omega two_pow pm hstar odot",
    "expr": "WqoExpr Ord Gamma DisjUnion LexSum CartProd LexProd Words Multisets"
    " MultisetsN Pf PfPlus Phi Sim SimExt parse_expr print_expr expr_size"
    " is_finite_expr",
    "rewrite": "RewriteStep RewriteTrace step is_normal normalize_elementary"
    " eliminate_pf",
    "engine": "InvariantResult InvariantReport invariants pf_bounds weak_mot",
    "oracle": "FinitePoset build quotient mot height width iso pf_poset"
    " random_quasi_order check_engine",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = frozenset(("record", *_EXPORTS))

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        # importing a submodule binds it in the package as well
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
