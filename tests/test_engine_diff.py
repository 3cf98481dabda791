"""`tools/engine_diff.py`: two copies of one source agree, and a copy
with a mutated rule, or a lower normal-form limit, does not."""

import importlib.util
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("engine_diff", ROOT / "tools" / "engine_diff.py")
engine_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(engine_diff)


def test_engine_diff_finds_a_mutated_chain_rule(tmp_path):
    packages = []
    for name in ("wqometer_diff_a", "wqometer_diff_b"):
        shutil.copytree(ROOT / "src" / "wqometer", tmp_path / name)
        packages.append(engine_diff.load(tmp_path / name, name))
    a, b = packages
    try:
        texts = engine_diff.terms(corpus_ops=30, random_terms=300, elementary=60)
        assert len(texts) == 4 * 30 + 300 + 60 + 10 + 80
        elementary = [t for t in texts if a.parse_expr(t).fragment == "elementary"]
        # the engine-elementary corpora, the elementary terms, and a few
        # random and over-leaf ones
        assert 2 * 30 + 60 < len(elementary) < 2 * 30 + 60 + 40
        count, diffs = engine_diff.compare(a, b, texts)
        assert (count, diffs) == (3 * len(texts) + 2 * len(elementary), [])
        limit = b.rewrite.NF_SIZE_LIMIT
        assert any(b.rewrite._nf_size(b.parse_expr(t))[0] > limit for t in elementary)
        # the rewrite layer: a lower limit refuses more normal forms
        b.rewrite.NF_SIZE_LIMIT = 50
        count, diffs = engine_diff.compare(a, b, texts)
        assert diffs and {call for call, *_ in diffs} == {"normalize_elementary"}
        b.rewrite.NF_SIZE_LIMIT = limit
        # a lexicographic sum's width as the least, not the largest, of
        # its parts' widths
        fns = b.engine._CHAIN_FNS
        fns[b.expr.LexSum] = (*fns[b.expr.LexSum][:2], min)
        count, diffs = engine_diff.compare(a, b, texts)
        assert diffs and {call for call, *_ in diffs} <= {"invariants", "pf_bounds"}
    finally:
        for key in [k for k in sys.modules if k.startswith("wqometer_diff_")]:
            del sys.modules[key]
