"""`tools/ablate.py`: every edit of its table still finds its anchor, once,
in the module it names, and the copy it makes still gives the working
tree's reports, so each row can be measured again."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import wqometer

ROOT = Path(__file__).resolve().parents[1]


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ablate = _tool("ablate")
engine_diff = _tool("engine_diff")

# a chain of leaves, a chain of constructors over a leaf, each with a
# repeated part, and an elementary term
_TEXTS = (
    "Sim(w^w)|G(2)|w|Phi(3)|Sim(w^w)|o(w+1)",
    "Pf(5)|M(G(1))|Pf(Sim(w))|G(3)^<w|Pf(Sim(w))|M(Phi(w^2))",
    "Pf(o(w^w)|o(w^(w^2)))*M(o(w^w))^<w",
)


def _reports(package) -> list[str]:
    out = [json.dumps(package.invariants(package.parse_expr(t)).to_json()) for t in _TEXTS]
    p = package.build(package.parse_expr("Pf(G(2)|2)*3"))
    return out + [str(f(p)) for f in (package.mot, package.height, package.width)]


def test_every_anchor_matches_once():
    assert ablate.ABLATIONS
    assert ablate.unmatched() == []


def test_a_run_merges_its_rows_into_the_earlier_ones():
    def row(name, workload, ratio):
        return {"ablation": name, "workload": workload, "total_ratio": ratio}

    earlier = [row("a", "w1", 1.0), row("a", "w2", 1.1), row("b", "w1", 1.2)]
    rows = [row("a", "w2", 0.9), row("c", "w1", 1.3)]
    assert ablate.merge(earlier, rows) == [
        row("a", "w1", 1.0),
        row("a", "w2", 0.9),
        row("b", "w1", 1.2),
        row("c", "w1", 1.3),
    ]
    assert ablate.merge([], rows) == rows


@pytest.mark.parametrize("ab", ablate.ABLATIONS, ids=lambda ab: ab.name)
def test_every_edited_copy_gives_the_working_tree_s_reports(tmp_path, ab):
    # a replacement that breaks its module, or a result, fails here, not
    # only in a run of the tool
    name = "wqometer_ablate_" + ab.name.replace("-", "_")
    try:
        package = engine_diff.load(ablate.make_copy(tmp_path, ab) / "wqometer", name)
        getattr(package, ab.module.removesuffix(".py"))  # imports the edited module
        assert _reports(package) == _reports(wqometer)
    finally:
        for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
            del sys.modules[key]
