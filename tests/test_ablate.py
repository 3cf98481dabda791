"""`tools/ablate.py`: every edit of its table still finds its anchor, once,
in the module it names, so each row can be measured again."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("ablate", ROOT / "tools" / "ablate.py")
ablate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ablate)


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
