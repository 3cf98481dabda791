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
