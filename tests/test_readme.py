"""The README's examples run as written: the Python session under doctest,
and each `$ wqometer ...` transcript against `cli.main`'s output."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from wqometer import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# (command line, printed output) of each transcript block
TRANSCRIPTS = re.findall(
    r"^```\n\$ wqometer ([^\n]*)\n(.*?)^```$", README, re.MULTILINE | re.DOTALL
)


def test_python_session_runs_under_doctest():
    (session,) = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
    test = doctest.DocTestParser().get_doctest(session, {}, "README", "README.md", 0)
    assert test.examples
    report = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.failed == 0, "".join(report)


def test_transcripts_are_the_documented_ones():
    assert [line for line, _ in TRANSCRIPTS] == [
        'invariants "Pf((w+w)|(w+w))"',
        'normalize --trace "Pf(o(w^w)|o(w^(w^2)))"',
        'check "Pf(G(4))"',
    ]


@pytest.mark.parametrize("line, output", TRANSCRIPTS, ids=[t[0] for t in TRANSCRIPTS])
def test_transcript_matches_the_cli(capsys, line, output):
    assert cli.main(shlex.split(line)) == 0
    assert capsys.readouterr().out == output
