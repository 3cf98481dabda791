"""The suite's own pytest settings in pyproject.toml, run on a test file
of their own in a fresh interpreter."""

import json
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_failing_hypothesis_test_ends_no_other_test(pytester):
    # every warning is an error, but the import of libcst in Hypothesis's
    # report of a failure warns that mypy_extensions.TypedDict is
    # deprecated; that one warning is ignored, so the run goes on past the
    # failure, and any other warning still fails its test.  A fresh
    # interpreter, as the warning comes once per process, on the import
    ini = tomllib.loads((ROOT / "pyproject.toml").read_text())["tool"]["pytest"]
    filters = ini["ini_options"]["filterwarnings"]
    pytester.makepyprojecttoml(
        "[tool.pytest.ini_options]\nfilterwarnings = %s\n" % json.dumps(filters)
    )
    pytester.makepyfile(
        """
        import warnings

        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 5

        def test_warns():
            warnings.warn("deprecated", DeprecationWarning)

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=2, passed=1)
    assert "INTERNALERROR" not in result.stdout.str()
