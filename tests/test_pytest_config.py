"""The test run's own configuration (pyproject.toml): every warning is an
error, yet a failing property test is reported as one failure and the run
goes on to the tests after it."""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_property_test_fails_alone(tmp_path):
    """Reporting a failing @given test imports libcst, whose deprecation
    warning, raised as an error, used to abort the run with INTERNALERROR."""
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""\
        import warnings

        from hypothesis import given, settings, strategies as st


        @settings(database=None)
        @given(st.integers())
        def test_property_fails(x):
            assert False


        def test_other_deprecation_is_an_error():
            warnings.warn("still an error", DeprecationWarning)


        def test_after():
            pass
        """), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", str(tmp_path / "test_probe.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert done.returncode == 1, output
    assert "2 failed, 1 passed" in done.stdout
    assert "test_other_deprecation_is_an_error" in done.stdout
