"""The repository's pytest settings let a failing property test report itself.

``filterwarnings = ["error", ...]`` turns every warning into an error. When a
``@given`` test fails, hypothesis's report imports libcst, which imports
mypy_extensions and warns that its TypedDict is deprecated; unless that one
warning is ignored, the session ends in an INTERNALERROR that prints no
falsifying example and runs no later test.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    if x >= 0:
        raise AssertionError("deliberate")


def test_runs_after_the_failure():
    pass
'''


def test_a_failing_given_test_prints_its_example_and_the_session_goes_on(tmp_path):
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = result.stdout + result.stderr
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
