"""Every module of the package parses at the oldest Python that
``pyproject.toml`` declares.

The suite runs on one interpreter, newer than that floor, so syntax added
after it would pass every test and still fail to import on the oldest
supported Python. Parsing with ``feature_version`` stands in for running the
suite there. It checks syntax only: a library call newer than the floor
still goes unnoticed.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import rsvp

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SOURCES = sorted(Path(rsvp.__file__).parent.glob("*.py"))


def declared_floor() -> tuple[int, int]:
    """(major, minor) of ``requires-python = ">=X.Y"``."""
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                      PYPROJECT.read_text(encoding="utf-8"), re.MULTILINE)
    if found is None:
        raise ValueError(f"{PYPROJECT} declares no requires-python floor")
    return int(found[1]), int(found[2])


def test_sources_and_floor_were_found():
    assert any(path.name == "signature.py" for path in SOURCES)
    assert declared_floor() >= (3, 10)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_module_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=declared_floor())


def test_the_check_refuses_syntax_newer_than_the_floor():
    probe = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(probe)  # except* is 3.11 syntax, which this interpreter accepts
    with pytest.raises(SyntaxError):
        ast.parse(probe, feature_version=(3, 10))
