"""Every name the package exports exists, and is exported once.

``from rsvp import *`` raises ``AttributeError`` on a name in ``__all__`` that
the package no longer binds, so a stale export only shows when someone uses
the star import. Checking ``__all__`` stands in for a lint rule.
"""

from __future__ import annotations

from collections import Counter
from types import ModuleType

import rsvp


def export_faults(module: ModuleType) -> list[str]:
    """Names in ``module.__all__`` that do not resolve or appear twice."""
    names = module.__all__
    missing = [name for name in names if not hasattr(module, name)]
    repeated = [name for name, count in Counter(names).items() if count > 1]
    return missing + repeated


def test_every_export_resolves_once():
    assert export_faults(rsvp) == []


def test_the_check_sees_stale_and_repeated_names():
    module = ModuleType("fake")
    module.kept = 1
    module.__all__ = ["kept", "gone", "kept"]
    assert export_faults(module) == ["gone", "kept"]
