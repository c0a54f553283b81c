"""Every name the package exports exists, is exported once, and is used.

``from rsvp import *`` raises ``AttributeError`` on a name in ``__all__`` that
the package no longer binds, so a stale export only shows when someone uses
the star import. Checking ``__all__`` stands in for a lint rule. So does the
dead-API check: a public field, method or property of an exported class that
neither the package nor the benchmark reads is API kept alive by tests alone.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from collections import Counter
from functools import cached_property
from pathlib import Path
from types import ModuleType
from typing import NamedTuple

import rsvp

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
READERS = sorted(Path(rsvp.__file__).parent.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))


def export_faults(module: ModuleType) -> list[str]:
    """Names in ``module.__all__`` that do not resolve or appear twice."""
    names = module.__all__
    missing = [name for name in names if not hasattr(module, name)]
    repeated = [name for name, count in Counter(names).items() if count > 1]
    return missing + repeated


def attribute_reads(path: Path) -> list[tuple[Path, int, str]]:
    """Every ``x.name`` in the file, f-string fields included, as (path,
    line, name)."""
    return [(path.resolve(), node.lineno, node.attr)
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)]


def _fields(cls) -> tuple[str, ...]:
    """The field names of a dataclass or NamedTuple, () for any other class."""
    if dataclasses.is_dataclass(cls):
        return tuple(f.name for f in dataclasses.fields(cls))
    return cls._fields if issubclass(cls, tuple) and hasattr(cls, "_fields") else ()


def _function(member):
    """The function behind a method or property, None for anything else."""
    if inspect.isfunction(member):
        return member
    if isinstance(member, (classmethod, staticmethod)):
        return member.__func__
    if isinstance(member, property):
        return member.fget
    if isinstance(member, cached_property):
        return member.func
    return None


def unread_members(module: ModuleType, paths: list[Path]) -> list[str]:
    """``Class.member`` for each public field, method or property of a class in
    ``module.__all__`` that no file in ``paths`` reads as an attribute outside
    the member's own definition. Reads are matched by name, so a member that
    shares its name with any attribute read elsewhere counts as read."""
    reads = [read for path in paths for read in attribute_reads(path)]
    read_names = {name for _, _, name in reads}
    unread = []
    for class_name in module.__all__:
        cls = getattr(module, class_name)
        if not inspect.isclass(cls):
            continue
        unread += [f"{class_name}.{name}" for name in _fields(cls)
                   if not name.startswith("_") and name not in read_names]
        for name, member in vars(cls).items():
            func = _function(member)
            if name.startswith("_") or func is None:
                continue
            source = Path(inspect.getsourcefile(func)).resolve()
            lines, first = inspect.getsourcelines(func)
            own = range(first, first + len(lines))
            if not any(word == name and not (path == source and line in own)
                       for path, line, word in reads):
                unread.append(f"{class_name}.{name}")
    return unread


def test_every_export_resolves_once():
    assert export_faults(rsvp) == []


def test_the_check_sees_stale_and_repeated_names():
    module = ModuleType("fake")
    module.kept = 1
    module.__all__ = ["kept", "gone", "kept"]
    assert export_faults(module) == ["gone", "kept"]


def test_no_public_member_is_read_by_tests_alone():
    assert {path.parent.name for path in READERS} == {"rsvp", "perfbench"}
    assert unread_members(rsvp, READERS) == []


@dataclasses.dataclass
class Probe:
    probe_field_read: int = 0
    probe_field_unread: int = 0
    _probe_field_private: int = 0

    def probe_read(self) -> None:
        pass

    def probe_unread(self) -> None:
        pass

    def probe_self_only(self, depth: int) -> None:
        if depth:
            self.probe_self_only(depth - 1)

    @property
    def probe_shown(self) -> int:
        return 0

    @classmethod
    def probe_made(cls) -> Probe:
        return cls()

    def _probe_private(self) -> None:
        pass


class ProbePair(NamedTuple):
    probe_first: int
    probe_second: int


def test_the_dead_api_check_sees_unread_members(tmp_path):
    reader = tmp_path / "reader.py"
    # the f-string reads count: Python 3.11 tokenizes an f-string as one string
    reader.write_text("p = Probe.probe_made()\np.probe_read()\nprint(p.probe_shown)\n"
                      "print(f'{p.probe_field_read} {ProbePair(1, 2).probe_first}')\n")
    module = ModuleType("fake")
    module.Probe = Probe
    module.ProbePair = ProbePair
    module.value = 1
    module.__all__ = ["Probe", "ProbePair", "value"]
    assert unread_members(module, [reader, Path(__file__)]) == [
        "Probe.probe_field_unread", "Probe.probe_unread", "Probe.probe_self_only",
        "ProbePair.probe_second"]
    assert unread_members(module, [Path(__file__)]) == [
        "Probe.probe_field_read", "Probe.probe_field_unread", "Probe.probe_read",
        "Probe.probe_unread", "Probe.probe_self_only", "Probe.probe_shown", "Probe.probe_made",
        "ProbePair.probe_first", "ProbePair.probe_second"]
