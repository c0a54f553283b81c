"""Every annotation in the package resolves to a name its module can see.

With ``from __future__ import annotations`` an annotation stays a string
until something asks for it, so a name that is only annotated and never
imported goes unnoticed until ``typing.get_type_hints`` raises ``NameError``.
Resolving all of them stands in for a type-checking lint step.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import typing

import pytest

import rsvp

# importing rsvp.__main__ runs the command line
MODULES = sorted(info.name for info in pkgutil.iter_modules(rsvp.__path__)
                 if info.name != "__main__")


def defined_in(module):
    """The functions and classes ``module`` defines, and the classes' methods."""
    for obj in vars(module).values():
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        if obj.__module__ != module.__name__:
            continue
        yield obj
        if inspect.isclass(obj):
            yield from (m for m in vars(obj).values() if inspect.isfunction(m))


@pytest.mark.parametrize("name", MODULES)
def test_every_annotation_resolves(name):
    module = importlib.import_module(f"rsvp.{name}")
    objects = list(defined_in(module))
    assert objects
    for obj in objects:
        typing.get_type_hints(obj)
