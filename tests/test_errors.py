"""The two error families: every raise in the package names one of them."""

import ast
from pathlib import Path

import heundirac
from heundirac import errors

SOURCES = sorted((Path(heundirac.__file__).parent).glob("*.py"))
FAMILIES = {"InvalidParams", "NoConvergence"}


def test_errors_module_defines_the_base_and_two_families():
    classes = {name for name, value in vars(errors).items() if isinstance(value, type)}
    assert classes == {"HeunDiracError", *FAMILIES}
    assert all(issubclass(getattr(errors, name), errors.HeunDiracError)
               for name in FAMILIES)


def test_every_raise_names_a_family():
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise):
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name) and exc.id in FAMILIES):
                offenders.append(f"{path.name}:{node.lineno}")
    assert SOURCES and offenders == []
