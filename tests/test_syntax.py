"""Static checks of the sources: the package and its tests declare
requires-python >= 3.10, and no package module keeps an import it never
reads."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
MODULES = sorted(p for p in (ROOT / "src" / "tropmf").glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_python_3_10_grammar_accepts_every_source(path):
    """ast.parse with feature_version (3, 10) refuses, on any newer
    interpreter, the grammar its parser marks as newer than 3.10, such as
    except*.  It checks grammar only, and only as far as the parser
    tracks versions: a stdlib name or behaviour that 3.10 lacks passes
    unseen."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))


def unread_imports(text: str) -> list:
    """The names the module text imports and never reads, skipping
    __future__ imports and any import whose lines carry # noqa: F401."""
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if (getattr(node, "module", None) == "__future__"
                or any("# noqa: F401" in ln
                       for ln in lines[node.lineno - 1:node.end_lineno])):
            continue
        imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - read)


def test_unread_imports_are_found():
    text = ("from __future__ import annotations\n"
            "import os, re\n"
            "from .a import (b,\n    c as d)\n"
            "from .e import f  # noqa: F401  kept for a tracer\n"
            "print(re.compile(b), d)\n")
    assert unread_imports(text) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_package_import_is_read(path):
    """A module reads every name it imports.  An import kept only for
    the tracer is marked # noqa: F401 and checked against the trace
    targets in test_trace_targets; __init__.py imports to re-export."""
    assert unread_imports(path.read_text(encoding="utf-8")) == []
