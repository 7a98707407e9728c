"""The package and its tests declare requires-python >= 3.10."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


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
