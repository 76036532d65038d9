from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)  # pyproject's requires-python, the oldest Python CI runs


def test_every_source_file_parses_as_the_oldest_supported_python():
    """Every .py file under src/, tests/, scripts/ and perfbench/ parses with
    the grammar of Python 3.10, whichever Python runs the suite.

    This checks grammar only, not stdlib APIs: a call to a function added
    after 3.10 still passes. The first two asserts show the check bites on
    this interpreter: except* (3.11) fails it and match (3.10) passes.
    """
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)
    ast.parse("match x:\n    case 1:\n        pass\n", feature_version=OLDEST)
    paths = sorted(p for d in ("src", "tests", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 20
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)
        except SyntaxError as e:
            failures.append(f"{path.relative_to(ROOT)}:{e.lineno}: {e.msg}")
    assert not failures, failures
