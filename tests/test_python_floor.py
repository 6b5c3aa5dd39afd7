"""Every source file parses under the oldest Python that pyproject.toml allows.

No interpreter that old need be installed: ``ast.parse`` with a
``feature_version`` rejects the grammar that came later, such as
``except*`` or type parameter lists.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLOOR = (3, 10)


def test_every_source_parses_at_the_python_floor():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert f'requires-python = ">={FLOOR[0]}.{FLOOR[1]}"' in pyproject
    sources = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
    assert len(sources) > 30
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
