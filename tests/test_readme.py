"""README's library example runs as printed."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1, "the Library section should hold one python block"
    return blocks[0]


def test_library_example_runs_and_certifies(capsys):
    exec(compile(library_example(), str(README), "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert float(lines[0]) <= 4.0
    assert lines[1].startswith("MakespanCertificate(") and "satisfied=True" in lines[1]
