"""README's library examples run as printed."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The Library section's python blocks, in order; later ones use earlier names."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 2, "the Library section should hold two python blocks"
    return "\n".join(blocks)


def test_library_example_runs_and_certifies(capsys):
    exec(compile(library_example(), str(README), "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert float(lines[0]) <= 4.0
    assert lines[1].startswith("MakespanCertificate(") and "satisfied=True" in lines[1]
    # bare sites go to verification without a plan
    assert lines[2] == "False"
