"""Every exported name exists.

A stale ``__all__`` entry fails only at ``from fieldcover.<module> import
*``, which nothing else runs, so each module's ``__all__`` is resolved
here, as are the names the package ``__init__`` imports.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fieldcover

MODULES = sorted(m.name for m in pkgutil.iter_modules(fieldcover.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"fieldcover.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_every_name_the_package_imports_exists():
    tree = ast.parse(Path(fieldcover.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    missing = []
    for node in imports:
        module = importlib.import_module(f"fieldcover.{node.module}")
        missing.extend(f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name))
    assert missing == []
