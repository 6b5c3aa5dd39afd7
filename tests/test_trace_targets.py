"""Every name the traced benchmark wraps still exists in the program.

``perfbench/tracing.py`` wraps each ``(module, qualname)`` of
``TARGETS`` by name, and a name the program no longer has makes the
traced run incorrect. Here each name is resolved by the rule
``tracing.install`` uses, without wrapping anything, so a deleted or
renamed target fails the test suite too.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

import fieldcover.gp as gp

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def missing_targets(targets) -> list[str]:
    """Targets ``tracing.install`` would report as missing."""
    missing = []
    for module, qualname, _, _ in targets:
        owner = importlib.import_module(f"fieldcover.{module}")
        cls_name, _, method = qualname.rpartition(".")
        cls = getattr(owner, cls_name, None) if cls_name else None
        if cls is not None and method in vars(cls):
            continue
        if cls_name or getattr(owner, qualname, None) is None:
            missing.append(f"{module}.{qualname}")
    return missing


def test_every_trace_target_resolves():
    assert missing_targets(load_tracing().TARGETS) == []


@pytest.mark.parametrize(
    "owner, name, target",
    [
        (gp.Posterior, "mean_many", "gp.Posterior.mean_many"),
        (gp, "nlml", "gp.nlml"),
    ],
)
def test_a_deleted_target_is_reported(monkeypatch, owner, name, target):
    monkeypatch.delattr(owner, name)
    assert missing_targets(load_tracing().TARGETS) == [target]
