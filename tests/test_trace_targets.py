"""Every name the traced benchmark wraps still exists in the program.

``perfbench/tracing.py`` wraps each ``(module, qualname)`` of
``TARGETS`` by name, and a name the program no longer has makes the
traced run incorrect. Here each name is resolved by the rule
``tracing.install`` uses, without wrapping anything, so a deleted or
renamed target fails the test suite too. The same goes for the
arguments a target's measure hook reads by name: a renamed parameter
makes the hook raise KeyError in the traced run.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import textwrap
from pathlib import Path

import pytest

import fieldcover.gp as gp
import fieldcover.placement as placement
import fieldcover.routing as routing

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


def resolve(module: str, qualname: str):
    """The function or method ``tracing.install`` would wrap."""
    owner = importlib.import_module(f"fieldcover.{module}")
    cls_name, _, method = qualname.rpartition(".")
    return vars(getattr(owner, cls_name))[method] if cls_name else getattr(owner, qualname)


def hook_keys(hook, tracing) -> set[str]:
    """The keys ``hook(tracer, arguments, result)`` reads from ``arguments``.

    Keys read by the module's hooks that ``hook`` hands ``arguments`` to
    count too. Any other use of ``arguments`` raises, so no read escapes
    the check.
    """
    tree = ast.parse(textwrap.dedent(inspect.getsource(hook))).body[0]
    name = tree.args.args[1].arg
    keys, seen = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == name:
            assert isinstance(node.slice, ast.Constant), f"{hook.__name__} reads a computed key"
            keys.add(node.slice.value)
            seen.add(id(node.value))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            passed = [a for a in node.args if isinstance(a, ast.Name) and a.id == name]
            if passed:
                keys |= hook_keys(getattr(tracing, node.func.id), tracing)
                seen.update(map(id, passed))
    uses = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == name]
    assert all(id(n) in seen for n in uses), f"{hook.__name__} uses its arguments otherwise"
    return keys


def unbound_keys(targets, tracing) -> list[str]:
    """``module.qualname: key`` for each key a hook reads that its target may not bind.

    The hooks get ``inspect.Signature.bind(...).arguments``, which holds
    only the arguments a call passes, so a key must name a parameter
    without a default.
    """
    unbound = []
    for module, qualname, _, hook in targets:
        if hook is None:
            continue
        params = inspect.signature(resolve(module, qualname)).parameters
        for key in sorted(hook_keys(hook, tracing)):
            if key not in params or params[key].default is not inspect.Parameter.empty:
                unbound.append(f"{module}.{qualname}: {key}")
    return unbound


def renamed(fn, old: str, new: str):
    """A stand-in for ``fn`` whose parameter ``old`` is called ``new``."""
    sig = inspect.signature(fn)
    params = [p.replace(name=new) if p.name == old else p for p in sig.parameters.values()]

    def stand_in(*args, **kwargs):
        return fn(*args, **kwargs)

    stand_in.__signature__ = sig.replace(parameters=params)
    return stand_in


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


def test_every_hook_reads_arguments_its_target_binds():
    tracing = load_tracing()
    assert any(hook_keys(hook, tracing) for *_, hook in tracing.TARGETS if hook is not None)
    assert unbound_keys(tracing.TARGETS, tracing) == []


@pytest.mark.parametrize(
    "owner, name, parameter, target",
    [
        (placement, "verify_plan", "plan", "placement.verify_plan: plan"),
        (placement, "verify_plan", "delta", "placement.verify_plan: delta"),
        # read only by ``_plan``, which ``_toured`` calls
        (routing, "tour_from_plan", "plan", "routing.tour_from_plan: plan"),
    ],
)
def test_a_renamed_hook_argument_is_reported(monkeypatch, owner, name, parameter, target):
    monkeypatch.setattr(owner, name, renamed(getattr(owner, name), parameter, "renamed"))
    tracing = load_tracing()
    assert unbound_keys(tracing.TARGETS, tracing) == [target]
