"""The benchmark's hold on the package: every name ``perfbench`` imports
from ``pvit`` still resolves, every call ``perfbench`` makes to such a
name still binds to its signature, and each workload, run at the tiny
sizes of ``perfbench``'s own tests, passes its output checks.  So
removing or changing a name, a parameter or a result attribute the
benchmark uses fails this suite, which ``perfbench``'s own tests are not
part of."""

import ast
import importlib
import inspect
import math
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_trees():
    """(path, parsed module) for ``perfbench/*.py`` and ``perfbench/tests/*.py``."""
    for path in sorted([*PERFBENCH.glob("*.py"), *PERFBENCH.glob("tests/*.py")]):
        yield path, ast.parse(path.read_text(), filename=str(path))


def where(path, node) -> str:
    return f"{path.relative_to(PERFBENCH.parent)}:{node.lineno}"


def is_pvit_import(node) -> bool:
    return isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "pvit"


def pvit_imports():
    """(file:line, module, name) for every ``from pvit... import name`` in
    ``perfbench/*.py`` and ``perfbench/tests/*.py``, function bodies included."""
    found = []
    for path, tree in perfbench_trees():
        for node in ast.walk(tree):
            if is_pvit_import(node):
                found += [(where(path, node), node.module, alias.name) for alias in node.names]
    return found


def resolves(module: str, name: str) -> bool:
    """Whether the module imports and has the attribute ``name``."""
    try:
        return hasattr(importlib.import_module(module), name)
    except ImportError:
        return False


def pvit_calls():
    """(file:line, callable, positional count, keyword names) for every call
    in ``perfbench`` to a name imported from ``pvit``, or to an attribute of
    one such as ``PViTModel.load``.  A call that unpacks ``*args`` is skipped;
    ``**kwargs`` unpacking is left out of the keyword names.  Names that do
    not resolve are left to the name test."""
    found = []
    for path, tree in perfbench_trees():
        imported = {alias.asname or alias.name: getattr(importlib.import_module(node.module), alias.name)
                    for node in ast.walk(tree) if is_pvit_import(node)
                    for alias in node.names if resolves(node.module, alias.name)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or any(isinstance(arg, ast.Starred) for arg in node.args):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in imported:
                target = imported[func.id]
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and func.value.id in imported):
                target = getattr(imported[func.value.id], func.attr)
            else:
                continue
            keywords = [kw.arg for kw in node.keywords if kw.arg is not None]
            found.append((where(path, node), target, len(node.args), keywords))
    return found


def test_every_name_perfbench_imports_from_pvit_resolves():
    imports = pvit_imports()
    assert len({module for _, module, _ in imports}) >= 3, "the guard no longer finds perfbench's imports"
    missing = [f"{where}: from {module} import {name}" for where, module, name in imports
               if not resolves(module, name)]
    assert missing == []


def test_every_call_perfbench_makes_into_pvit_binds():
    calls = pvit_calls()
    called = {target for _, target, _, _ in calls}
    assert {"score_dataset", "run_training", "train_prior_model"} <= {t.__name__ for t in called}, \
        "the guard no longer finds perfbench's calls"
    unbound = []
    for at, target, positional, keywords in calls:
        try:
            inspect.signature(target).bind_partial(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{at}: {target.__qualname__}: {exc}")
    assert unbound == []


def tiny_workload(name: str):
    """``name``'s workload at the sizes ``perfbench/tests`` runs it at."""
    from pvit import PViTConfig
    from perfbench.workloads import EvalLarge, ScoreBulk, TrainDesk

    small = PViTConfig(embed_dim=16, depth=1, heads=2, mlp_dim=32, num_classes=4)
    if name == "train-desk":
        return TrainDesk(per_class=40, train_count=128, check_count=32, prior_epochs=2, vit_epochs=1,
                         config=small, loss_reference=math.log(4), loss_tolerance=0.1, min_auroc=0.5)
    if name == "score-bulk":
        return ScoreBulk(per_class=16, ood_count=64, config=small)
    return EvalLarge(n_id=3000, n_ood=2000)


@pytest.mark.parametrize("name", ["train-desk", "score-bulk", "eval-large"])
def test_tiny_workload_passes_its_checks(name, tmp_path, monkeypatch):
    """setup, operate, check and the traced run's layer timings, as the
    benchmark calls them, with tracing off."""
    monkeypatch.syspath_prepend(str(PERFBENCH.parent))
    from perfbench.clock import LapClock
    from perfbench.trace import Tracer

    workload, tracer = tiny_workload(name), Tracer(enabled=False)
    state = workload.setup(0, str(tmp_path), tracer)
    result = workload.operate(state, tracer, LapClock(tracer))
    assert workload.check(state, result.outputs) == []
    assert result.samples > 0 and result.steps_ms
    layers = workload.time_layers(state, result.outputs)
    assert layers and all(math.isfinite(value) and value > 0 for value in layers.values())
