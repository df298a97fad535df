"""The benchmark's hold on the package: every name ``perfbench`` imports
from ``pvit`` still resolves, so removing one fails this suite, which
``perfbench``'s own tests are not part of."""

import ast
import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def pvit_imports():
    """(file:line, module, name) for every ``from pvit... import name`` in
    ``perfbench/*.py`` and ``perfbench/tests/*.py``, function bodies included."""
    found = []
    for path in sorted([*PERFBENCH.glob("*.py"), *PERFBENCH.glob("tests/*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "pvit":
                where = f"{path.relative_to(PERFBENCH.parent)}:{node.lineno}"
                found += [(where, node.module, alias.name) for alias in node.names]
    return found


def resolves(module: str, name: str) -> bool:
    """Whether the module imports and has the attribute ``name``."""
    try:
        return hasattr(importlib.import_module(module), name)
    except ImportError:
        return False


def test_every_name_perfbench_imports_from_pvit_resolves():
    imports = pvit_imports()
    assert len({module for _, module, _ in imports}) >= 3, "the guard no longer finds perfbench's imports"
    missing = [f"{where}: from {module} import {name}" for where, module, name in imports
               if not resolves(module, name)]
    assert missing == []
