import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import alertmpc

# __main__ is left out: importing it runs the CLI.
MODULES = ["alertmpc"] + [
    f"alertmpc.{m.name}" for m in pkgutil.iter_modules(alertmpc.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    """Every name a module exports in __all__ is an attribute of it, so a
    deleted class leaves no stale export behind."""
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names what it does not define: {missing}"


SOURCES = sorted(Path(alertmpc.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    """Every name a module imports is used in it or listed in its __all__,
    so deleted code leaves no import behind.  from __future__ is exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used - exported)
    assert unused == [], f"{path.name} imports names it never uses: {unused}"
