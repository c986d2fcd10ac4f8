import importlib
import pkgutil

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
