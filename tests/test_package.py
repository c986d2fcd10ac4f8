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


def positional_out_extrema(source: str) -> list[int]:
    """Lines of np.maximum or np.minimum calls given a third positional
    argument.  numpy 2.4 deprecates that spelling of out, and the suite's
    warnings-as-errors fails it only when the line runs."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("maximum", "minimum")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
        and len(node.args) > 2
    ]


def test_positional_out_extrema_finds_the_spelling():
    source = "np.maximum(a, 0.0, out=a)\nnp.minimum(a, b, a)\nnp.maximum.reduce(a, 0, None, b)\n"
    assert positional_out_extrema(source) == [2]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_extrema_take_out_by_keyword(path):
    lines = positional_out_extrema(path.read_text(encoding="utf-8"))
    assert lines == [], f"{path.name}: np.maximum/np.minimum with a positional out on lines {lines}"
