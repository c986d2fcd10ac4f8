import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import alertmpc
import alertmpc.cli as cli_module
from alertmpc.cli import main, parse_scenario_config
from alertmpc.formats import CliError, write_model_set

from helpers import shipped_config_path

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


def package_imports(source: str) -> set[str]:
    """The package's modules that source imports, by their short names
    ("cli" for alertmpc.cli), however the import is spelled."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.removeprefix("alertmpc.") for a in node.names if a.name.startswith("alertmpc.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.partition(".")[0] != "alertmpc":
                    continue
                module = module.removeprefix("alertmpc").lstrip(".")
            # "from . import cli" names the module among the imported names.
            found |= {module} if module else {alias.name for alias in node.names}
    return found


def test_package_imports_finds_each_spelling():
    source = ("from .cli import main\nfrom . import daemon\nimport alertmpc.formats\n"
              "from alertmpc.mpc import solve\nfrom alertmpc import sim\nimport numpy as np\n")
    assert package_imports(source) == {"cli", "daemon", "formats", "mpc", "sim"}


# The package modules each module may import.  cli sits on top: no module
# imports it but __main__, the entry point that runs it.
MAY_IMPORT = {
    "__init__": set(),
    "optimizer": set(),
    "domain": set(),
    "models": {"domain"},
    "identify": {"domain"},
    "mpc": {"domain", "models", "optimizer"},
    "daemon": {"domain", "mpc", "optimizer"},
    "sim": {"domain", "identify", "models", "mpc", "optimizer"},
    "formats": {"domain", "identify", "sim"},
    "__main__": {"cli"},
    "cli": {p.stem for p in SOURCES} - {"cli"},
}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_layering(path):
    modules = package_imports(path.read_text(encoding="utf-8")) & MAY_IMPORT.keys()
    extra = modules - MAY_IMPORT[path.stem]
    assert not extra, f"{path.name} imports {sorted(extra)}"


def test_every_span_hook_resolves(monkeypatch):
    """Each function the benchmark traces is still where its hook looks."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    for hook in spans.HOOKS:
        owner, name = spans.resolve(hook.module, hook.attr)
        assert callable(getattr(owner, name)), hook


def test_commands_call_what_the_hooks_replace(tmp_path, monkeypatch):
    """daemon and identify look run_daemon and read_telemetry_csv up in
    cli's globals, so a hook that replaces alertmpc.cli's attribute sees
    every call."""
    calls = []

    def fake_run_daemon(models, cfg, de, lines, on_record):
        calls.append("run_daemon")
        return {"records_in": 0, "records_out": 0, "malformed": 0, "late": 0, "errors": 0}

    def fake_read_telemetry_csv(path):
        calls.append(("read_telemetry_csv", path))
        raise CliError("read by the fake")

    monkeypatch.setattr(cli_module, "run_daemon", fake_run_daemon)
    monkeypatch.setattr(cli_module, "read_telemetry_csv", fake_read_telemetry_csv)
    config = shipped_config_path("case1_noc.cfg")
    model = str(tmp_path / "m.json")
    write_model_set(model, parse_scenario_config(config).plant.truth())
    stream = tmp_path / "in.jsonl"
    stream.write_text("")
    assert main(["daemon", "--model", model, "--config", config, "--in", str(stream),
                 "--out", str(tmp_path / "out.jsonl"), "--out-dir", str(tmp_path)]) == 0
    telemetry = str(tmp_path / "t.csv")
    assert main(["identify", telemetry, str(tmp_path / "fit.json"), "--out-dir", str(tmp_path)]) == 2
    assert calls == ["run_daemon", ("read_telemetry_csv", telemetry)]
