"""The benchmark's traced functions and README's library example stay in step with the package."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    for module_name, func_name, _ in importlib.import_module("tracing").TRACED:
        func = getattr(importlib.import_module(module_name), func_name, None)
        assert callable(func), f"{module_name}.{func_name}"


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library use\n.*?```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
