"""The benchmark's traced functions and README's library example stay in step with the
package, and each error message of the package has one home."""

import ast
import importlib
import re
from pathlib import Path

from cityform import errors

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


def _message_text(node):
    """The constant text of an error message: a string, or an f-string with
    each replacement field as ``{}``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(p.value if isinstance(p, ast.Constant) else "{}" for p in node.values)
    return None


def test_each_error_message_is_raised_by_one_module():
    """A rule stated twice drifts: each message is raised from one place, in one module."""
    classes = {
        name for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.CityformError)
    }
    places = {}
    for path in sorted((ROOT / "src" / "cityform").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
                continue
            if getattr(node.exc.func, "id", None) not in classes:
                continue
            text = _message_text(node.exc.args[0]) if node.exc.args else None
            if text and text.strip("{}"):
                places.setdefault(text, []).append(f"{path.name}:{node.lineno}")
    repeated = {text: where for text, where in places.items() if len(where) > 1}
    assert not repeated, repeated
