"""The README's Python example runs as written, and every module and dotted
name it cites resolves, so a public name, or a module, it uses cannot be
deleted, merged or renamed without this test failing."""

import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np

import geomeans

README = Path(__file__).resolve().parents[1] / "README.md"

# heads of dotted code spans that name a value or a config path, not code
_NOT_CODE = ("config", "data")


def test_readme_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    values, points = namespace["values"], namespace["points"]
    assert values.shape == points.shape[:1]
    assert np.all(np.isfinite(values))


def test_readme_module_references_resolve():
    text = README.read_text()
    cited = set(re.findall(r"\bgeomeans\.(\w+)", text))
    assert len(cited) >= 7
    for module in cited:
        importlib.import_module(f"geomeans.{module}")
    modules = {m.name for m in pkgutil.iter_modules(geomeans.__path__)}
    spans = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text))
    resolved = 0
    for span in spans:
        head, *names = span.removeprefix("geomeans.").split(".")
        if head in modules:
            obj = importlib.import_module(f"geomeans.{head}")
        elif hasattr(geomeans, head):
            obj = getattr(geomeans, head)
        else:
            assert head in _NOT_CODE, f"README cites `{span}`, and {head!r} is no geomeans module"
            continue
        for name in names:
            assert hasattr(obj, name), f"README cites `{span}`, which does not resolve"
            obj = getattr(obj, name)
        resolved += 1
    assert resolved >= 10
