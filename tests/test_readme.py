"""The README's Python example runs as written, so a public name it uses
cannot be deleted or renamed without this test failing."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    values, points = namespace["values"], namespace["points"]
    assert values.shape == points.shape[:1]
    assert np.all(np.isfinite(values))
