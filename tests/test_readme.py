"""The README's library quick start runs as written."""

import re
from pathlib import Path


def test_readme_python_block_runs():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
