"""The library example in the README runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    text = README.read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) == 1
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    assert blocks[0] in section
    exec(compile(blocks[0], str(README), "exec"), {})
