"""README's `## Library` example, run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["power"] == 1 and namespace["shape"] == (1, 1)
    assert namespace["text"] == namespace["value"].format_symmetric() == "m(1,1)"
    assert namespace["value"].format() == "x1*x2"
    assert namespace["sixths"] == "1/6 + 5/6*m(1)"
