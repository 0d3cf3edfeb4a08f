"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    text = README.read_text()
    section = text[text.index("## Library entry points"):]
    (snippet,) = re.findall(r"```python\n(.*?)```", section.split("\n## ")[0], re.S)
    namespace = {}
    exec(compile(snippet, "README.md", "exec"), namespace)
    assert namespace["local"].solvable_everywhere
    assert namespace["obstruction"].conclusion
