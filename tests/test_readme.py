"""The README's library example runs as written, and the primitives it
lists are exported."""

import re
from pathlib import Path

import hassecert

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    text = README.read_text()
    section = text[text.index("## Library entry points"):]
    (snippet,) = re.findall(r"```python\n(.*?)```", section.split("\n## ")[0], re.S)
    namespace = {}
    exec(compile(snippet, "README.md", "exec"), namespace)
    assert namespace["local"].solvable_everywhere
    assert namespace["obstruction"].conclusion


def test_readme_primitives_are_exported():
    text = README.read_text()
    (listed,) = re.findall(r"Lower-level primitives \((.*?)\)", text, re.S)
    names = re.findall(r"`(\w+)`", listed)
    assert names
    missing = [name for name in names if not hasattr(hassecert, name)]
    assert not missing, missing
