"""The README's library example runs as written, the primitives it lists
are exported, and every module attribute it names exists."""

import importlib
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


def test_readme_module_names_resolve():
    # every backticked module.name (module.name(...) included) resolves on
    # hassecert.<module>; file names such as `arith.py` are not names
    text = README.read_text()
    modules = "arith|local|brauer|family|params|search|cli"
    named = re.findall(rf"`({modules})\.(\w+(?:\.\w+)*)[^`]*`", text)
    assert named
    missing = []
    for module, dotted in named:
        if dotted == "py":
            continue
        obj = importlib.import_module(f"hassecert.{module}")
        for attr in dotted.split("."):
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(f"{module}.{dotted}")
    assert not missing, missing
