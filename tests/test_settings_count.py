"""The package's settable values do not grow past their count.

``tools/settings_count.py`` counts the defaulted parameters and dataclass
fields of ``src/fluidnet``.  A change that adds one raises ``MAX_SETTINGS``
here and says why.
"""
import ast
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "settings_count.py")
PACKAGE = os.path.join(ROOT, "src", "fluidnet")
MAX_SETTINGS = 44


def test_settable_values_at_most_the_cap():
    spec = importlib.util.spec_from_file_location("settings_count", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as handle:
                tree = ast.parse(handle.read(), filename=name)
            found.extend(f"{name}:{line}  {what}" for line, what in sorted(tool.settings(tree)))
    assert len(found) <= MAX_SETTINGS, "\n".join(found)
