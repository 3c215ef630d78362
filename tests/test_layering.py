"""The service discipline stays inside the modules that define or parse it.

Everywhere else the discipline reaches the code only through the spec's
capacity rows (``NetworkSpec.capacity`` and ``NetworkSpec.members``), so no
other module may compare ``.discipline`` or name ``WORK_CONSERVING`` /
``PRIORITY``.  ``fluidlimit.py`` is exempt: its queueing simulator serves
the classes at a station in priority order.
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fluidnet"
ALLOWED = {"model.py", "specfile.py", "fixtures.py", "__init__.py", "fluidlimit.py"}
NAMES = {"WORK_CONSERVING", "PRIORITY"}


def discipline_uses(tree):
    """(line, what) for each discipline comparison or discipline-name reference."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(op, ast.Attribute) and op.attr == "discipline" for op in operands):
                yield node.lineno, "comparison with .discipline"
        elif isinstance(node, ast.Name) and node.id in NAMES:
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and node.attr in NAMES:
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in NAMES:
                    yield node.lineno, f"import of {alias.name}"


MODULES = sorted(p.name for p in SRC.glob("*.py"))


def test_modules_found():
    assert ALLOWED <= set(MODULES) and len(MODULES) > len(ALLOWED)


@pytest.mark.parametrize("module", [m for m in MODULES if m not in ALLOWED])
def test_no_discipline_branch_outside_model(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert list(discipline_uses(tree)) == []


def test_guard_sees_a_branch():
    tree = ast.parse(
        "from .model import WORK_CONSERVING\n"
        "if spec.discipline == 'priority':\n    pass\n"
        "x = model.PRIORITY\n"
    )
    assert [line for line, _ in discipline_uses(tree)] == [1, 2, 4]
