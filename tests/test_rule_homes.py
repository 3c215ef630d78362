"""Array freezing and the integer test live in ``_util.py`` alone.

``_util.readonly`` (a read-only copy of a caller's input), ``_util.freeze_arrays``
(arrays the library has just built) and ``_util.is_integer`` (Python and numpy
integers, no float) are the one home of each rule, so no other module calls
``.setflags(`` or tests ``isinstance(..., np.integer)`` itself.
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fluidnet"
HOME = "_util.py"


def rule_copies(tree):
    """(line, what) for each ``.setflags(`` call and each isinstance test naming ``np.integer``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute) and node.func.attr == "setflags":
            yield node.lineno, ".setflags("
        elif (isinstance(node.func, ast.Name) and node.func.id == "isinstance"
              and len(node.args) == 2
              and any(isinstance(n, ast.Attribute) and n.attr == "integer"
                      for n in ast.walk(node.args[1]))):
            yield node.lineno, "isinstance(..., np.integer)"


MODULES = sorted(p.name for p in SRC.glob("*.py"))


def test_home_found_and_holds_the_rules():
    assert HOME in MODULES
    found = {what for _, what in rule_copies(ast.parse((SRC / HOME).read_text()))}
    assert found == {".setflags(", "isinstance(..., np.integer)"}


@pytest.mark.parametrize("module", [m for m in MODULES if m != HOME])
def test_no_copy_of_a_rule_outside_util(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert list(rule_copies(tree)) == []


def test_guard_sees_a_copy():
    tree = ast.parse(
        "a.setflags(write=False)\n"
        "isinstance(v, (int, np.integer))\n"
        "isinstance(v, int)\n"
        "ok = isinstance(v, numpy.integer)\n"
    )
    assert [line for line, _ in rule_copies(tree)] == [1, 2, 4]
