"""Array freezing, the integer test and the scipy import live in ``_util.py`` alone.

``_util.readonly`` (a read-only copy of a caller's input), ``_util.freeze_arrays``
(arrays the library has just built) and ``_util.is_integer`` (Python and numpy
integers, no float) are the one home of each rule, so no other module calls
``.setflags(`` or tests ``isinstance(..., np.integer)`` itself.  ``_util.linprog``
is the one place that imports scipy, inside its body, so ``import fluidnet``
does not load scipy.optimize.
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


def scipy_imports(tree):
    """(line, at module level?) for each ``import scipy...`` and ``from scipy... import``."""
    nested = {id(inner) for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
              for inner in ast.walk(node) if inner is not node}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            yield node.lineno, id(node) not in nested


def test_util_imports_scipy_only_inside_a_function():
    found = list(scipy_imports(ast.parse((SRC / HOME).read_text())))
    assert found and not any(top for _, top in found)


@pytest.mark.parametrize("module", [m for m in MODULES if m != HOME])
def test_no_scipy_import_outside_util(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert list(scipy_imports(tree)) == []


def test_guard_sees_a_scipy_import():
    tree = ast.parse(
        "import scipy\n"
        "from scipy.optimize import linprog\n"
        "import scipyx\n"
        "def f():\n"
        "    import scipy.optimize as opt\n"
        "from .scipy import x\n"
    )
    assert list(scipy_imports(tree)) == [(1, True), (2, True), (5, False)]
