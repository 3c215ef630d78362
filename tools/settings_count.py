"""Count the settable values of the fluidnet package.

    python tools/settings_count.py
    python tools/settings_count.py --src ../other-checkout/src

A settable value is a function or method parameter with a default (lambdas
included) or a dataclass field with a default or a ``default_factory``.
Fields declared with ``field(init=False)`` are derived, not set, and are not
counted.  Prints the count, then one line ``<file>:<line>  <owner>.<name>``
per value, in file and line order.
"""
from __future__ import annotations

import argparse
import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _field_is_settable(value: ast.expr) -> bool:
    """A defaulted field, unless it is ``field(...)`` without a default or with init=False."""
    if not (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"):
        return True
    keywords = {kw.arg: kw.value for kw in value.keywords}
    init = keywords.get("init")
    if isinstance(init, ast.Constant) and init.value is False:
        return False
    return "default" in keywords or "default_factory" in keywords


def _defaulted_params(args: ast.arguments):
    positional = args.posonlyargs + args.args
    yield from positional[len(positional) - len(args.defaults):]
    yield from (arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None)


def settings(tree: ast.AST):
    """(line, owner.name) for each settable value in one module."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                label = f"{owner}.{name}" if owner else name
                for arg in _defaulted_params(child.args):
                    yield arg.lineno, f"{label}({arg.arg})"
                yield from walk(child, label)
            elif isinstance(child, ast.ClassDef):
                label = f"{owner}.{child.name}" if owner else child.name
                if _is_dataclass(child):
                    for stmt in child.body:
                        if (isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                                and isinstance(stmt.target, ast.Name)
                                and _field_is_settable(stmt.value)):
                            yield stmt.lineno, f"{label}.{stmt.target.id}"
                yield from walk(child, label)
            else:
                yield from walk(child, owner)

    yield from walk(tree, "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the fluidnet package "
                             "(default: this checkout's src)")
    args = parser.parse_args(argv)
    package = os.path.join(args.src, "fluidnet")
    rows = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as handle:
                tree = ast.parse(handle.read(), filename=name)
            rows.extend(f"{name}:{line}  {what}" for line, what in sorted(settings(tree)))
    print(len(rows))
    for row in rows:
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
