"""Invalid input raises a specific ``FluidNetError``, never a bare ``ValueError``.

Each class raised below also derives from ``ValueError``, so code that catches
``ValueError`` around these calls keeps working.  The AST guard keeps new
``raise ValueError`` statements out of the package.
"""
import ast
import pathlib

import numpy as np
import pytest

from fluidnet import fixtures
from fluidnet.dynamics import FixedSequence, Trajectory
from fluidnet.errors import (
    BadCandidate,
    BadCount,
    DimensionMismatch,
    FluidNetError,
    NegativeState,
    NoSeeds,
    NotStable,
    ShiftBeyondHorizon,
)
from fluidnet.fluidlimit import concatenation_evidence
from fluidnet.gfn import example_family, lipschitz_estimate
from fluidnet.lyapunov import piecewise_linear_check
from fluidnet.stability import Verdict, scale_invariance_check

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fluidnet"


def undrained(stamps=2):
    """A one-class trajectory from 1 to 0 over [0, 1] that never counted as drained."""
    grid = np.linspace(0.0, 1.0, stamps)
    return Trajectory(grid, (1.0 - grid)[:, None], grid[:, None], np.ones((stamps - 1, 1)))


SITES = {
    "level_at past an undrained grid": (
        ShiftBeyondHorizon, lambda: undrained().level_at([2.0])),
    "empty FixedSequence": (BadCount, lambda: FixedSequence([])),
    "lipschitz_estimate on one stamp": (BadCount, lambda: lipschitz_estimate(undrained(1))),
    "negative explicit-family state": (
        NegativeState, lambda: example_family("lsc_counterexample").paths_from([1.0, -0.5])),
    "piecewise-linear candidate with a negative piece": (
        BadCandidate,
        lambda: piecewise_linear_check(fixtures.tandem(), [[1.0, -0.1], [0.5, 1.0]])),
    "piecewise-linear candidate vanishing on a coordinate": (
        BadCandidate,
        lambda: piecewise_linear_check(fixtures.tandem(), [[1.0, 0.0], [0.5, 0.0]])),
    "concatenation evidence without seeds": (
        NoSeeds,
        lambda: concatenation_evidence(fixtures.queueing_two_class_priority(),
                                       fixtures.two_class_priority(), [0.5, 0.5], 50, 2.0, [])),
    "scale invariance of an unstable verdict": (
        NotStable,
        lambda: scale_invariance_check(Verdict("unstable"), fixtures.overloaded_queue(), [2.0])),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_site_raises_its_class(site):
    cls, call = SITES[site]
    assert issubclass(cls, FluidNetError) and issubclass(cls, ValueError)
    with pytest.raises(cls):
        call()


def test_explicit_family_shape_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        example_family("lsc_counterexample").paths_from([1.0, 0.5, 0.0])


def bare_value_errors(tree):
    """Line of each ``raise ValueError`` or ``raise ValueError(...)``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                yield node.lineno


MODULES = sorted(p.name for p in SRC.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_no_bare_value_error(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert list(bare_value_errors(tree)) == []


def test_guard_sees_a_bare_value_error():
    tree = ast.parse("raise ValueError('x')\nraise ValueError\nraise TypeError('y')\n")
    assert list(bare_value_errors(tree)) == [1, 2]
