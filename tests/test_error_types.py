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
from fluidnet._util import child_seeds, count_array, float_array
from fluidnet.dynamics import (
    FirstVertex,
    FixedSequence,
    MaxDrain,
    RandomVertex,
    Trajectory,
    complementarity_residual,
    flow_balance_residual,
    idle,
    rhs,
    simulate,
)
from fluidnet.errors import (
    BadCandidate,
    BadCount,
    BadFactor,
    BadPermutation,
    BadPushBound,
    BadSeed,
    DimensionMismatch,
    EventBudgetExceeded,
    FluidNetError,
    NegativeState,
    NonFiniteInput,
    NoSeeds,
    NotStable,
    ShiftBeyondHorizon,
    StepTooLarge,
)
from fluidnet.fluidlimit import concatenation_evidence, fluid_limit_compare, simulate_queueing
from fluidnet.gfn import (
    axiom_report, concatenate, example_family, lipschitz_estimate, scale, shift, uoc_distance,
)
from fluidnet.lyapunov import (
    SearchBudget, approximate_V, check_decrease, piecewise_linear_check, quadratic_check,
    v_functional,
)
from fluidnet.model import PRIORITY, admissible_constraints, validate
from fluidnet.skorokhod import LspInstance, is_completely_s, is_s_matrix
from fluidnet.stability import (
    STABLE, Verdict, draining_time, scale_invariance_check, unit_sphere_states,
)

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
    "scale invariance without scales": (
        BadCount, lambda: scale_invariance_check(Verdict(STABLE, 1.0), fixtures.tandem(), [])),
    "draining time without selectors": (
        BadCount, lambda: draining_time(fixtures.tandem(), selectors=(), samples=0)),
    "negative RandomVertex seed": (BadSeed, lambda: RandomVertex(-1)),
    "v_functional at a text time": (NonFiniteInput, lambda: v_functional(tandem_path(), "a")),
    "scale at a text factor": (NonFiniteInput, lambda: scale(tandem_path(), "a")),
    "simulate at a text horizon": (
        NonFiniteInput, lambda: simulate(fixtures.tandem(), [1, 0], MaxDrain(), "a", 0.1)),
    "simulate at a text step": (
        NonFiniteInput, lambda: simulate(fixtures.tandem(), [1, 0], MaxDrain(), 1.0, "x")),
    "level_at a negative time": (ShiftBeyondHorizon, lambda: tandem_path().level_at(-1.0)),
    "v_functional from a negative time": (
        ShiftBeyondHorizon, lambda: v_functional(tandem_path(), -1.0)),
    "count_at a text time": (NonFiniteInput, lambda: queue_path().count_at("a")),
    **{
        f"count_at time {bad!r}": (ShiftBeyondHorizon, lambda bad=bad: queue_path().count_at(bad))
        for bad in (-1.0, float("nan"), [0.5, -1.0])
    },
    **{
        f"LspInstance push bound {bad!r}": (
            BadPushBound, lambda bad=bad: LspInstance([-1.0], [[1.0]], [1.0], push_bound=bad))
        for bad in (float("inf"), np.float64("inf"))
    },
    **{
        f"scale invariance at scale {r}": (
            BadFactor,
            lambda r=r: scale_invariance_check(Verdict(STABLE, 1.0), fixtures.tandem(), [2.0, r]))
        for r in (0.0, -1.0, float("nan"))
    },
    **{
        f"check_decrease max_stamps {n!r}": (
            BadCount,
            lambda n=n: check_decrease(lambda q: float(q.sum()), undrained(5), lambda m: 0.0,
                                       max_stamps=n))
        for n in (-1, 0, 1, 1.5, float("nan"), True)
    },
    **{
        f"piecewise-linear candidate with entry {bad!r}": (
            NonFiniteInput,
            lambda bad=bad: piecewise_linear_check(fixtures.tandem(), [[1.0, 0.5], [bad, 1.0]]))
        for bad in (float("nan"), float("inf"))
    },
    **{
        f"quadratic candidate with entry {bad!r}": (
            NonFiniteInput,
            lambda bad=bad: quadratic_check(fixtures.tandem(), [[1.0, 0.0], [bad, 1.0]]))
        for bad in (float("nan"), float("inf"))
    },
    **{
        f"simulate_queueing count {bad!r}": (
            cls,
            lambda bad=bad: simulate_queueing(fixtures.queueing_two_class_priority(), [bad, 2],
                                              1.0, 1))
        for bad, cls in ((1.5, BadCount), (1e30, BadCount), (2**63, BadCount),
                         (float("nan"), NonFiniteInput), (float("inf"), NonFiniteInput))
    },
    **{
        f"{test.__name__} with entry {bad!r}": (
            NonFiniteInput, lambda test=test, bad=bad: test([[1.0, 0.0], [bad, 1.0]]))
        for test in (is_s_matrix, is_completely_s)
        for bad in (float("nan"), float("inf"))
    },
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_site_raises_its_class(site):
    cls, call = SITES[site]
    assert issubclass(cls, FluidNetError) and issubclass(cls, ValueError)
    with pytest.raises(cls):
        call()


def one_station_priority(ranks):
    k = len(ranks)
    return validate(np.full(k, 0.1), np.ones(k), np.zeros((k, k)), np.ones((1, k)), PRIORITY,
                    ranks)


def run_tandem(max_events):
    return simulate(fixtures.tandem(), [1.0, 0.0], FirstVertex(), 1.0, 0.1, max_events=max_events)


def queue_path():
    return simulate_queueing(fixtures.queueing_two_class_priority(), [3, 2], 5.0, 1)


def test_count_at_holds_the_last_counts_past_the_path():
    """No upper bound: a scaled path ends at (r horizon) / r, which can fall an
    ulp short of the horizon at which its counts are read."""
    path = queue_path()
    assert np.array_equal(path.count_at(path.times[-1] + 1.0), path.counts[-1])


def run_queue(max_events):
    return simulate_queueing(fixtures.queueing_two_class_priority(), [3, 2], 5.0, 1,
                             max_events=max_events)


COUNT_SITES = {
    "unit_sphere_states samples": lambda n: unit_sphere_states(2, n, 1),
    "axiom_report n_ops": lambda n: axiom_report(fixtures.tandem(), n_ops=n, horizon=1.0, h=0.1),
    "child_seeds count": lambda n: child_seeds(1, n),
    "simulate max_events": run_tandem,
    "simulate_queueing max_events": run_queue,
}


@pytest.mark.parametrize("value", [float("nan"), 2.5, float("inf"), 2.0, True])
@pytest.mark.parametrize("site", sorted(COUNT_SITES))
def test_a_count_that_is_no_integer_is_a_bad_count(site, value):
    with pytest.raises(BadCount, match="must be an integer"):
        COUNT_SITES[site](value)


# each site gets one value where an integer belongs: cast with int(), 2.0 would
# pass at every site and True at every site but the priority ranks (lu_kumar
# has four capacity rows)
INTEGER_SITES = {
    "priority rank": (BadPermutation, lambda v: one_station_priority([v, 0, 1])),
    "FixedSequence index": (BadCount, lambda v: FixedSequence([1, v])),
    "RandomVertex seed": (BadSeed, RandomVertex),
    "SearchBudget seed": (BadSeed, lambda v: SearchBudget(seed=v)),
    "unit_sphere_states seed": (BadSeed, lambda v: unit_sphere_states(2, 1, v)),
    "fluid_limit_compare seed": (
        BadSeed,
        lambda v: fluid_limit_compare(fixtures.queueing_two_class_priority(),
                                      fixtures.two_class_priority(), [0.5, 0.5], [10.0], 2.0,
                                      [v])),
    "concatenation_evidence seed": (
        BadSeed,
        lambda v: concatenation_evidence(fixtures.queueing_two_class_priority(),
                                         fixtures.two_class_priority(), [0.5, 0.5], 10.0, 2.0,
                                         [v])),
    "admissible_constraints row": (
        DimensionMismatch, lambda v: admissible_constraints(fixtures.lu_kumar(), [v])),
}


@pytest.mark.parametrize("value", [float("nan"), 1.5, 2.0, True])
@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_a_value_that_is_no_integer_is_refused(site, value):
    cls, call = INTEGER_SITES[site]
    with pytest.raises(cls):
        call(value)


def test_integer_sites_accept_numpy_integers():
    spec = one_station_priority(np.array([2, 0, 1]))
    assert spec.priority == (2, 0, 1) and all(type(rank) is int for rank in spec.priority)
    assert FixedSequence(np.array([1, 0])).indices == [1, 0]
    assert RandomVertex(np.int64(3)).name == RandomVertex(3).name
    assert SearchBudget(seed=np.int64(3)).seed == 3
    assert np.array_equal(unit_sphere_states(2, 1, np.int64(3)), unit_sphere_states(2, 1, 3))
    lu = fixtures.lu_kumar()
    want = admissible_constraints(lu, [2])
    for got, part in zip(admissible_constraints(lu, np.array([2])), want):
        assert np.array_equal(got, part)


@pytest.mark.parametrize("run", [run_tandem, run_queue])
def test_a_negative_event_budget_is_a_bad_count(run):
    with pytest.raises(BadCount, match="max_events must be nonnegative, got -1"):
        run(-1)


def test_counts_accept_numpy_integers_and_a_zero_budget_keeps_its_meaning():
    assert child_seeds(1, np.int64(2)) == child_seeds(1, 2)
    assert unit_sphere_states(2, np.int32(3), 1).shape == (5, 2)
    assert run_tandem(np.int64(100)).grid.shape == run_tandem(100).grid.shape
    with pytest.raises(StepTooLarge, match="more than 0 sub-steps"):
        run_tandem(0)
    with pytest.raises(EventBudgetExceeded, match="exceeded 0 events"):
        run_queue(0)


def test_explicit_family_shape_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        example_family("lsc_counterexample").paths_from([1.0, 0.5, 0.0])


def tandem_path():
    return simulate(fixtures.tandem(), [1.0, 0.0], MaxDrain(), 2.0, 0.1)


def reentrant_path():
    spec = fixtures.reentrant_line()
    return spec, simulate(spec, [0.5, 0.2, 0.3], MaxDrain(), 2.0, 0.1)


MISMATCH_SITES = {
    "concatenate": lambda: concatenate(tandem_path(), 0.0, reentrant_path()[1]),
    "uoc_distance": lambda: uoc_distance(tandem_path(), reentrant_path()[1], 1.0),
    "complementarity_residual": lambda: complementarity_residual(fixtures.tandem(),
                                                                 reentrant_path()[1]),
    "idle": lambda: idle(fixtures.tandem(), reentrant_path()[1]),
    "flow_balance_residual": lambda: flow_balance_residual(reentrant_path()[0], tandem_path()),
    "piecewise-linear pieces of 2K entries": (
        lambda: piecewise_linear_check(fixtures.tandem(), [[1.0, 2.0, 3.0, 4.0]])),
    "piecewise-linear piece of 3 entries": (
        lambda: piecewise_linear_check(fixtures.tandem(), [[1.0, 2.0, 3.0]])),
    "piecewise-linear candidate without pieces": (
        lambda: piecewise_linear_check(fixtures.tandem(), np.zeros((0, 2)))),
    "quadratic candidate of 3 x 3": lambda: quadratic_check(fixtures.tandem(), np.eye(3)),
    "flat quadratic candidate": lambda: quadratic_check(fixtures.tandem(), [1.0, 0.0, 0.0, 1.0]),
    "v_functional at a vector time": lambda: v_functional(tandem_path(), [0.5, 1.0]),
    "scale factor of two entries": lambda: scale(tandem_path(), [1.0, 2.0]),
    "simulate horizon of one entry": (
        lambda: simulate(fixtures.tandem(), [1, 0], MaxDrain(), [1.0], 0.1)),
    "simulate horizon of two entries": (
        lambda: simulate(fixtures.tandem(), [1, 0], MaxDrain(), np.ones(2), 0.1)),
    "simulate step of one entry": (
        lambda: simulate(fixtures.tandem(), [1, 0], MaxDrain(), 1.0, np.array([0.1]))),
}


@pytest.mark.parametrize("site", sorted(MISMATCH_SITES))
def test_a_shape_that_does_not_fit_the_classes_is_a_dimension_mismatch(site):
    with pytest.raises(DimensionMismatch):
        MISMATCH_SITES[site]()


@pytest.mark.parametrize("matrix", [[[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [],
                                    [1.0, 2.0]])
@pytest.mark.parametrize("test", [is_s_matrix, is_completely_s])
def test_an_s_matrix_test_of_a_matrix_that_is_not_square_is_a_dimension_mismatch(test, matrix):
    with pytest.raises(DimensionMismatch, match="square matrix"):
        test(matrix)


# each entry point gets a value with one malformed entry: a ragged row
# (DimensionMismatch) or text (NonFiniteInput), where numpy's own conversion
# raises a bare ValueError
MALFORMED_SITES = {
    "validate alpha": lambda v: validate(v, [1.0, 1.0], np.zeros((2, 2)), [[1, 1]],
                                         "work_conserving"),
    "simulate x0": lambda v: simulate(fixtures.tandem(), v, FirstVertex(), 1.0, 0.1),
    "rhs control": lambda v: rhs(fixtures.tandem(), v),
    "LspInstance theta": lambda v: LspInstance(v, np.eye(2), [0.0, 0.0]),
    "LspInstance reflection": lambda v: LspInstance([-1.0, 0.0], [v, [0.0, 1.0]], [0.0, 0.0]),
    "is_s_matrix": lambda v: is_s_matrix([v, [0.0, 1.0]]),
    "is_completely_s": lambda v: is_completely_s([v, [0.0, 1.0]]),
    "piecewise_linear_check": lambda v: piecewise_linear_check(fixtures.tandem(), [v]),
    "quadratic_check": lambda v: quadratic_check(fixtures.tandem(), [v, [0.0, 1.0]]),
    "approximate_V state": lambda v: approximate_V(example_family("lsc_counterexample"), v),
    "explicit-family state": lambda v: example_family("lsc_counterexample").paths_from(v),
    "fluid_limit_compare direction": (
        lambda v: fluid_limit_compare(fixtures.queueing_two_class_priority(),
                                      fixtures.two_class_priority(), v, [10.0], 2.0, [1])),
    "concatenation_evidence direction": (
        lambda v: concatenation_evidence(fixtures.queueing_two_class_priority(),
                                         fixtures.two_class_priority(), v, 10.0, 2.0, [1])),
    "simulate_queueing counts": (
        lambda v: simulate_queueing(fixtures.queueing_two_class_priority(), v, 1.0, 1)),
    "Trajectory levels": lambda v: Trajectory([0.0, 1.0], [v, [0.0, 0.0]], np.zeros((2, 2)),
                                              np.zeros((1, 2))),
    "level_at time": lambda v: tandem_path().level_at(v),
    "v_functional time": lambda v: v_functional(tandem_path(), v),
    "shift time": lambda v: shift(tandem_path(), v),
    "concatenate cut time": lambda v: concatenate(tandem_path(), v, tandem_path()),
    "scale factor": lambda v: scale(tandem_path(), v),
    "simulate horizon": lambda v: simulate(fixtures.tandem(), [1, 0], MaxDrain(), v, 0.1),
    "simulate step": lambda v: simulate(fixtures.tandem(), [1, 0], MaxDrain(), 1.0, v),
    "count_at time": lambda v: queue_path().count_at(v),
}


@pytest.mark.parametrize("value, cls", [([1.0, [2.0]], DimensionMismatch),
                                        (["a", 1.0], NonFiniteInput)], ids=["ragged", "text"])
@pytest.mark.parametrize("site", sorted(MALFORMED_SITES))
def test_ragged_or_text_input_raises_its_class(site, value, cls):
    with pytest.raises(cls):
        MALFORMED_SITES[site](value)


@pytest.mark.parametrize("value, cls", [
    ([np.ones(2), np.ones(3)], DimensionMismatch),
    ([[1.0], [[2.0]]], DimensionMismatch),
    ([[1.0, "a"], [2.0]], DimensionMismatch),  # ragged first
    ("a", NonFiniteInput),
    ([{}], NonFiniteInput),
    ([1j], NonFiniteInput),
])
def test_float_array_tells_ragged_from_text(value, cls):
    with pytest.raises(cls):
        float_array("x", value)


def test_count_array_keeps_every_digit_of_a_whole_number():
    assert count_array("q", [2**53 + 1, 0]).tolist() == [2**53 + 1, 0]
    assert count_array("q", np.array([2**63 - 1, 0], dtype=np.int64)).tolist() == [2**63 - 1, 0]
    assert count_array("q", np.array([5.0, 5.0])).tolist() == [5, 5]


def test_float_array_keeps_what_numpy_converts():
    assert float_array("x", [["1.5", 2]]).tolist() == [[1.5, 2.0]]
    assert np.isnan(float_array("x", [None])).all()  # NaN, left to the finiteness checks


@pytest.mark.parametrize("bound", ["x", [1.0, 2.0]])
def test_a_push_bound_that_is_no_number_is_a_bad_push_bound(bound):
    with pytest.raises(BadPushBound, match="must be a positive number"):
        LspInstance([-1.0], [[1.0]], [0.0], bound)


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
