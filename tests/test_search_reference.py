"""Differential test of ``approximate_V`` against the two-branch search it replaced.

``reference_approximate_V`` is the best-path loop as it stood before the
search ran over ``family.paths_from``: an explicit family is enumerated
exactly, and a network family is searched from a hard-coded
``[MinDrain(), MaxDrain(), FirstVertex()]``, then the budget's prefix
selectors and random rollouts, with the first of equal values kept.
``approximate_V`` must return the same ``VEstimate``: the value's bytes, the
status, and the witness's ``grid``, ``levels``, ``allocation``, ``controls``
and ``drained_at``.  A search that skips duplicate runs must match the same
reference.
"""
import itertools
import warnings

import numpy as np
import pytest

from fluidnet import fixtures
from fluidnet._util import child_seeds, float_array, l1
from fluidnet.dynamics import (
    FirstVertex,
    FixedSequence,
    MaxDrain,
    MinDrain,
    RandomVertex,
    default_selectors,
    simulate,
)
from fluidnet.errors import TruncatedWarning
from fluidnet.gfn import ExplicitPathFamily, NetworkPathFamily, example_family, network_family
from fluidnet.lyapunov import (
    _BRANCH_BASE,
    SearchBudget,
    VEstimate,
    _PrefixSelector,
    approximate_V,
    v_functional,
)
from fluidnet.model import PRIORITY, WORK_CONSERVING, validate
from test_enumerate import random_network

HORIZON = 8.0
STEP = 0.05
BUDGETS = (SearchBudget(), SearchBudget(depth=1), SearchBudget(depth=2, multistarts=2))


def reference_approximate_V(family, x, budget=SearchBudget()):
    x = float_array("state", x)
    if isinstance(family, ExplicitPathFamily):
        paths = family.paths_from(x)
        values = [v_functional(p, 0.0) for p in paths]
        best = int(np.argmax(values))
        return VEstimate(float(values[best]), paths[best], "exact")

    selectors = [MinDrain(), MaxDrain(), FirstVertex()]
    for depth in range(1, budget.depth + 1):
        for prefix in itertools.product(range(_BRANCH_BASE), repeat=depth):
            selectors.append(_PrefixSelector(prefix))
    if budget.multistarts > 0:
        selectors.extend(RandomVertex(s) for s in child_seeds(budget.seed, budget.multistarts))

    best_value = -np.inf
    best_traj = None
    best_undrained = None
    best_undrained_value = -np.inf
    for sel in selectors:
        traj = simulate(family.spec, x, sel, family.horizon, family.h)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncatedWarning)
            value = v_functional(traj, 0.0)
        if traj.drained:
            if value > best_value:
                best_value, best_traj = value, traj
        elif value > best_undrained_value:
            best_undrained_value, best_undrained = value, traj
    if best_traj is not None:
        return VEstimate(best_value, best_traj, "lower_bound")
    final_masses = np.abs(best_undrained.levels).sum(axis=1)
    status = "diverged" if final_masses[-1] >= l1(x) else "not_drained"
    return VEstimate(best_undrained_value, best_undrained, status)


def outcome(family, x, budget, search):
    """The estimate's value bytes, status and witness bytes."""
    est = search(family, x, budget)
    traj = est.trajectory
    return (np.float64(est.value).tobytes(), est.status, traj.drained_at,
            *((a.shape, a.tobytes()) for a in (traj.grid, traj.levels, traj.allocation,
                                                traj.controls)))


def networks():
    nets = {**fixtures.stable_fixture_set(), "lu_kumar": fixtures.lu_kumar(),
            "overloaded_queue": fixtures.overloaded_queue()}
    for i in range(12):
        discipline = (WORK_CONSERVING, PRIORITY)[i % 2]
        nets[f"random{i}_{discipline}"] = random_network(np.random.default_rng(100 + i),
                                                        2 + i % 3, discipline)
    return nets


NETWORKS = networks()


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_network_search_matches_the_reference(name):
    spec = NETWORKS[name]
    family = network_family(spec, HORIZON, STEP)
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = rng.dirichlet(np.ones(spec.K)) * rng.uniform(0.5, 2.0)
        for budget in BUDGETS:
            want = outcome(family, x, budget, reference_approximate_V)
            assert outcome(family, x, budget, approximate_V) == want, (x.tolist(), budget)


@pytest.mark.parametrize("name", ["lsc_counterexample", "concat_counterexample"])
def test_explicit_family_matches_the_reference(name):
    family = example_family(name)
    for x in ([1.0, 1.0], [1.5, 0.5], [0.0, 0.0], [0.3, 2.0]):
        want = outcome(family, x, SearchBudget(), reference_approximate_V)
        assert outcome(family, x, SearchBudget(), approximate_V) == want, x


def test_a_family_selector_is_a_base_run_of_the_search():
    """From (1, 0) MinDrain and FirstVertex do not drain within the horizon, and
    FixedSequence([2, 1]) drains more slowly than MaxDrain: a family that holds
    that selector gets its run's value."""
    spec = validate([0.98, 0.52], [2.4, 2.5], [[0.5, 0.45], [0, 0]], [[0, 1], [1, 0]],
                    "priority", [1, 0])
    x = [1.0, 0.0]
    slow = simulate(spec, x, FixedSequence([2, 1]), HORIZON, STEP)
    default = approximate_V(network_family(spec, HORIZON, STEP), x)
    assert slow.drained and v_functional(slow, 0.0) > default.value

    family = NetworkPathFamily(spec, default_selectors() + (FixedSequence([2, 1]),), HORIZON,
                               STEP)
    est = approximate_V(family, x)
    assert est.status == "lower_bound"
    assert est.value == v_functional(slow, 0.0)
    assert np.array_equal(est.trajectory.levels, slow.levels)
