"""Viability polytopes cut from the closed-form product, against the enumerator.

``dynamics._viable_polytope`` starts from ``model.admissible_polytope`` and
adds one viability row (outflow @ u)_k <= alpha_k per near-zero class
(``model.cut_polytope``).  The differential test compares every proper
near-zero set of random and catalogue networks with
``enumerate_polytope_vertices`` on the same constraint system: the same
vertices under the 12-decimal key, in the same order, and values within
TOL.  The selectors index into that order, so both must agree.
"""
import itertools
import json
import os

import numpy as np
import pytest

from fluidnet.dynamics import MaxDrain, _viable_polytope, check_trajectory, simulate
from fluidnet.errors import InfeasibleActiveSet
from fluidnet.model import (
    PRIORITY,
    WORK_CONSERVING,
    NetworkSpec,
    admissible_constraints,
    cut_polytope,
    empty_rows,
    enumerate_polytope_vertices,
    validate,
)
from test_enumerate import random_network, viability_rows

TOL = 1e-14  # per coordinate; measured worst 2.1e-15

CATALOGUE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "scaled_catalogue.json")


def assert_matches_enumeration(spec):
    """Every proper near-zero set of ``spec``; returns how many were compared."""
    count = 0
    for size in range(spec.K):
        for zeros in itertools.combinations(range(spec.K), size):
            got = _viable_polytope(spec, zeros)
            rows = viability_rows(spec, empty_rows(spec, zeros), zeros, 0.0, pinned=False)
            want = enumerate_polytope_vertices(spec.K, *rows)
            assert np.round(got, 12).tolist() == np.round(want, 12).tolist(), zeros
            np.testing.assert_allclose(got, want, rtol=0.0, atol=TOL)
            count += 1
    return count


def random_networks():
    """200 networks, K = 2..6, the disciplines alternating."""
    rng = np.random.default_rng(7)
    for i in range(200):
        k = int(rng.integers(2, 7))
        yield random_network(rng, k, (WORK_CONSERVING, PRIORITY)[i % 2])


@pytest.mark.parametrize("block", range(4))
def test_cut_matches_enumeration_on_random_networks(block):
    specs = list(random_networks())[50 * block:50 * block + 50]
    assert sum(assert_matches_enumeration(spec) for spec in specs) > 0


@pytest.mark.parametrize("block", range(2))
def test_cut_matches_enumeration_on_catalogue_networks(block):
    with open(CATALOGUE) as handle:
        networks = json.load(handle)["networks"][60 * block:60 * block + 60]
    for e in networks:
        spec = validate(e["alpha"], e["mu"], e["routing"], e["constituency"],
                        e["discipline"], e["priority"])
        assert_matches_enumeration(spec)


def test_all_infeasible_cut_raises():
    # negative inflow bypasses validate: class 0 then cannot keep its level
    spec = NetworkSpec(np.array([-1.0]), np.array([1.0]), np.zeros((1, 1)), np.ones((1, 1)),
                       WORK_CONSERVING)
    with pytest.raises(InfeasibleActiveSet):
        _viable_polytope(spec, {0})
    a_ub, b_ub = admissible_constraints(spec, {0})[2:]
    assert cut_polytope(np.array([[0.0], [1.0]]), a_ub, b_ub, spec.outflow, spec.alpha).shape == (0, 1)


def reentrant_chain(k, j):
    """Class i at station i mod j routes to class i + 1; inflow 0.6 into class 0."""
    routing = np.eye(k, k, 1)
    constituency = np.zeros((j, k))
    constituency[np.arange(k) % j, np.arange(k)] = 1.0
    alpha = np.zeros(k)
    alpha[0] = 0.6
    return validate(alpha, np.full(k, 0.6 * (k / j) / 0.26), routing, constituency,
                    WORK_CONSERVING)


def test_reentrant_chain_k12_drains():
    spec = reentrant_chain(12, 4)
    x0 = np.ones(12) / 12
    traj = simulate(spec, x0, MaxDrain(), 1.0, 0.01)
    report = check_trajectory(spec, traj)
    assert traj.drained and report["ok"]
    assert report["flow_balance_residual"] <= 1e-7 * (1.0 + np.abs(x0).sum())
