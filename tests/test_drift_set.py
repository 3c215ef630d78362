"""Differential test of the maximal-configuration drift set and Lipschitz bound.

``linear_certificate_search`` and ``lipschitz_constant`` enumerate only the n
maximal boundary configurations, whose vertices are those of all 2^n - 1
proper ones.  ``reference_drift_vertices`` and ``reference_lipschitz`` are
the loops over every proper configuration that they replace; the drift rows
must be the same set, the certificate must agree up to the LP's last bits
(its rows come in another order), and the Lipschitz bound must agree.
"""
import numpy as np
import pytest

from fluidnet import fixtures, lyapunov, model
from fluidnet._util import l1
from fluidnet.dynamics import lipschitz_constant
from fluidnet.errors import DimensionTooLarge
from fluidnet.lyapunov import linear_certificate_search
from fluidnet.model import (
    PRIORITY,
    WORK_CONSERVING,
    admissible_constraints,
    admissible_polytope,
    boundary_configurations,
    enumerate_polytope_vertices,
    maximal_configurations,
    validate,
)
from test_enumerate import random_network


def reference_drift_vertices(spec):
    seen = {}
    for empty in boundary_configurations(spec):
        verts = admissible_polytope(spec, empty)
        velocities = verts @ (-spec.outflow.T) + spec.alpha
        for u, v in zip(verts, velocities):
            seen[tuple(np.round(v, 12))] = (u, v)
    controls = np.array([u for u, _ in seen.values()])
    drifts = np.array([v for _, v in seen.values()])
    return controls, drifts


def reference_lipschitz(spec):
    u_max = 0.0
    for empty in boundary_configurations(spec):
        verts = enumerate_polytope_vertices(spec.K, *admissible_constraints(spec, empty))
        if verts.shape[0]:
            u_max = max(u_max, float(np.abs(verts).sum(axis=1).max()))
    w_norm = float(np.abs(spec.outflow).sum(axis=0).max())
    return l1(spec.alpha) + w_norm * u_max


def networks():
    """Random networks of both disciplines with K = 1..6, then the fixtures."""
    for discipline in (WORK_CONSERVING, PRIORITY):
        for k in range(1, 7):
            for draw in range(10):
                rng = np.random.default_rng([2011, k, draw, len(discipline)])
                yield f"{discipline}-K{k}-{draw}", random_network(rng, k, discipline)
    yield from {**fixtures.stable_fixture_set(), "lu_kumar": fixtures.lu_kumar()}.items()


NETWORKS = list(networks())


def drift_keys(drifts):
    return {tuple(np.round(v, 12)) for v in drifts}


@pytest.mark.parametrize("name,spec", NETWORKS, ids=[name for name, _ in NETWORKS])
def test_same_drift_set_certificate_and_lipschitz(name, spec, monkeypatch):
    _, drifts = lyapunov._drift_vertices(spec)
    _, want_drifts = reference_drift_vertices(spec)
    assert drift_keys(drifts) == drift_keys(want_drifts)

    got = linear_certificate_search(spec)
    monkeypatch.setattr(lyapunov, "_drift_vertices", reference_drift_vertices)
    want = linear_certificate_search(spec)
    assert got.status == want.status
    assert got.meta["drift_rows"] == want.meta["drift_rows"]
    assert abs(got.epsilon - want.epsilon) <= 1e-9 * (1.0 + abs(want.epsilon))

    big_l, want_l = lipschitz_constant(spec), reference_lipschitz(spec)
    assert abs(big_l - want_l) <= 1e-12 * (1.0 + want_l)


def test_maximal_configurations_are_the_n_largest_proper_sets():
    spec = random_network(np.random.default_rng(3), 4, PRIORITY)
    assert list(maximal_configurations(spec)) == [
        frozenset(c) for c in ([0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3])
    ]
    assert list(maximal_configurations(fixtures.single_queue())) == [frozenset()]
    wide = validate(np.full(17, 0.01), np.ones(17), np.zeros((17, 17)), np.eye(17),
                    WORK_CONSERVING)
    with pytest.raises(DimensionTooLarge):
        list(maximal_configurations(wide))


def test_certificate_enumerates_once_per_maximal_configuration(monkeypatch):
    """A K=5 priority network has 5 maximal configurations and 31 proper ones."""
    spec = random_network(np.random.default_rng(11), 5, PRIORITY)
    calls = []
    real = model.enumerate_polytope_vertices

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(model, "enumerate_polytope_vertices", counting)
    linear_certificate_search(spec)
    assert len(calls) == 5
