"""Differential tests of the closed-form admissible polytope, the drift set and
the Lipschitz bound.

``admissible_polytope`` builds each polytope as a product of per-station
options, ``linear_certificate_search`` solves a compact LP over those options
and ``lipschitz_constant`` reads the bound off the same structure.  The
references here use the combinatorial enumerator instead:
``reference_polytope`` enumerates one configuration,
``reference_drift_vertices`` and ``reference_lipschitz`` loop over every
proper configuration.  The polytopes must agree byte for byte, the all-empty
polytope's vertices off the origin must give the same drift set, the
certificate must agree with an LP over the reference drift rows up to the
LPs' last bits, and the Lipschitz bound must agree.
"""
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

from fluidnet import dynamics, fixtures, model
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
    validate,
)
from test_enumerate import random_network


def reference_polytope(spec, empty):
    return enumerate_polytope_vertices(spec.K, *admissible_constraints(spec, empty))


def reference_drift_vertices(spec):
    seen = {}
    for empty in boundary_configurations(spec):
        verts = reference_polytope(spec, empty)
        velocities = verts @ (-spec.outflow.T) + spec.alpha
        for u, v in zip(verts, velocities):
            seen[tuple(np.round(v, 12))] = (u, v)
    controls = np.array([u for u, _ in seen.values()])
    drifts = np.array([v for _, v in seen.values()])
    return controls, drifts


def reference_lipschitz(spec):
    u_max = 0.0
    for empty in boundary_configurations(spec):
        verts = reference_polytope(spec, empty)
        if verts.shape[0]:
            u_max = max(u_max, float(np.abs(verts).sum(axis=1).max()))
    w_norm = float(np.abs(spec.outflow).sum(axis=0).max())
    return l1(spec.alpha) + w_norm * u_max


def reference_epsilon(drifts):
    """The certificate LP over the given drift rows; None when infeasible."""
    k = drifts.shape[1]
    c = np.zeros(k + 1)
    c[-1] = -1.0
    a_ub = np.hstack([drifts, np.ones((drifts.shape[0], 1))])
    bounds = [(1e-6, 1.0)] * k + [(1e-6, None)]
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(drifts.shape[0]), bounds=bounds, method="highs")
    return float(res.x[-1]) if res.success else None


def networks():
    """Random networks of both disciplines with K = 1..6, then the fixtures."""
    for discipline in (WORK_CONSERVING, PRIORITY):
        for k in range(1, 7):
            for draw in range(10):
                rng = np.random.default_rng([2011, k, draw, len(discipline)])
                yield f"{discipline}-K{k}-{draw}", random_network(rng, k, discipline)
    yield from {**fixtures.stable_fixture_set(), "lu_kumar": fixtures.lu_kumar()}.items()


NETWORKS = list(networks())
IDS = [name for name, _ in NETWORKS]


def drift_keys(drifts):
    return {tuple(np.round(v, 12)) for v in drifts}


def all_empty(spec):
    return frozenset(range(spec.capacity.shape[0]))


@pytest.mark.parametrize("name,spec", NETWORKS, ids=IDS)
def test_closed_form_polytope_matches_enumeration(name, spec):
    for empty in [*boundary_configurations(spec), all_empty(spec)]:
        got, want = admissible_polytope(spec, empty), reference_polytope(spec, empty)
        assert got.shape == want.shape, sorted(empty)
        assert got.tobytes() == want.tobytes(), sorted(empty)


@pytest.mark.parametrize("name,spec", NETWORKS, ids=IDS)
def test_same_drift_set_certificate_and_lipschitz(name, spec):
    _, want_drifts = reference_drift_vertices(spec)
    verts = admissible_polytope(spec, all_empty(spec))
    assert not verts[0].any()  # the origin sorts first
    assert drift_keys(verts[1:] @ (-spec.outflow.T) + spec.alpha) == drift_keys(want_drifts)

    got = linear_certificate_search(spec)
    want_epsilon = reference_epsilon(want_drifts)
    assert got.status == ("Unknown" if want_epsilon is None else "Verified")
    if want_epsilon is not None:
        assert abs(got.epsilon - want_epsilon) <= 1e-9 * (1.0 + abs(want_epsilon))
        assert (want_drifts @ np.asarray(got.data["h"])).max() <= -got.epsilon + 1e-9

    big_l, want_l = lipschitz_constant(spec), reference_lipschitz(spec)
    assert abs(big_l - want_l) <= 1e-12 * (1.0 + want_l)


def test_certificate_and_lipschitz_never_enumerate(monkeypatch):
    """Both read the closed-form polytope, so the enumerator is never called."""
    spec = random_network(np.random.default_rng(11), 5, PRIORITY)
    calls = []
    real = model.enumerate_polytope_vertices

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in (model, dynamics):  # today only model binds the enumerator
        monkeypatch.setattr(module, "enumerate_polytope_vertices", counting, raising=False)
    assert linear_certificate_search(spec).status in ("Verified", "Unknown")
    lipschitz_constant(spec)
    assert calls == []


def test_certificate_past_sixteen_capacity_rows():
    """One station serving 17 classes by priority: 17 capacity rows, 18 vertices."""
    k = 17
    spec = validate(np.full(k, 0.01), np.ones(k), np.zeros((k, k)), np.ones((1, k)),
                    PRIORITY, tuple(range(k)))
    cert = linear_certificate_search(spec)
    assert cert.status == "Verified"
    assert lipschitz_constant(spec) == pytest.approx(1.17, rel=1e-12)


def test_vertex_cap_refuses_before_building(monkeypatch):
    """17 single-class stations: 2^17 vertices, one past the cap."""
    k = 17
    spec = validate(np.full(k, 0.01), np.ones(k), np.zeros((k, k)), np.eye(k),
                    WORK_CONSERVING)
    built = []
    monkeypatch.setattr(model, "itertools", SimpleNamespace(product=lambda *a: built.append(a)))
    with pytest.raises(DimensionTooLarge, match="131072 admissible vertices"):
        admissible_polytope(spec, all_empty(spec))
    assert built == []
