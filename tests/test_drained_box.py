"""The drained polytope from the floor box, and the stamps that skip enumeration.

A pinned ``_ViableSystem`` (every class near zero, the empty state holdable)
builds its vertices as u = outflow^-1 (alpha + c) over the corners c of the
box [0, f] of floors, where a slack guard allows.  The differential tests
compare that against exact enumeration of the same constraint system
(``test_enumerate.viability_rows``) on random networks of both disciplines
and on the fixtures, with floors that are exact zeros, dust and step-sized:
the vertex sets must agree within TOL, a tolerance fixed before the box was
written, and in the same order under the 12-decimal key.

The count guards check that the two rules skip the work they are for: a dust
stamp makes no ``subset_vertices`` call, and a pinned system whose box guard
holds makes no ``rank_tested_subsets`` call.
"""
import numpy as np
import pytest

from fluidnet import dynamics, fixtures
from fluidnet.dynamics import (
    FirstVertex,
    MaxDrain,
    MinDrain,
    _ViableSystem,
    dust_threshold,
    simulate,
    zero_invariant,
)
from fluidnet.model import (
    PRIORITY,
    WORK_CONSERVING,
    empty_rows,
    empty_threshold,
    enumerate_polytope_vertices,
    validate,
)
from test_enumerate import random_floors, random_network, viability_rows

TOL = 1e-12  # per coordinate; the vertices are O(1) and one solve apart

FIXTURES = {**fixtures.stable_fixture_set(), "lu_kumar": fixtures.lu_kumar()}


def pinned_system(spec):
    zeros = range(spec.K)
    return _ViableSystem(spec, empty_rows(spec, zeros), zeros, pinned=True)


def enumerated(spec, floors):
    zeros = list(range(spec.K))
    rows = viability_rows(spec, empty_rows(spec, zeros), zeros, floors, pinned=True)
    return enumerate_polytope_vertices(spec.K, *rows)


def compare(spec, floors) -> bool:
    """Assert box == enumeration where the guard holds; True if it held."""
    box = pinned_system(spec)._box_vertices(np.asarray(floors, dtype=float))
    if box is None:
        return False
    want = enumerated(spec, floors)
    assert box.shape == want.shape, (box, want)
    np.testing.assert_allclose(box, want, rtol=0.0, atol=TOL)
    assert np.round(box, 12).tolist() == np.round(want, 12).tolist()
    return True


def floor_draws(rng, k):
    """Exact zeros, dust only, step-sized only, and a random mix whose floors
    of up to 2 may well break the guard."""
    return [
        np.zeros(k),
        rng.uniform(0.0, 1e-17, k),
        rng.uniform(0.0, 1e-6, k),
        rng.uniform(0.0, 0.05, k),
        random_floors(rng, k),
    ]


@pytest.mark.parametrize("discipline", [WORK_CONSERVING, PRIORITY])
def test_box_matches_enumeration_on_random_networks(discipline):
    rng = np.random.default_rng([20111990, 8, len(discipline)])
    held = tried = 0
    while tried < 60:
        k = int(rng.choice([1, 2, 3, 3, 4, 4, 5]))
        spec = random_network(rng, k, discipline)
        if not zero_invariant(spec):
            continue
        for floors in floor_draws(rng, k):
            tried += 1
            held += compare(spec, floors)
    assert held >= tried // 2, (held, tried)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_box_matches_enumeration_on_fixtures(name):
    spec = FIXTURES[name]
    if not zero_invariant(spec):
        pytest.skip("the empty state cannot be held, so nothing is pinned")
    rng = np.random.default_rng([20111990, 8, spec.K])
    held = [compare(spec, floors) for floors in floor_draws(rng, spec.K)]
    assert all(held[:4]), held


def test_guard_falls_back_to_enumeration():
    """A class with no inflow has a zero nominal allocation, so u >= 0 is tight."""
    spec = validate([1.0, 0.0], [2.0, 3.0], [[0.0, 0.0], [0.0, 0.0]],
                    [[1.0, 1.0]], WORK_CONSERVING)
    system = pinned_system(spec)
    for floors in ([0.0, 0.0], [0.01, 0.0], [0.0, 0.01], [0.02, 0.01]):
        assert system._box_vertices(np.asarray(floors)) is None
        got = system.polytope(floors)
        assert got.tobytes() == enumerated(spec, floors).tobytes()


def spy(monkeypatch, name):
    """Record the arguments of every call of ``dynamics.<name>``."""
    real = getattr(dynamics, name)
    calls = []

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dynamics, name, recording)
    return calls


@pytest.mark.parametrize("name,selector", [
    ("reentrant_line", FirstVertex),
    ("reentrant_line", MinDrain),
    ("two_station_work_conserving", MaxDrain),
    ("lu_kumar", MinDrain),
])
def test_no_subset_vertices_call_on_a_dust_stamp(monkeypatch, name, selector):
    spec = FIXTURES[name]
    x0 = np.ones(spec.K) / spec.K
    calls = spy(monkeypatch, "subset_vertices")
    traj = simulate(spec, x0, selector(), 8.0, 0.02, stop_on_drain=False)
    levels = traj.levels[:-1]  # the states the selector saw
    near = levels < empty_threshold(x0)
    step_sized = (near & (levels >= dust_threshold(x0))).any(axis=1)
    dust = (near & (levels > 0.0)).any(axis=1) & ~step_sized
    zero_sets = {tuple(row) for row in near}
    assert dust.sum() > 50
    # each zero set enumerates its all-zero floors at most once; beyond that
    # only stamps with a step-sized floor may solve
    assert len(calls) <= step_sized.sum() + len(zero_sets)


@pytest.mark.parametrize("name", sorted(fixtures.stable_fixture_set()))
def test_no_rank_test_for_a_pinned_system_whose_box_holds(monkeypatch, name):
    spec = FIXTURES[name]
    x0 = np.ones(spec.K) / spec.K
    calls = spy(monkeypatch, "rank_tested_subsets")
    traj = simulate(spec, x0, MaxDrain(), 8.0, 0.02, stop_on_drain=False)
    assert traj.drained
    assert (traj.levels < empty_threshold(x0)).all(axis=1).sum() > 50
    assert pinned_system(spec)._box_vertices(np.zeros(spec.K)) is not None
    # a pinned system's inequality rows: u >= 0, every capacity row, then the
    # viability and the pinned rows of all K classes
    pinned_rows = 3 * spec.K + spec.capacity.shape[0]
    assert not [a_ub for _, a_ub in calls if a_ub.shape[0] == pinned_rows]
