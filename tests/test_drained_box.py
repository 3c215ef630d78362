"""The drained polytope, and the stamps that skip enumeration.

Once every class is near zero and the empty state can be held, ``simulate``
caps every velocity at zero on top of the viability rows.  With the rows
v <= 0 and v >= 0 only outflow @ u = alpha is left, so the pinned polytope is
the nominal allocation.  The differential test compares it against exact
enumeration of the same constraint system (``test_enumerate.viability_rows``)
on random networks of both disciplines: one vertex, equal within TOL and
under the 12-decimal key.

The count guard checks that the runs on one spec build one polytope per set
of near-zero classes they meet between them, none for the drained set, and
never call the subset enumerator.  The polytopes live on the spec object, so
the guard builds a fresh spec from the fixture factory.
"""
import numpy as np
import pytest

from fluidnet import dynamics, fixtures, model
from fluidnet.dynamics import (
    FirstVertex,
    MaxDrain,
    MinDrain,
    _viable_polytope,
    simulate,
    zero_invariant,
)
from fluidnet.model import (
    PRIORITY,
    WORK_CONSERVING,
    empty_rows,
    empty_threshold,
    enumerate_polytope_vertices,
)
from test_enumerate import random_network, viability_rows

TOL = 1e-12  # per coordinate; the vertices are O(1) and one solve apart


@pytest.mark.parametrize("discipline", [WORK_CONSERVING, PRIORITY])
def test_pinned_polytope_matches_enumeration(discipline):
    rng = np.random.default_rng([20111990, 8, len(discipline)])
    tried = 0
    while tried < 60:
        k = int(rng.choice([1, 2, 3, 3, 4, 4, 5]))
        spec = random_network(rng, k, discipline)
        if not zero_invariant(spec):
            continue
        tried += 1
        zeros = list(range(k))
        got = _viable_polytope(spec, zeros, True)
        rows = viability_rows(spec, empty_rows(spec, zeros), zeros, np.zeros(k), pinned=True)
        want = enumerate_polytope_vertices(k, *rows)
        assert got.shape == want.shape == (1, k), (got, want)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=TOL)
        assert np.round(got, 12).tolist() == np.round(want, 12).tolist()


def near_zero_sets(traj, x0) -> set:
    """The near-zero pattern of each stamp, as the selector saw it."""
    return {tuple(row) for row in (traj.levels[:-1] < empty_threshold(x0)).tolist()}


#: the second selector run on the same spec
OTHER = {FirstVertex: MaxDrain, MaxDrain: MinDrain, MinDrain: MaxDrain}


@pytest.mark.parametrize("name,selector", [
    *((name, MaxDrain) for name in sorted(fixtures.stable_fixture_set())),
    ("reentrant_line", FirstVertex),
    ("reentrant_line", MinDrain),
    ("lu_kumar", MinDrain),
])
def test_one_enumeration_per_near_zero_set(monkeypatch, name, selector):
    spec = getattr(fixtures, name)()
    x0 = np.ones(spec.K) / spec.K
    calls = {"admissible_polytope": [], "enumerate_polytope_vertices": []}

    def recording(attr):
        real = getattr(model, attr)

        def wrapper(*args):
            calls[attr].append(args)
            return real(*args)

        return wrapper

    monkeypatch.setattr(dynamics, "admissible_polytope", recording("admissible_polytope"))
    enumerator = recording("enumerate_polytope_vertices")
    for module in (model, dynamics):  # today only model binds the enumerator
        monkeypatch.setattr(module, "enumerate_polytope_vertices", enumerator, raising=False)
    traj, other = (simulate(spec, x0, make(), 8.0, 0.02, stop_on_drain=False)
                   for make in (selector, OTHER[selector]))
    met = near_zero_sets(traj, x0) | near_zero_sets(other, x0)
    assert len(calls["admissible_polytope"]) == len(met - {(True,) * spec.K})
    assert set(spec.polytopes) == {frozenset(np.flatnonzero(row).tolist()) for row in met}
    assert calls["enumerate_polytope_vertices"] == []
    if name != "lu_kumar":  # lu_kumar does not drain under MinDrain
        assert traj.drained and zero_invariant(spec)
        near = traj.levels[:-1] < empty_threshold(x0)
        assert near.all(axis=1).sum() > 50  # drained stamps, no polytope built
