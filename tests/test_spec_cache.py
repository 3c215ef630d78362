"""The viable polytopes ``simulate`` keeps on the spec, shared by every run.

An entry depends only on the spec and the set of near-zero classes, so a run
on a spec whose cache other runs filled, in any order, must give the same
bytes as the same run on a fresh spec.  A repeated run builds nothing, two
equal specs keep their own caches, the shared arrays are read-only, the
cached drift is the rounded total velocity of each vertex, only picked
vertices get a cached control and velocity, bit-equal to the vertex and its
velocity, and the analyses that make many runs on one spec build one
polytope per set.  Two runs on one fixture build one polytope per near-zero
set they meet, call no subset enumerator and, when the empty state can be
held, never build the all-zero set: a run that reaches it has drained and
ends there.
"""
import dataclasses

import numpy as np
import pytest

from fluidnet import dynamics, fixtures, model
from fluidnet.dynamics import (
    ControlSelector,
    FirstVertex,
    FixedSequence,
    MaxDrain,
    MinDrain,
    RandomVertex,
    simulate,
    zero_invariant,
)
from fluidnet.errors import StepTooLarge
from fluidnet.gfn import axiom_report
from fluidnet.model import PRIORITY, WORK_CONSERVING, empty_threshold
from fluidnet.stability import draining_time
from test_enumerate import random_network

SELECTORS = (MaxDrain, MinDrain, FirstVertex, lambda: RandomVertex(7),
             lambda: FixedSequence([1, 0, 2, 1]))


def fresh(spec):
    """A spec with the same data as ``spec`` and an empty cache."""
    return dataclasses.replace(spec)


def outcome(spec, x0, make):
    """The run's bytes, or StepTooLarge when it chatters past its budget."""
    try:
        traj = simulate(spec, x0, make(), 2.0, 0.1, max_events=5000)
    except StepTooLarge:
        return "StepTooLarge"
    return (traj.grid.tobytes(), traj.levels.tobytes(), traj.allocation.tobytes(),
            traj.controls.tobytes(), traj.drained_at)


def count_builds(monkeypatch) -> list:
    """The arguments of each ``_viable_polytope`` call ``simulate`` makes."""
    built = []
    real = dynamics._viable_polytope

    def recording(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(dynamics, "_viable_polytope", recording)
    return built


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
    built = count_builds(monkeypatch)
    enumerated = []
    real = model.enumerate_polytope_vertices

    def enumerator(*args):
        enumerated.append(args)
        return real(*args)

    for module in (model, dynamics):  # today only model binds the enumerator
        monkeypatch.setattr(module, "enumerate_polytope_vertices", enumerator, raising=False)
    traj, other = (simulate(spec, x0, make(), 8.0, 0.02) for make in (selector, OTHER[selector]))
    met = near_zero_sets(traj, x0) | near_zero_sets(other, x0)
    assert len(built) == len(met)
    assert set(spec.polytopes) == {frozenset(np.flatnonzero(row).tolist()) for row in met}
    assert enumerated == []
    assert zero_invariant(spec)
    assert frozenset(range(spec.K)) not in spec.polytopes
    if name != "lu_kumar":  # lu_kumar does not drain under MinDrain
        assert traj.drained and traj.grid[-1] == traj.drained_at


@pytest.mark.parametrize("discipline", [WORK_CONSERVING, PRIORITY])
def test_runs_on_a_shared_spec_equal_runs_on_a_fresh_one(discipline):
    rng = np.random.default_rng([20111990, 20, len(discipline)])
    for _ in range(6):
        k = int(rng.integers(2, 5))
        spec = random_network(rng, k, discipline)
        x0 = rng.dirichlet(np.ones(k)) * (rng.uniform(size=k) < 0.7)
        for order in (SELECTORS, SELECTORS[::-1]):
            shared = fresh(spec)
            for make in order:
                assert outcome(shared, x0, make) == outcome(fresh(spec), x0, make)
            assert shared.polytopes or not x0.any()  # a drained start stops before any build


def test_a_repeated_run_builds_nothing(monkeypatch):
    spec = fixtures.reentrant_line()
    x0 = np.ones(spec.K) / spec.K
    first = [outcome(spec, x0, make) for make in SELECTORS]
    built = count_builds(monkeypatch)
    assert [outcome(spec, x0, make) for make in SELECTORS] == first
    assert built == []


def test_equal_specs_do_not_share_a_cache(monkeypatch):
    spec, twin = fixtures.reentrant_line(), fixtures.reentrant_line()
    x0 = np.ones(spec.K) / spec.K
    want = outcome(spec, x0, MinDrain)
    built = count_builds(monkeypatch)
    assert outcome(twin, x0, MinDrain) == want
    assert len(built) == len(twin.polytopes) == len(spec.polytopes) > 1
    assert all(args[0] is twin for args in built)
    assert twin.polytopes is not spec.polytopes


class Scribbler(ControlSelector):
    """Writes into one of the arrays ``simulate`` hands every run on the spec."""

    def __init__(self, target):
        self.target = target

    def choose(self, t, q, vertices, drift):
        {"vertices": vertices, "drift": drift}[self.target].flat[0] = 1.0
        return 0


@pytest.mark.parametrize("target", ["vertices", "drift"])
def test_a_selector_cannot_write_into_the_shared_arrays(target):
    spec = fixtures.tandem()
    with pytest.raises(ValueError, match="read-only"):
        simulate(spec, [1.0, 0.0], Scribbler(target), 1.0, 0.1)
    for verts, drift, _ in spec.polytopes.values():
        assert not verts.flags.writeable and not drift.flags.writeable


@pytest.mark.parametrize("name", sorted([*fixtures.stable_fixture_set(), "lu_kumar"]))
def test_cached_drift_is_the_rounded_total_velocity(name):
    """Every polytope a fixture's runs meet carries a read-only 1-D drift equal,
    bit for bit, to the rounded row sum of velocities recomputed from its vertices."""
    spec = getattr(fixtures, name)()
    x0 = np.ones(spec.K) / spec.K
    for make in SELECTORS:
        outcome(spec, x0, make)
    assert spec.polytopes
    for verts, drift, _ in spec.polytopes.values():
        assert drift.shape == (len(verts),) and not drift.flags.writeable
        want = np.round((verts @ -spec.outflow.T + spec.alpha).sum(axis=1), 12)
        assert drift.tobytes() == want.tobytes()


class Recording(ControlSelector):
    """Passes each pick of ``inner`` through and records it per vertex array."""

    def __init__(self, inner, picks):
        self.inner, self.picks = inner, picks

    def start_run(self):
        self.inner.start_run()

    def choose(self, t, q, vertices, drift):
        assert type(q) is tuple and all(type(level) is float for level in q)
        i = self.inner.choose(t, q, vertices, drift)
        self.picks.setdefault(id(vertices), set()).add(i)
        return i


@pytest.mark.parametrize("name", sorted([*fixtures.stable_fixture_set(), "lu_kumar"]))
def test_cached_rows_are_the_picked_vertices_and_their_velocities(name):
    """Every filled ``rows[i]`` is a pair of float tuples bit-equal to vertex i
    and to alpha - outflow @ vertex i, the gemv of an uncached step (not a row
    of verts @ -outflow.T), and a vertex no selector picked stays unfilled."""
    spec = getattr(fixtures, name)()
    picks = {}
    for x0 in (np.ones(spec.K) / spec.K, np.eye(spec.K)[-1]):
        for make in SELECTORS:
            outcome(spec, x0, lambda: Recording(make(), picks))
    assert spec.polytopes
    for verts, _, rows in spec.polytopes.values():
        assert set(rows) == picks[id(verts)]
        for i, row in rows.items():
            assert type(row) is tuple and len(row) == 2
            for part in row:
                assert type(part) is tuple and all(type(value) is float for value in part)
            u, v = row
            assert np.array(u).tobytes() == verts[i].tobytes()
            assert np.array(v).tobytes() == (spec.alpha - spec.outflow @ verts[i]).tobytes()


def test_drain_selectors_keep_no_state_between_runs():
    """One MaxDrain and one MinDrain reused across interleaved runs on two specs
    give the same bytes as fresh instances."""
    specs = (fixtures.reentrant_line(), fixtures.lu_kumar())
    reused = {MaxDrain: MaxDrain(), MinDrain: MinDrain()}
    for _ in range(2):
        for make in (MaxDrain, MinDrain):
            for spec in specs:
                x0 = np.ones(spec.K) / spec.K
                assert outcome(spec, x0, lambda: reused[make]) == outcome(fresh(spec), x0, make)


def test_axiom_report_builds_one_polytope_per_set(monkeypatch):
    built = count_builds(monkeypatch)
    axiom_report(fixtures.reentrant_line(), n_ops=100, seed=42, horizon=10, h=0.02)
    assert 0 < len(built) <= 8


def test_draining_time_builds_one_polytope_per_set(monkeypatch):
    built = count_builds(monkeypatch)
    draining_time(fixtures.lu_kumar(), samples=0, horizon=10, h=0.02, seed=42)
    assert 0 < len(built) <= 16
