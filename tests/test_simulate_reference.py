"""Differential test of ``simulate`` against a loop that builds a polytope at every stamp.

``reference_simulate`` keeps no polytope between stamps: each stamp builds
the viable polytope from scratch through ``dynamics._viable_polytope``, with
a nonnegative velocity for every near-zero class, and the stamp loop runs on
numpy arrays.  The loop computes each vertex's drift (d/dt of the total
mass, rounded to 12 decimals) at every stamp, and ``RefMaxDrain`` and
``RefMinDrain`` rank the vertices by it at every call.  ``simulate`` must
return the same bytes (``grid``, ``levels``, ``allocation``, ``controls``)
and the same ``drained_at``, because the reports are byte-reproducible.
Both end a run at the first stamp with every class below the emptiness
threshold, when the empty state can be held, and every run checks that
stamp is the last and ``drained_at``.  So this test checks the stepping, the
per-spec polytope cache and the selectors; ``test_viable_cut`` checks the
polytopes against exact enumeration.
"""
import numpy as np
import pytest

from fluidnet import dynamics, fixtures
from fluidnet.dynamics import (
    ControlSelector,
    FirstVertex,
    FixedSequence,
    MaxDrain,
    MinDrain,
    RandomVertex,
    Trajectory,
    _viable_polytope as viable_polytope,
    simulate,
)
from fluidnet.errors import StepTooLarge
from fluidnet.model import PRIORITY, WORK_CONSERVING, empty_rows, empty_threshold
from test_discipline_rows import reference_zero_invariant
from test_enumerate import random_network


class RefMaxDrain(ControlSelector):
    name = "max_drain"

    def choose(self, t, q, vertices, drift):
        return int(np.argmin(drift))


class RefMinDrain(ControlSelector):
    name = "min_drain"

    def choose(self, t, q, vertices, drift):
        return int(np.argmax(drift))


def reference_simulate(spec, x0, selector, horizon, h, *, max_events=1_000_000):
    x0 = np.maximum(np.asarray(x0, dtype=float).copy(), 0.0)
    eps = empty_threshold(x0)
    selector.start_run()
    can_hold_zero = reference_zero_invariant(spec)

    q = x0.copy()
    total_alloc = np.zeros(spec.K)
    t = 0.0
    grid = [0.0]
    levels = [q.copy()]
    allocation = [total_alloc.copy()]
    controls = []

    drained_at = None
    events = 0
    end = horizon * (1 - 1e-15) - 1e-15

    while t < end:
        zeros = frozenset(np.flatnonzero(q < eps).tolist())
        if can_hold_zero and len(zeros) == spec.K:
            drained_at = t
            break
        # bound at import, so a test that patches dynamics._viable_polytope
        # changes simulate and not this reference
        verts = viable_polytope(spec, zeros)
        drift = np.round((verts @ (-spec.outflow.T) + spec.alpha).sum(axis=1), 12)

        u = verts[selector.choose(t, q, verts, drift)]
        v = spec.alpha - spec.outflow @ u

        dt = min(h, horizon - t)
        crossing = []
        for k in range(spec.K):
            if v[k] < -1e-14 and q[k] > 0.0:
                t_k = q[k] / -v[k]
                if t_k < dt * (1 - 1e-12):
                    dt = t_k
                    crossing = [k]
                elif t_k <= dt * (1 + 1e-12) and crossing:
                    crossing.append(k)
        q = q + v * dt
        total_alloc = total_alloc + u * dt
        t = t + dt
        for k in crossing:
            q[k] = 0.0
        np.maximum(q, 0.0, out=q)

        grid.append(t)
        levels.append(q.copy())
        allocation.append(total_alloc.copy())
        controls.append(u)

        events += 1
        if events > max_events:
            raise StepTooLarge(f"more than {max_events} sub-steps; reduce h or horizon")

    return Trajectory(
        grid=np.asarray(grid),
        levels=np.asarray(levels),
        allocation=np.asarray(allocation),
        controls=np.asarray(controls) if controls else np.empty((0, spec.K)),
        drained_at=drained_at,
    )


# (selector under test, reference selector) factories
SELECTORS = {
    "first_vertex": (FirstVertex, FirstVertex),
    "max_drain": (MaxDrain, RefMaxDrain),
    "min_drain": (MinDrain, RefMinDrain),
    "random_vertex": (lambda: RandomVertex(7), lambda: RandomVertex(7)),
    "fixed_sequence": (lambda: FixedSequence([1, 0, 2, 1]), lambda: FixedSequence([1, 0, 2, 1])),
}
MAX_EVENTS = 3000  # sliding can cut a step into an event storm; both sides must raise alike


def outcome(run, spec, x0, selector, horizon, h, max_events=MAX_EVENTS):
    try:
        traj = run(spec, x0, selector, horizon, h, max_events=max_events)
    except StepTooLarge as exc:
        return str(exc)
    if traj.drained:  # the run ends at its first stamp with every class empty
        assert traj.grid[-1] == traj.drained_at
        below = (traj.levels < empty_threshold(x0)).all(axis=1)
        assert below[-1] and not below[:-1].any()
    arrays = (traj.grid, traj.levels, traj.allocation, traj.controls)
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays], traj.drained_at


def same_run(spec, x0, selector_name, horizon, h, max_events=MAX_EVENTS) -> bool:
    make, make_ref = SELECTORS[selector_name]
    got = outcome(simulate, spec, x0, make(), horizon, h, max_events)
    want = outcome(reference_simulate, spec, x0, make_ref(), horizon, h, max_events)
    return got == want


def random_case(seed):
    """A seeded network of either discipline and a start with some empty classes."""
    rng = np.random.default_rng([20240817, seed])
    k = int(rng.choice([1, 2, 2, 3, 3, 3, 4, 4, 4]))  # the K=5 references take seconds each
    spec = random_network(rng, k, (WORK_CONSERVING, PRIORITY)[seed % 2])
    x0 = rng.dirichlet(np.ones(k)) * rng.uniform(0.5, 2.0)
    x0[rng.uniform(size=k) < 0.3] = 0.0
    return spec, x0


@pytest.mark.parametrize("block", range(5))
def test_matches_reference_on_random_networks(block):
    for seed in range(20 * block, 20 * block + 20):
        spec, x0 = random_case(seed)
        for name in SELECTORS:
            assert same_run(spec, x0, name, 4.0, 0.05), (seed, name)


FIXTURES = {**fixtures.stable_fixture_set(), "lu_kumar": fixtures.lu_kumar()}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_matches_reference_on_fixtures(name):
    spec = FIXTURES[name]
    boundary_start = np.ones(spec.K)
    boundary_start[0] = 0.0
    for x0 in (np.ones(spec.K) / spec.K, boundary_start):
        for selector_name in SELECTORS:
            assert same_run(spec, x0, selector_name, 8.0, 0.02), selector_name


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_matches_reference_at_the_edges_of_the_step_loop(name):
    """A zero horizon (no step: a (0, K) control array), a horizon below h
    (one short step) and budgets of one and two steps, which both sides must
    refuse with the same StepTooLarge text."""
    spec = FIXTURES[name]
    x0 = np.ones(spec.K) / spec.K
    for selector_name in SELECTORS:
        for horizon in (0.0, 0.03):
            assert same_run(spec, x0, selector_name, horizon, 0.05), (selector_name, horizon)
        for max_events in (1, 2):
            assert same_run(spec, x0, selector_name, 1.0, 0.05, max_events)
    arrays, _ = outcome(simulate, spec, x0, FirstVertex(), 0.0, 0.05)
    assert [shape for _, shape, _ in arrays] == [(1,), (1, spec.K), (1, spec.K), (0, spec.K)]
    arrays, _ = outcome(simulate, spec, x0, FirstVertex(), 0.03, 0.05)
    assert [shape for _, shape, _ in arrays] == [(2,), (2, spec.K), (2, spec.K), (1, spec.K)]
    for max_events in (1, 2):
        assert outcome(simulate, spec, x0, FirstVertex(), 1.0, 0.05, max_events) == (
            f"more than {max_events} sub-steps; reduce h or horizon")


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_a_drained_start_stops_at_its_first_stamp(name):
    spec = FIXTURES[name]
    x0 = np.zeros(spec.K)
    for make, _ in SELECTORS.values():
        traj = simulate(spec, x0, make(), 2.0, 0.1)
        assert traj.drained_at == 0.0
        assert [a.shape for a in (traj.grid, traj.levels, traj.allocation, traj.controls)] == [
            (1,), (1, spec.K), (1, spec.K), (0, spec.K)]


def test_structure_shared_across_keys_is_detected(monkeypatch):
    """A polytope reused for another set of near-zero classes must fail."""
    real = dynamics._viable_polytope
    shared = {}

    def keyed_by_empty_rows_only(spec, zeros):
        key = (id(spec), empty_rows(spec, zeros))
        if key not in shared:
            shared[key] = real(spec, zeros)
        return shared[key]

    monkeypatch.setattr(dynamics, "_viable_polytope", keyed_by_empty_rows_only)

    def mismatch(seed):
        spec, x0 = random_case(seed)
        shared.clear()
        return not same_run(spec, x0, "max_drain", 4.0, 0.05)

    assert any(mismatch(seed) for seed in range(20))
