"""Differential test of the capacity-row form of the service discipline.

``NetworkSpec.capacity`` and ``NetworkSpec.members`` carry the discipline:
one row per station (work-conserving) or per class (priority).  The
``reference_*`` functions below are the per-discipline code they replace: two
constraint builders over the priority groups, the empty-set rule, idle
processes, the zero-state test, the idling functional and the zero classes
of the sampled drift states.  The constraint arrays must be the same bytes;
the float functionals may differ in the last bits, since priority now sums
in the work-conserving order.
"""
import numpy as np
import pytest

from fluidnet import fixtures, lyapunov
from fluidnet.dynamics import (
    MaxDrain,
    MinDrain,
    complementarity_residual,
    simulate,
    zero_invariant,
)
from fluidnet.errors import StepTooLarge
from fluidnet.model import (
    PRIORITY,
    WORK_CONSERVING,
    admissible_constraints,
    boundary_configurations,
    empty_rows,
)
from test_enumerate import random_network


def reference_groups(spec):
    """Per class m: the classes at m's station ranked no later than m."""
    station_of = np.argmax(spec.constituency, axis=0).astype(int)
    rank = spec.priority
    return tuple(
        tuple(l for l in range(spec.K) if station_of[l] == station_of[m] and rank[l] <= rank[m])
        for m in range(spec.K)
    )


def reference_work_conserving_constraints(spec, empty_stations):
    empty = frozenset(int(j) for j in empty_stations)
    c = spec.constituency
    busy = [j for j in range(spec.J) if j not in empty]
    a_eq = c[busy] if busy else np.empty((0, spec.K))
    b_eq = np.ones(len(busy))
    rows = [-np.eye(spec.K)]
    rhs = [np.zeros(spec.K)]
    if empty:
        idx = sorted(empty)
        rows.append(c[idx])
        rhs.append(np.ones(len(idx)))
    return a_eq, b_eq, np.vstack(rows), np.concatenate(rhs)


def reference_priority_constraints(spec, empty_classes):
    empty = frozenset(int(k) for k in empty_classes)
    k_n = spec.K
    indicators = np.zeros((k_n, k_n))
    for k, group in enumerate(reference_groups(spec)):
        indicators[k, list(group)] = 1.0
    busy = [k for k in range(k_n) if k not in empty]
    a_eq = indicators[busy] if busy else np.empty((0, k_n))
    b_eq = np.ones(len(busy))
    rows = [-np.eye(k_n)]
    rhs = [np.zeros(k_n)]
    if empty:
        idx = sorted(empty)
        rows.append(indicators[idx])
        rhs.append(np.ones(len(idx)))
    return a_eq, b_eq, np.vstack(rows), np.concatenate(rhs)


def reference_constraints(spec, empty):
    if spec.discipline == WORK_CONSERVING:
        return reference_work_conserving_constraints(spec, empty)
    return reference_priority_constraints(spec, empty)


def reference_active_sets(spec, q, eps):
    """(empty stations or classes, near-zero classes) at levels q."""
    zero_classes = frozenset(k for k, level in enumerate(q) if level < eps)
    if spec.discipline == WORK_CONSERVING:
        empty = frozenset(
            j for j, members in enumerate(spec.station_classes)
            if zero_classes.issuperset(members)
        )
    else:
        empty = zero_classes
    return empty, zero_classes


def reference_idle(spec, traj):
    t = traj.grid[:, None]
    if spec.discipline == WORK_CONSERVING:
        return t - traj.allocation @ spec.constituency.T
    cols = [t[:, 0] - traj.allocation[:, list(g)].sum(axis=1) for g in reference_groups(spec)]
    return np.column_stack(cols)


def reference_zero_invariant(spec):
    u = spec.nominal_allocation()
    if np.any(u < -1e-12):
        return False
    tol = 1 + 1e-9
    if spec.discipline == WORK_CONSERVING:
        return bool(np.all(spec.constituency @ u <= tol))
    return all(u[list(g)].sum() <= tol for g in reference_groups(spec))


def reference_complementarity(spec, traj):
    if traj.controls.shape[0] == 0:
        return 0.0
    dt = np.diff(traj.grid)
    q_mid = 0.5 * (traj.levels[:-1] + traj.levels[1:])
    if spec.discipline == WORK_CONSERVING:
        station_level = q_mid @ spec.constituency.T
        idle_rate = 1.0 - traj.controls @ spec.constituency.T
        return float(np.sum(station_level * idle_rate * dt[:, None]))
    total = 0.0
    for k, group in enumerate(reference_groups(spec)):
        y_rate = 1.0 - traj.controls[:, list(group)].sum(axis=1)
        total += float(np.sum(q_mid[:, k] * y_rate * dt))
    return total


def reference_pattern_states(spec, empty, n_samples, rng):
    if spec.discipline == WORK_CONSERVING:
        zero_classes = sorted(k for j in empty for k in spec.classes_at(j))
    else:
        zero_classes = sorted(empty)
    support = [k for k in range(spec.K) if k not in zero_classes]
    states = np.zeros((n_samples, spec.K))
    states[:, support] = rng.dirichlet(np.ones(len(support)), size=n_samples)
    return states


def networks():
    """Random networks of both disciplines with K = 1..6, then the fixtures."""
    for discipline in (WORK_CONSERVING, PRIORITY):
        for k in range(1, 7):
            for draw in range(4):
                rng = np.random.default_rng([2011, k, draw, len(discipline), 7])
                yield f"{discipline}-K{k}-{draw}", random_network(rng, k, discipline)
    yield from {**fixtures.stable_fixture_set(), "lu_kumar": fixtures.lu_kumar()}.items()


NETWORKS = list(networks())
IDS = [name for name, _ in NETWORKS]


def n_rows(spec):
    return spec.J if spec.discipline == WORK_CONSERVING else spec.K


def assert_same_bytes(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("name,spec", NETWORKS, ids=IDS)
def test_constraints_byte_equal(name, spec):
    assert spec.capacity.shape == (n_rows(spec), spec.K)
    for empty in [*boundary_configurations(spec), frozenset(range(n_rows(spec)))]:
        assert_same_bytes(admissible_constraints(spec, empty), reference_constraints(spec, empty))


@pytest.mark.parametrize("name,spec", NETWORKS, ids=IDS)
def test_empty_rows_agree(name, spec):
    rng = np.random.default_rng(17)
    zero_sets = [(), tuple(range(spec.K))]
    zero_sets += [tuple(np.flatnonzero(rng.uniform(size=spec.K) < p)) for p in (0.3, 0.6, 0.8)]
    for zeros in zero_sets:
        q = np.ones(spec.K)
        q[list(zeros)] = 0.0
        want, _ = reference_active_sets(spec, q.tolist(), 0.5)
        assert empty_rows(spec, zeros) == want


@pytest.mark.parametrize("name,spec", NETWORKS, ids=IDS)
def test_zero_invariant_equal(name, spec):
    assert zero_invariant(spec) == reference_zero_invariant(spec)


@pytest.mark.parametrize("name,spec", NETWORKS, ids=IDS)
def test_idle_and_complementarity_agree(name, spec):
    rng = np.random.default_rng(23)
    for selector in (MaxDrain(), MinDrain()):
        x0 = rng.dirichlet(np.ones(spec.K)) * (rng.uniform(size=spec.K) < 0.7)
        try:
            traj = simulate(spec, x0, selector, 2.0, 0.1, max_events=5000)
        except StepTooLarge:
            continue  # a run can chatter just above the emptiness threshold
        want = reference_idle(spec, traj)
        assert np.all(np.abs(traj.idle() - want) <= 1e-12 * (1 + np.abs(want)))
        want = reference_complementarity(spec, traj)
        assert abs(complementarity_residual(spec, traj) - want) <= 1e-12 * (1 + abs(want))


@pytest.mark.parametrize("name,spec", NETWORKS, ids=IDS)
def test_pattern_state_zero_classes_equal(name, spec):
    for empty in boundary_configurations(spec):
        got = lyapunov._pattern_states(spec, empty, 3, np.random.default_rng(5))
        want = reference_pattern_states(spec, empty, 3, np.random.default_rng(5))
        assert got.tobytes() == want.tobytes()
