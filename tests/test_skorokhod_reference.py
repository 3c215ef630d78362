"""Differential test of the Skorokhod push solver against a per-candidate loop.

``reference_minimal_push`` is the push as it was written first: on every call
it rebuilds each block R_a[T, S], tests its determinant and solves it on its
own.  ``reference_solve_lsp`` is the time stepper around it.  The solver must
return the same bytes (grid, states, pushing and controls), because the push
selection fixes the solution among the non-unique ones.
"""
import itertools

import numpy as np
import pytest

from fluidnet import fixtures
from fluidnet._util import l1
from fluidnet.errors import (
    DimensionTooLarge,
    InfeasibleActiveSet,
    NotCompletelyS,
    PushBoundExceeded,
    StepTooLarge,
)
from fluidnet.skorokhod import (
    _ACTIVE_CAP,
    LspInstance,
    LspSolution,
    _minimal_push,
    _push_bases,
    is_completely_s,
    solve_lsp,
)


def reference_minimal_push(r: np.ndarray, active, c: np.ndarray, tol: float) -> np.ndarray:
    """Minimal-l1 u >= 0 supported on the active set with (R u)_active >= c.

    Exact combinatorial enumeration of the LP vertices: a vertex has support
    S and an equal-sized set T of tight rows with R[T, S] nonsingular.  Ties
    in the l1 value break to the lexicographically smallest vector.
    """
    a = list(active)
    if len(a) > _ACTIVE_CAP:
        raise DimensionTooLarge(f"{len(a)} simultaneously active components exceeds {_ACTIVE_CAP}")
    j_dim = r.shape[0]
    r_a = r[np.ix_(a, a)]
    best = None
    best_key = None
    for size in range(len(a) + 1):
        for s_cols in itertools.combinations(range(len(a)), size):
            for t_rows in itertools.combinations(range(len(a)), size):
                u_a = np.zeros(len(a))
                if size:
                    sub = r_a[np.ix_(t_rows, s_cols)]
                    if abs(np.linalg.det(sub)) < 1e-12:
                        continue
                    try:
                        u_s = np.linalg.solve(sub, c[list(t_rows)])
                    except np.linalg.LinAlgError:
                        continue
                    u_a[list(s_cols)] = u_s
                if np.any(u_a < -tol):
                    continue
                u_a = np.maximum(u_a, 0.0)
                if np.any(r_a @ u_a < c - tol):
                    continue
                key = (round(float(u_a.sum()), 12), tuple(np.round(u_a, 12)))
                if best_key is None or key < best_key:
                    best_key = key
                    best = u_a
    if best is None:
        raise InfeasibleActiveSet("no feasible boundary push; the step is inconsistent")
    u = np.zeros(j_dim)
    u[a] = best
    return u


def reference_solve_lsp(inst: LspInstance, horizon: float, h: float,
              *, max_events: int = 1_000_000) -> LspSolution:
    """Complementarity time-stepping with event splitting at zero crossings.

    Refuses instances whose reflection matrix is not completely-S.  Raises
    PushBoundExceeded when the minimal admissible push tops the instance's
    bound (the configured bound was too low for this drift).
    """
    if not is_completely_s(inst.reflection):
        raise NotCompletelyS("reflection matrix is not completely-S")
    if h <= 0 or horizon < 0:
        raise ValueError("need h > 0 and horizon >= 0")
    theta, r = inst.theta, inst.reflection
    eps = 1e-9 * (1.0 + l1(inst.z0))
    tol = 1e-9 * (1.0 + l1(theta))

    z = inst.z0.copy()
    y = np.zeros(inst.J)
    t = 0.0
    grid = [0.0]
    states = [z.copy()]
    pushing = [y.copy()]
    controls = []
    events = 0
    end = horizon * (1 - 1e-15) - 1e-15

    while t < end:
        active = [j for j in range(inst.J) if z[j] < eps]
        if active:
            c = -theta[active] - z[active] / h
            u = reference_minimal_push(r, active, c, tol)
            if np.any(u > inst.push_bound * (1 + 1e-12)):
                raise PushBoundExceeded(
                    f"minimal push {u.max():.6g} exceeds bound {inst.push_bound:.6g}"
                )
        else:
            u = np.zeros(inst.J)
        v = theta + r @ u

        dt = min(h, horizon - t)
        crossing = []
        for j in range(inst.J):
            if j not in active and v[j] < -1e-14 and z[j] > 0.0:
                t_j = z[j] / -v[j]
                if t_j < dt * (1 - 1e-12):
                    dt = t_j
                    crossing = [j]
                elif t_j <= dt * (1 + 1e-12) and crossing:
                    crossing.append(j)
        z = z + v * dt
        y = y + u * dt
        t = t + dt
        for j in crossing:
            z[j] = 0.0
        np.maximum(z, 0.0, out=z)

        grid.append(t)
        states.append(z.copy())
        pushing.append(y.copy())
        controls.append(u)
        events += 1
        if events > max_events:
            raise StepTooLarge(f"more than {max_events} sub-steps; reduce h or horizon")

    return LspSolution(
        grid=np.asarray(grid),
        levels=np.asarray(states),
        allocation=np.asarray(pushing),
        controls=np.asarray(controls) if controls else np.empty((0, inst.J)),
    )


def assert_same_solution(got: LspSolution, want: LspSolution):
    for name in ("grid", "states", "pushing", "controls"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def random_completely_s(rng, j):
    """A completely-S reflection matrix: strictly diagonally dominant with a
    positive diagonal, or a small integer matrix that passes the LP test
    (integer blocks are often exactly singular and l1 ties are common)."""
    if rng.uniform() < 0.6:
        off = rng.uniform(-1.0, 1.0, (j, j)) * (1.0 - np.eye(j))
        off *= rng.uniform(0.3, 0.95) / max(float(np.abs(off).sum(axis=1).max()), 1e-12)
        return np.diag(rng.uniform(1.0, 2.0, j)) + off
    while True:
        r = rng.integers(-1, 2, (j, j)).astype(float)
        r[np.diag_indices(j)] = rng.integers(1, 3, j)
        if is_completely_s(r):
            return r


def random_instance(seed):
    rng = np.random.default_rng([20111990, 11, seed])
    j = 1 + seed % 5
    r = random_completely_s(rng, j)
    theta = rng.uniform(-1.0, 0.3, j)
    z0 = rng.uniform(0.0, 1.0, j) * (rng.uniform(size=j) < 0.4)
    return LspInstance(theta, r, z0)


@pytest.mark.parametrize("h", [0.1, 0.03])
@pytest.mark.parametrize("seed", range(60))
def test_random_instances_same_bytes(seed, h):
    inst = random_instance(seed)
    assert_same_solution(solve_lsp(inst, 1.5, h), reference_solve_lsp(inst, 1.5, h))


@pytest.mark.parametrize(
    "make", [fixtures.lsp_one_dimensional, fixtures.lsp_decoupled, fixtures.lsp_chattering]
)
@pytest.mark.parametrize("h", [0.05, 0.01])
def test_fixtures_same_bytes(make, h):
    inst = make()
    assert_same_solution(solve_lsp(inst, 3.0, h), reference_solve_lsp(inst, 3.0, h))


def assert_same_push(r, active, c, tol, bases):
    """The push, or None when both sides find no feasible push."""
    try:
        want = reference_minimal_push(r, active, c, tol)
    except InfeasibleActiveSet:
        with pytest.raises(InfeasibleActiveSet):
            _minimal_push(r, active, c, tol, bases)
        return None
    got = _minimal_push(r, active, c, tol, bases)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    return got


def test_minimal_push_same_bytes_on_random_c():
    rng = np.random.default_rng([20111990, 13])
    infeasible = 0
    for trial in range(300):
        j = int(rng.integers(1, 7))
        r = rng.integers(-2, 3, (j, j)).astype(float) if trial % 2 else rng.normal(size=(j, j))
        bases = {}
        for _ in range(3):
            active = sorted(rng.choice(j, int(rng.integers(1, j + 1)), replace=False).tolist())
            c = rng.normal(size=len(active))
            tol = 1e-9 * (1.0 + float(rng.uniform(0.0, 3.0)))
            infeasible += assert_same_push(r, active, c, tol, bases) is None
    assert infeasible > 0


def test_minimal_push_same_bytes_at_degenerate_vertices():
    """c = R_a u* for a sparse u* >= 0 makes every row tight at u*, so many
    (S, T) pairs reach it with differently rounded bits: the first in
    (size, S, T) order must win."""
    rng = np.random.default_rng([20111990, 17])
    for trial in range(200):
        n = int(rng.integers(2, 6))
        r = rng.integers(-1, 3, (n, n)) + rng.uniform(-0.1, 0.1, (n, n)) * (trial % 2)
        r = r.astype(float)
        u_star = rng.uniform(0.1, 1.0, n) * (rng.uniform(size=n) < 0.5)
        assert_same_push(r, range(n), r @ u_star, 1e-9, {})


def test_push_bases_keep_the_reference_blocks_in_order():
    """The kept blocks are the (S, T) pairs whose |det R_a[T, S]| >= 1e-12, in
    the reference's (size, S, T) loop order, including near-singular blocks
    on either side of the threshold."""
    rng = np.random.default_rng([20111990, 19])
    for trial in range(40):
        n = int(rng.integers(1, 6))
        r_a = rng.integers(-1, 2, (n, n)).astype(float)
        r_a += rng.choice([0.0, 1e-13, 1e-11], (n, n)) * rng.choice([-1, 1], (n, n))
        want_blocks, want_rows, want_cols = [], [], []
        for size in range(1, n + 1):
            for s_cols in itertools.combinations(range(n), size):
                for t_rows in itertools.combinations(range(n), size):
                    sub = r_a[np.ix_(t_rows, s_cols)]
                    if abs(np.linalg.det(sub)) < 1e-12:
                        continue
                    want_blocks.append(sub.ravel())
                    want_rows.append(t_rows)
                    want_cols.append(s_cols)
        bases = _push_bases(r_a)
        got_blocks = [block.ravel() for blocks, _, _ in bases for block in blocks]
        got_rows = [tuple(row) for _, rows, _ in bases for row in rows.tolist()]
        got_cols = [tuple(col) for _, _, cols in bases for col in cols.tolist()]
        assert got_rows == want_rows
        assert got_cols == want_cols
        assert np.concatenate([np.empty(0), *got_blocks]).tobytes() == (
            np.concatenate([np.empty(0), *want_blocks]).tobytes()
        )


def test_minimal_push_l1_before_lexicographic_order():
    """A sum 2e-12 larger loses even though the vector is lexicographically
    smaller; the l1 value is compared to 12 decimals."""
    a = 1.0 / (1.0 + 2e-12)
    r = np.array([[1.0, a], [1.0, a]])
    c = np.array([1.0, 1.0])
    want = reference_minimal_push(r, [0, 1], c, 1e-9)
    assert want.tolist() == [1.0, 0.0]
    assert _minimal_push(r, [0, 1], c, 1e-9, {}).tobytes() == want.tobytes()


def test_minimal_push_infeasible_raises():
    r = np.array([[-1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(InfeasibleActiveSet):
        reference_minimal_push(r, [0], np.array([1.0]), 1e-9)
    with pytest.raises(InfeasibleActiveSet):
        _minimal_push(r, [0], np.array([1.0]), 1e-9, {})


def test_active_cap_checked_before_building_bases(monkeypatch):
    """Nine components at zero under a drift that pushes all of them: the cap
    must fire before the C(18, 9) = 48,620 blocks of size 9x9 are built."""
    import fluidnet.skorokhod as skorokhod

    def refuse(r_a):
        raise AssertionError(f"built push bases for {r_a.shape[0]} active components")

    monkeypatch.setattr(skorokhod, "_push_bases", refuse)
    j = _ACTIVE_CAP + 1
    inst = LspInstance(-np.ones(j), np.eye(j), np.zeros(j))
    with pytest.raises(DimensionTooLarge, match=f"{j} simultaneously active"):
        solve_lsp(inst, 1.0, 0.1)
    with pytest.raises(DimensionTooLarge):
        _minimal_push(np.eye(j), range(j), np.ones(j), 1e-9, {})
