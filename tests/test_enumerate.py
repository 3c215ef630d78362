"""Differential test of the batched vertex enumerator against a per-subset loop.

``reference_enumerate`` is the straightforward enumerator: one rank test and
one solve per active subset.  The batched ``enumerate_polytope_vertices`` must
return the same bytes (values, shape and row order), because selectors index
into the vertex order.
"""
import itertools

import numpy as np
import pytest

from fluidnet import fixtures, model
from fluidnet._util import l1
from fluidnet.model import (
    PRIORITY,
    VERTEX_SLACK,
    WORK_CONSERVING,
    admissible_constraints,
    boundary_configurations,
    enumerate_polytope_vertices,
    validate,
)


def reference_enumerate(dim, a_eq, b_eq, a_ub, b_ub) -> np.ndarray:
    a_eq = np.asarray(a_eq, dtype=float).reshape(-1, dim)
    b_eq = np.asarray(b_eq, dtype=float).reshape(-1)
    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, dim)
    b_ub = np.asarray(b_ub, dtype=float).reshape(-1)

    rank_eq = np.linalg.matrix_rank(a_eq) if a_eq.size else 0
    n_active = dim - rank_eq
    if n_active < 0:
        return np.empty((0, dim))

    found = {}
    for subset in itertools.combinations(range(a_ub.shape[0]), n_active):
        mat = np.vstack([a_eq, a_ub[list(subset)]]) if a_eq.size else a_ub[list(subset)]
        rhs = np.concatenate([b_eq, b_ub[list(subset)]]) if a_eq.size else b_ub[list(subset)]
        if mat.shape[0] == 0:
            continue
        if np.linalg.matrix_rank(mat) < dim:
            continue
        if mat.shape[0] == dim:
            try:
                x = np.linalg.solve(mat, rhs)
            except np.linalg.LinAlgError:
                continue
        else:
            x, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
        if l1(mat @ x - rhs) > 1e-9 * (1.0 + l1(rhs)):
            continue  # active set inconsistent
        x[np.abs(x) < 1e-13] = 0.0
        if a_ub.size and np.min(b_ub - a_ub @ x) < VERTEX_SLACK:
            continue
        if a_eq.size and l1(a_eq @ x - b_eq) > 1e-9 * (1.0 + l1(b_eq)):
            continue
        found[tuple(np.round(x, 12))] = x
    if not found:
        return np.empty((0, dim))
    return np.array(sorted(found.values(), key=tuple))


def assert_same_bytes(dim, a_eq, b_eq, a_ub, b_ub):
    got = enumerate_polytope_vertices(dim, a_eq, b_eq, a_ub, b_ub)
    want = reference_enumerate(dim, a_eq, b_eq, a_ub, b_ub)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    return got


def random_network(rng, k, discipline):
    """A valid network with K=k: random stations, sparse substochastic routing."""
    j = int(rng.integers(1, k + 1))
    station = np.concatenate([np.arange(j), rng.integers(0, j, k - j)])
    rng.shuffle(station)
    constituency = np.zeros((j, k))
    constituency[station, np.arange(k)] = 1.0
    routing = rng.uniform(0.0, 1.0, (k, k)) * (rng.uniform(size=(k, k)) < 0.4)
    routing *= rng.uniform(0.2, 0.95) / np.maximum(routing.sum(axis=1, keepdims=True), 1.0)
    alpha = rng.uniform(0.0, 1.0, k) * (rng.uniform(size=k) < 0.7)
    mu = rng.uniform(0.5, 3.0, k)
    priority = rng.permutation(k) if discipline == PRIORITY else None
    return validate(alpha, mu, routing, constituency, discipline, priority)


def constraints(spec, empty):
    return admissible_constraints(spec, empty)


def viability_rows(spec, empty, zeros, floors, pinned):
    """The constraint system simulate's viable polytope hands to the enumerator."""
    a_eq, b_eq, a_ub, b_ub = constraints(spec, empty)
    idx = sorted(zeros)
    a_ub = np.vstack([a_ub, spec.outflow[idx]])
    b_ub = np.concatenate([b_ub, spec.alpha[idx] + floors])
    if pinned:
        a_ub = np.vstack([a_ub, -spec.outflow])
        b_ub = np.concatenate([b_ub, -spec.alpha])
    return a_eq, b_eq, a_ub, b_ub


def random_floors(rng, n):
    """Exact zeros, float dust and step-sized floors, as simulate produces them."""
    kind = rng.integers(0, 3, n)
    return np.where(kind == 0, 0.0, np.where(kind == 1, rng.uniform(0, 1e-17, n),
                                             rng.uniform(0, 2.0, n)))


def random_cases(seed):
    """Every boundary configuration of one random network, plus viability systems."""
    rng = np.random.default_rng([20111990, seed])
    k = int(rng.choice([1, 2, 3, 3, 4, 4, 4, 5, 5, 6]))
    discipline = (WORK_CONSERVING, PRIORITY)[seed % 2]
    spec = random_network(rng, k, discipline)
    n_items = spec.J if discipline == WORK_CONSERVING else spec.K
    configs = [*boundary_configurations(spec), frozenset(range(n_items))]
    for empty in configs:
        yield (spec.K, *constraints(spec, empty))
    empty = configs[rng.integers(len(configs))]
    if discipline == WORK_CONSERVING:
        forced = [c for j in empty for c in spec.classes_at(j)]
    else:
        forced = list(empty)
    extra = rng.uniform(size=spec.K) < 0.3
    zeros = sorted(set(forced) | set(np.flatnonzero(extra).tolist()))
    if not zeros:
        zeros = [int(rng.integers(spec.K))]
    floors = random_floors(rng, len(zeros))
    for pinned in (False, True):
        yield (spec.K, *viability_rows(spec, empty, zeros, floors, pinned))


@pytest.mark.parametrize("block", range(10))
def test_matches_reference_on_random_networks(block):
    for seed in range(20 * block, 20 * block + 20):
        for case in random_cases(seed):
            assert_same_bytes(*case)


def test_small_chunks_keep_order_and_last_wins(monkeypatch):
    """Chunk boundaries inside a call must not change the deduplicated result."""
    monkeypatch.setattr(model, "SUBSET_CHUNK", 3)
    for seed in range(8):
        for case in random_cases(seed):
            assert_same_bytes(*case)


def test_per_matrix_solve_when_batched_solve_fails(monkeypatch):
    real_solve = np.linalg.solve

    def batch_refusing_solve(a, b):
        if np.ndim(a) > 2:
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", batch_refusing_solve)
    for seed in range(6):
        for case in random_cases(seed):
            assert_same_bytes(*case)


def test_no_active_rows_needed():
    """Full-rank equalities leave n_active == 0: the only candidate is a_eq's solution."""
    spec = fixtures.lu_kumar()
    a_eq, b_eq, a_ub, b_ub = admissible_constraints(spec, [])
    assert np.linalg.matrix_rank(a_eq) == spec.K
    assert len(assert_same_bytes(spec.K, a_eq, b_eq, a_ub, b_ub)) == 1
    got = assert_same_bytes(2, np.eye(2), [0.5, 0.25], np.empty((0, 2)), [])
    assert got.tolist() == [[0.5, 0.25]]


def test_no_equality_rows():
    spec = fixtures.reentrant_line()
    a_eq, b_eq, a_ub, b_ub = admissible_constraints(spec, range(spec.J))
    assert a_eq.size == 0
    assert len(assert_same_bytes(spec.K, a_eq, b_eq, a_ub, b_ub)) > 1


def test_dependent_equality_rows_use_least_squares():
    a_eq = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    got = assert_same_bytes(3, a_eq, [1.0, 1.0, 0.5], -np.eye(3), np.zeros(3))
    np.testing.assert_allclose(got, [[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]], atol=1e-12)


def test_empty_result():
    got = assert_same_bytes(1, np.empty((0, 1)), [], [[-1.0], [1.0]], [0.0, -1.0])
    assert got.shape == (0, 1)
    got = assert_same_bytes(2, [[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0], -np.eye(2), np.zeros(2))
    assert got.shape == (0, 2)


def test_call_spanning_several_chunks():
    spec = random_network(np.random.default_rng(5), 6, PRIORITY)
    empty = range(spec.K)
    floors = np.array([0.0, 1e-18, 0.3, 2.0, 0.0, 0.5])
    case = viability_rows(spec, empty, empty, floors, pinned=False)
    a_ub = case[2]
    subsets = len(list(itertools.combinations(range(a_ub.shape[0]), spec.K)))
    assert subsets > model.SUBSET_CHUNK
    assert len(assert_same_bytes(spec.K, *case)) > 0
