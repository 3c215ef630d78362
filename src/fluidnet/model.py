"""Network descriptions and admissible-control polytopes.

A fluid network moves mass between K classes served at J stations.  Class k
receives exogenous inflow at rate ``alpha[k]``, is drained at potential rate
``mu[k]`` while served, and a drained unit becomes class l with proportion
``routing[k, l]`` (the remainder leaves).  ``constituency[j, k] == 1`` says
class k is served at station j.

The admissible allocation rates u (one per class, u = dT/dt) form a polytope
that depends on which capacity rows (``NetworkSpec.capacity``) are empty: one
per station, its constituency row, when work-conserving; one per class m, over
the classes at m's station ranked no later than m, under priority.  Busy rows
are used at full rate, empty rows may idle.  Polytopes are represented by
their vertex lists, enumerated exactly: problem dimensions here are tiny, so
combinatorial enumeration over active constraint subsets is both fast and
deterministic.  The subsets are processed in fixed-size chunks, each with one
batched rank test and one batched solve; the vertices and their lexicographic
order are the same as from one rank test and solve per subset.  The rank test
depends only on the constraint matrices, so a caller whose right-hand sides
change can keep the subsets that pass it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from ._util import l1
from .errors import (
    BadPermutation,
    ConstituencyNotPartition,
    DimensionMismatch,
    DimensionTooLarge,
    InfeasibleActiveSet,
    NegativeRate,
    RoutingNotSubstochastic,
    SpectralRadiusTooLarge,
    UnknownDiscipline,
)

WORK_CONSERVING = "work_conserving"
PRIORITY = "priority"
DISCIPLINES = (WORK_CONSERVING, PRIORITY)

#: vertices must satisfy every inequality with at least this slack
VERTEX_SLACK = -1e-12
#: active subsets per batched rank test and solve; bounds the stacked memory
SUBSET_CHUNK = 4096


def empty_threshold(x0) -> float:
    """A class or station counts as empty below this level.

    Scales with the initial mass so that float drift on large states does not
    flip boundary decisions.
    """
    return 1e-9 * (1.0 + l1(x0))


def spectral_radius(P: np.ndarray, *, tol: float = 1e-10, max_iter: int = 10000) -> float:
    """Spectral radius by renormalized power iteration (repeated squaring).

    Tracks |P^(2^m)| in log scale, so the estimate |P^n|^(1/n) converges for
    every matrix, including nilpotent and defective routing chains where the
    plain vector iteration stalls.  Falls back to the Gershgorin row-sum
    bound if the iteration hits the cap without settling.
    """
    P = np.asarray(P, dtype=float)
    if P.shape[0] == 0:
        return 0.0
    norm = float(np.abs(P).sum(axis=0).max())
    if norm == 0.0:
        return 0.0
    b = P / norm
    log_coeff = np.log(norm)
    power = 1.0
    # 64 squarings reach |P^n|^(1/n) at n = 2^64, where the norm-vs-radius gap
    # log(poly(n))/n is far below double precision; plateaus (nilpotent chains
    # hold norm 1 for several squarings before collapsing) cannot fool a fixed
    # iteration count, so no early convergence exit is attempted.
    for _ in range(min(max_iter, 64)):
        b = b @ b
        norm = float(np.abs(b).sum(axis=0).max())
        if norm == 0.0:
            return 0.0  # nilpotent: all fluid leaves in finitely many hops
        b /= norm
        log_coeff = 2.0 * log_coeff + np.log(norm)
        power *= 2.0
    estimate = float(np.exp(log_coeff / power))
    if not np.isfinite(estimate):
        return float(P.sum(axis=1).max())
    return estimate


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    """Validated, immutable description of a fluid network.

    Construct through :func:`validate`; the constructor itself performs no
    checking.  ``priority`` holds one rank per class (lower rank = served
    first); it is None for work-conserving networks.  ``members`` lists the
    classes that must be empty for each capacity row to be empty.
    """

    alpha: np.ndarray
    mu: np.ndarray
    routing: np.ndarray
    constituency: np.ndarray
    discipline: str
    priority: tuple[int, ...] | None = None
    # derived, filled in __post_init__
    outflow: np.ndarray = field(init=False, repr=False)
    station_classes: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    capacity: np.ndarray = field(init=False, repr=False)
    members: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "alpha", _readonly(self.alpha))
        object.__setattr__(self, "mu", _readonly(self.mu))
        object.__setattr__(self, "routing", _readonly(self.routing))
        object.__setattr__(self, "constituency", _readonly(self.constituency))
        k = self.alpha.shape[0]
        w = (np.eye(k) - self.routing.T) @ np.diag(self.mu)
        object.__setattr__(self, "outflow", _readonly(w))
        object.__setattr__(
            self,
            "station_classes",
            tuple(tuple(np.flatnonzero(row).tolist()) for row in self.constituency),
        )
        if self.priority is None:
            capacity, members = self.constituency, self.station_classes
        else:
            # row m: the classes at m's station served no later than m
            station = np.argmax(self.constituency, axis=0)
            rank = np.asarray(self.priority)
            capacity = (station[:, None] == station) & (rank <= rank[:, None])
            members = tuple((m,) for m in range(k))
        object.__setattr__(self, "capacity", _readonly(capacity))
        object.__setattr__(self, "members", members)

    @property
    def K(self) -> int:
        return int(self.alpha.shape[0])

    @property
    def J(self) -> int:
        return int(self.constituency.shape[0])

    def classes_at(self, station: int) -> tuple[int, ...]:
        return self.station_classes[station]

    def nominal_allocation(self) -> np.ndarray:
        """Allocation rates that balance inflow exactly: solves outflow @ u = alpha."""
        return np.linalg.solve(self.outflow, self.alpha)

    def traffic_intensity(self) -> np.ndarray:
        """Per-station nominal load: constituency @ nominal_allocation."""
        return self.constituency @ self.nominal_allocation()


def validate(alpha, mu, routing, constituency, discipline, priority=None) -> NetworkSpec:
    """Check a raw network description and return an immutable spec.

    Raises the specific error type for each failure mode: NegativeRate,
    ConstituencyNotPartition, RoutingNotSubstochastic, SpectralRadiusTooLarge,
    BadPermutation, DimensionMismatch, UnknownDiscipline.
    """
    alpha = np.asarray(alpha, dtype=float)
    mu = np.asarray(mu, dtype=float)
    routing = np.asarray(routing, dtype=float)
    constituency = np.asarray(constituency, dtype=float)

    if alpha.ndim != 1 or mu.ndim != 1 or routing.ndim != 2 or constituency.ndim != 2:
        raise DimensionMismatch("alpha, mu must be vectors; routing, constituency matrices")
    k = alpha.shape[0]
    if mu.shape != (k,) or routing.shape != (k, k) or constituency.shape[1] != k:
        raise DimensionMismatch(
            f"inconsistent shapes for K={k}: mu {mu.shape}, routing {routing.shape}, "
            f"constituency {constituency.shape}"
        )
    # comparisons with NaN are false, so each test is phrased as "all valid"
    if not np.all((alpha >= 0) & np.isfinite(alpha)):
        raise NegativeRate(f"arrival rates must be finite and nonnegative: alpha={alpha.tolist()}")
    if not np.all((mu > 0) & np.isfinite(mu)):
        raise NegativeRate(f"service rates must be finite and strictly positive: mu={mu.tolist()}")

    if not np.all((constituency == 0) | (constituency == 1)):
        raise ConstituencyNotPartition("constituency entries must be 0 or 1")
    if not np.all(constituency.sum(axis=0) == 1):
        raise ConstituencyNotPartition("every class must be served at exactly one station")
    if not np.all(constituency.sum(axis=1) >= 1):
        raise ConstituencyNotPartition("every station must serve at least one class")

    if not np.all(routing >= 0):
        raise RoutingNotSubstochastic("routing proportions must be nonnegative")
    if np.any(routing.sum(axis=1) > 1 + 1e-12):
        raise RoutingNotSubstochastic("routing row sums must not exceed one")
    rho = spectral_radius(routing)
    if rho >= 1 - 1e-12:
        raise SpectralRadiusTooLarge(f"routing spectral radius {rho:.12g} >= 1")

    if discipline not in DISCIPLINES:
        raise UnknownDiscipline(f"unknown discipline {discipline!r}; expected one of {DISCIPLINES}")
    ranks = None
    if discipline == PRIORITY:
        if priority is None:
            raise BadPermutation("priority discipline requires a priority permutation")
        ranks = tuple(int(p) for p in priority)
        if sorted(ranks) != list(range(k)):
            raise BadPermutation(f"priority ranks must be a permutation of 0..{k - 1}")
    elif priority is not None:
        raise BadPermutation("priority order given for a work-conserving network")

    return NetworkSpec(alpha, mu, routing, constituency, discipline, ranks)


# ---------------------------------------------------------------------------
# polytopes


@dataclass(frozen=True, eq=False)
class ControlPolytope:
    """Vertex representation of an admissible allocation-rate set.

    ``vertices`` has one row per vertex, rows sorted lexicographically;
    ``active_set`` records the boundary configuration that produced it
    (empty stations for work-conserving, empty classes for priority).
    """

    vertices: np.ndarray
    active_set: frozenset
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "vertices", _readonly(self.vertices))

    @property
    def dimension(self) -> int:
        return int(self.vertices.shape[1])

    def __len__(self) -> int:
        return int(self.vertices.shape[0])

    def contains(self, u, tol: float = 1e-10) -> bool:
        """Membership in the convex hull of the vertices, decided by LP."""
        u = np.asarray(u, dtype=float)
        verts = self.vertices
        m, dim = verts.shape
        if u.shape != (dim,):
            raise DimensionMismatch(f"point has shape {u.shape}, polytope dimension {dim}")
        # minimize t subject to |V^T lam - u| <= t, sum lam = 1, lam >= 0
        c = np.zeros(m + 1)
        c[-1] = 1.0
        a_ub = np.zeros((2 * dim, m + 1))
        a_ub[:dim, :m] = verts.T
        a_ub[dim:, :m] = -verts.T
        a_ub[:, -1] = -1.0
        b_ub = np.concatenate([u, -u])
        a_eq = np.zeros((1, m + 1))
        a_eq[0, :m] = 1.0
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                      bounds=[(0, None)] * m + [(0, None)], method="highs")
        return bool(res.success and res.fun <= tol)


def enumerate_polytope_vertices(dim, a_eq, b_eq, a_ub, b_ub) -> np.ndarray:
    """Exact vertex enumeration for a small polytope.

    A vertex makes some subset of the inequality rows active so that, stacked
    with the equalities, the active system has rank ``dim``.  The subsets that
    pass that rank test depend only on the matrices (:func:`rank_tested_subsets`);
    the vertices for given right-hand sides are then found among them
    (:func:`subset_vertices`).
    """
    a_eq = np.asarray(a_eq, dtype=float).reshape(-1, dim)
    b_eq = np.asarray(b_eq, dtype=float).reshape(-1)
    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, dim)
    b_ub = np.asarray(b_ub, dtype=float).reshape(-1)
    return subset_vertices(a_eq, b_eq, a_ub, b_ub, rank_tested_subsets(a_eq, a_ub))


def rank_tested_subsets(a_eq: np.ndarray, a_ub: np.ndarray) -> np.ndarray:
    """Inequality-row subsets whose active system has full column rank.

    Every subset of ``dim - rank(a_eq)`` rows of ``a_ub`` is tried in
    lexicographic order, SUBSET_CHUNK at a time: each chunk's active systems
    (the equalities stacked over the chosen rows) get one batched rank test,
    which runs the same SVD per matrix as a one-by-one loop.  Row i of the
    result lists the rows of one kept subset; the order is kept.
    """
    dim = a_ub.shape[1]
    n_active = dim - (np.linalg.matrix_rank(a_eq) if a_eq.size else 0)
    kept = [np.empty((0, n_active), dtype=np.intp)]
    subsets = itertools.combinations(range(a_ub.shape[0]), n_active)
    while chunk := list(itertools.islice(subsets, SUBSET_CHUNK)):
        idx = np.array(chunk, dtype=np.intp).reshape(len(chunk), n_active)
        kept.append(idx[np.linalg.matrix_rank(_active_systems(a_eq, a_ub, idx)) >= dim])
    return np.concatenate(kept)


def subset_vertices(a_eq, b_eq, a_ub, b_ub, subsets) -> np.ndarray:
    """Vertices of {a_eq x = b_eq, a_ub x <= b_ub} among rank-tested subsets.

    ``subsets`` comes from :func:`rank_tested_subsets` for the same matrices;
    the right-hand sides may change between calls.  The active systems are
    solved SUBSET_CHUNK at a time with one batched solve, which runs the same
    LAPACK routine per matrix as a one-by-one loop and so gives the same bits.
    Candidates are kept when they satisfy every constraint with slack >=
    VERTEX_SLACK.  Output rows are deduplicated (the last subset wins among
    rows equal to 12 decimals) and sorted lexicographically, which fixes a
    reproducible vertex order.
    """
    found = {}
    for start in range(0, subsets.shape[0], SUBSET_CHUNK):
        x = _chunk_vertices(a_eq, b_eq, a_ub, b_ub, subsets[start:start + SUBSET_CHUNK])
        for key, row in zip(np.round(x, 12).tolist(), x):
            found[tuple(key)] = row
    if not found:
        return np.empty((0, a_ub.shape[1]))
    return np.array(sorted(found.values(), key=tuple))


def _active_systems(a_eq, a_ub, idx) -> np.ndarray:
    """The equalities stacked over the inequality rows of each subset in ``idx``."""
    n = idx.shape[0]
    return np.concatenate([np.broadcast_to(a_eq, (n, *a_eq.shape)), a_ub[idx]], axis=1)


def _chunk_vertices(a_eq, b_eq, a_ub, b_ub, idx) -> np.ndarray:
    """Admissible basic solutions of the full-rank active systems picked by ``idx``.

    Row i of ``idx`` lists the inequality rows made active on top of the
    equalities; the result keeps subset order.
    """
    n, dim = idx.shape[0], a_ub.shape[1]
    mats = _active_systems(a_eq, a_ub, idx)
    rhs = np.concatenate([np.broadcast_to(b_eq, (n, b_eq.size)), b_ub[idx]], axis=1)
    if mats.shape[1] == dim:
        try:
            x = np.linalg.solve(mats, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:  # an exactly singular matrix: drop only that one
            solved = {}
            for i, (mat, b) in enumerate(zip(mats, rhs)):
                try:
                    solved[i] = np.linalg.solve(mat, b)
                except np.linalg.LinAlgError:
                    pass
            keep = list(solved)
            mats, rhs = mats[keep], rhs[keep]
            x = np.array(list(solved.values())).reshape(len(keep), dim)
    else:  # dependent equality rows: over-determined but consistent systems
        x = np.array([np.linalg.lstsq(mat, b, rcond=None)[0] for mat, b in zip(mats, rhs)])
        x = x.reshape(mats.shape[0], dim)

    # every product below is one gemv per candidate, as in a per-subset loop
    residual = np.abs(np.matmul(mats, x[..., None])[..., 0] - rhs).sum(axis=1)
    ok = ~(residual > 1e-9 * (1.0 + np.abs(rhs).sum(axis=1)))  # active set consistent
    x = x[ok]
    x[np.abs(x) < 1e-13] = 0.0
    ok = np.ones(x.shape[0], dtype=bool)
    if a_ub.size:
        slack = b_ub - np.matmul(a_ub, x[..., None])[..., 0]
        ok &= ~(slack.min(axis=1) < VERTEX_SLACK)
    if a_eq.size:
        eq_err = np.abs(np.matmul(a_eq, x[..., None])[..., 0] - b_eq).sum(axis=1)
        ok &= ~(eq_err > 1e-9 * (1.0 + l1(b_eq)))
    return x[ok]


def empty_rows(spec: NetworkSpec, zero_classes) -> frozenset:
    """The capacity rows all of whose member classes are in ``zero_classes``.

    A station is treated as empty as soon as every one of its classes is;
    this keeps the viability-constrained polytope nonempty in all cases.
    """
    zero = frozenset(zero_classes)
    return frozenset(i for i, classes in enumerate(spec.members) if zero.issuperset(classes))


def admissible_constraints(spec: NetworkSpec, empty):
    """Constraint system (a_eq, b_eq, a_ub, b_ub) of the admissible set.

    ``empty`` holds the indices of the empty capacity rows (the empty stations
    of a work-conserving network, the empty classes of a priority network).
    A busy row must be used at full rate (capacity row @ u = 1), an empty one
    may idle (capacity row @ u <= 1), and allocations are nonnegative.
    """
    n = spec.capacity.shape[0]
    empty = frozenset(int(i) for i in empty)
    for i in empty:
        if not 0 <= i < n:
            raise DimensionMismatch(f"capacity row {i} out of range for {n} rows")
    busy = [i for i in range(n) if i not in empty]
    idx = sorted(empty)
    a_ub = np.vstack([-np.eye(spec.K), spec.capacity[idx]])
    b_ub = np.concatenate([np.zeros(spec.K), np.ones(len(idx))])
    return spec.capacity[busy], np.ones(len(busy)), a_ub, b_ub


# Old per-discipline names, kept because the fixed benchmark harness (perfbench/) calls them.
work_conserving_constraints = priority_constraints = admissible_constraints


def admissible_polytope(spec: NetworkSpec, empty=()) -> ControlPolytope:
    """Admissible allocation rates when the capacity rows in ``empty`` are empty."""
    verts = enumerate_polytope_vertices(spec.K, *admissible_constraints(spec, empty))
    if verts.shape[0] == 0:
        raise InfeasibleActiveSet(f"no admissible allocation with empty rows {sorted(empty)}")
    return ControlPolytope(verts, frozenset(int(i) for i in empty), spec.discipline)


#: Largest station or class count whose boundary configurations are enumerated
CONFIGURATION_CAP = 16


def boundary_configurations(spec: NetworkSpec):
    """All boundary configurations relevant to drift checks.

    Yields every proper subset of capacity rows (stations of a
    work-conserving network, classes of a priority one) as a candidate empty
    set: properness means some class can hold
    fluid, so the configuration is realized by a nonzero state.
    """
    n = spec.capacity.shape[0]
    if n > CONFIGURATION_CAP:
        raise DimensionTooLarge(
            f"{2 ** n} boundary configurations exceeds cap 2^{CONFIGURATION_CAP}"
        )
    items = range(n)
    for size in range(n):
        yield from (frozenset(c) for c in itertools.combinations(items, size))


def maximal_configurations(spec: NetworkSpec):
    """The n maximal proper boundary configurations, n - 1 items each.

    Yields the subsets of n - 1 of the n capacity rows in lexicographic
    order; for n = 1 the single empty set.  For E within E', the admissible
    set of E is the face of the admissible set of E' on which the extra
    capacity rows of E' (busy under E) hold with equality, and every vertex
    of a face is a vertex of the polytope.  So the vertices of these n configurations are
    the vertices of all 2^n - 1 proper ones.  Each is still enumerated
    exactly, at C(rows, n - 1) subsets, hence the same cap as
    :func:`boundary_configurations`.
    """
    n = spec.capacity.shape[0]
    if n > CONFIGURATION_CAP:
        raise DimensionTooLarge(
            f"{n} maximal boundary configurations exceeds cap {CONFIGURATION_CAP}"
        )
    yield from (frozenset(c) for c in itertools.combinations(range(n), n - 1))
