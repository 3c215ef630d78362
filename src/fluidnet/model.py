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
are used at full rate, empty rows may idle.  Each row covers classes of one
station, so the admissible set is a product of per-station simplices (see
:func:`station_options`), and :func:`admissible_polytope` builds its vertices
in closed form; :func:`cut_polytope` adds ``simulate``'s viability rows one at a time.
The subset enumerator :func:`enumerate_polytope_vertices` is not called here:
it is the tests' reference and the benchmark tracer's hook.  A polytope is its
read-only vertex array, one row per vertex, in :func:`vertex_order`.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._util import float_array, is_integer, l1, readonly
from .errors import (
    BadPermutation,
    ConstituencyNotPartition,
    DimensionMismatch,
    DimensionTooLarge,
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


def spectral_radius(P: np.ndarray) -> float:
    """Spectral radius by renormalized power iteration (repeated squaring).

    Tracks |P^(2^m)| in log scale, so the estimate |P^n|^(1/n) converges for
    every matrix, including nilpotent and defective routing chains where the
    plain vector iteration stalls.  Falls back to the row-sum bound if the
    estimate overflows.
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
    for _ in range(64):
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


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    """Validated, immutable description of a fluid network.

    Construct through :func:`validate`; the constructor itself performs no
    checking, and a singular ``outflow``, which ``validate`` rules out, raises
    numpy's LinAlgError.  ``priority`` holds one rank per class (lower rank =
    served first); it is None for work-conserving networks.  ``members`` lists
    the classes that must be empty for each capacity row to be empty.
    ``holds_zero`` is true when the empty state can be held: the balancing
    allocation (:meth:`nominal_allocation`) is admissible.  ``polytopes`` is
    ``dynamics.simulate``'s cache: it maps each set of near-zero classes that
    a run on this spec met to ``(vertices, drift, rows)``: the read-only
    viable vertices, their drift (d/dt of the total mass, rounded to 12
    decimals) and a dict that maps each vertex index picked so far to its
    control and velocity as tuples of floats.  Every run on the same spec
    object shares them (at most 2^K entries; a run that meets the all-zero
    set ends there if ``holds_zero``).
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
    holds_zero: bool = field(init=False, repr=False)
    polytopes: dict = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("alpha", "mu", "routing", "constituency"):
            object.__setattr__(self, name, readonly(name, getattr(self, name)))
        k = self.alpha.shape[0]
        w = (np.eye(k) - self.routing.T) @ np.diag(self.mu)
        object.__setattr__(self, "outflow", readonly("outflow", w))
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
        object.__setattr__(self, "capacity", readonly("capacity", capacity))
        object.__setattr__(self, "members", members)
        u = self.nominal_allocation()
        holds = np.all(u >= -1e-12) and np.all(self.capacity @ u <= 1 + 1e-9)
        object.__setattr__(self, "holds_zero", bool(holds))
        object.__setattr__(self, "polytopes", {})

    @property
    def K(self) -> int:
        return int(self.alpha.shape[0])

    @property
    def J(self) -> int:
        return int(self.constituency.shape[0])

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
    BadPermutation, DimensionMismatch, UnknownDiscipline, and those of
    ``_util.float_array`` for a ragged or non-numeric array.
    """
    alpha = float_array("alpha", alpha)
    mu = float_array("mu", mu)
    routing = float_array("routing", routing)
    constituency = float_array("constituency", constituency)

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
        ranks = tuple(priority)
        if not all(map(is_integer, ranks)) or sorted(ranks) != list(range(k)):
            raise BadPermutation(f"priority ranks must be a permutation of 0..{k - 1}")
        ranks = tuple(map(int, ranks))  # numpy integers become ints
    elif priority is not None:
        raise BadPermutation("priority order given for a work-conserving network")

    return NetworkSpec(alpha, mu, routing, constituency, discipline, ranks)


# ---------------------------------------------------------------------------
# polytopes


def enumerate_polytope_vertices(dim, a_eq, b_eq, a_ub, b_ub) -> np.ndarray:
    """Exact vertex enumeration for a small polytope.

    A vertex makes some subset of the inequality rows active so that, stacked
    with the equalities, the active system has rank ``dim``.  Every subset of
    ``dim - rank(a_eq)`` rows of ``a_ub`` is tried in lexicographic order,
    SUBSET_CHUNK at a time: each chunk's active systems get one batched rank
    test and its full-rank ones one batched solve, which run the same SVD and
    LAPACK routine per matrix as a one-by-one loop and so give the same bits.
    Candidates are kept when they satisfy every constraint with slack >=
    VERTEX_SLACK; :func:`vertex_order` then dedupes and orders them.
    Dependent equality rows raise DimensionMismatch: no admissible set has
    them, since busy capacity rows are disjoint across stations and nested
    within one.  The library does not call it: it is the tests' reference and
    the benchmark tracer's hook.
    """
    a_eq = np.asarray(a_eq, dtype=float).reshape(-1, dim)
    b_eq = np.asarray(b_eq, dtype=float).reshape(-1)
    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, dim)
    b_ub = np.asarray(b_ub, dtype=float).reshape(-1)
    rank = np.linalg.matrix_rank(a_eq) if a_eq.size else 0
    if rank < a_eq.shape[0]:
        raise DimensionMismatch(f"{a_eq.shape[0]} equality rows have rank {rank}")
    n_active = dim - rank
    blocks = []
    subsets = itertools.combinations(range(a_ub.shape[0]), n_active)
    while chunk := list(itertools.islice(subsets, SUBSET_CHUNK)):
        idx = np.array(chunk, dtype=np.intp).reshape(len(chunk), n_active)
        idx = idx[np.linalg.matrix_rank(_active_systems(a_eq, a_ub, idx)) >= dim]
        blocks.append(_chunk_vertices(a_eq, b_eq, a_ub, b_ub, idx))
    return vertex_order(blocks, dim)


def vertex_order(blocks, dim: int) -> np.ndarray:
    """The rows of ``blocks`` deduplicated and sorted by their 12-decimal key.

    Rows with equal keys are one vertex, and the last of them is kept.  The
    order follows the rounded key, not the raw floats, so coordinates that
    are equal in exact arithmetic but differ in the last bits (a vertex found
    by another route) do not reorder the vertices, and the selectors, which
    index into this order, pick the same one.  The result is read-only: it is
    the control set itself, and the polytopes ``simulate`` keeps on the spec
    are shared between stamps and between runs.
    """
    found = {}
    for x in blocks:
        for key, row in zip(np.round(x, 12).tolist(), x):
            found[tuple(key)] = row
    return readonly("vertices", [found[key] for key in sorted(found)] or np.empty((0, dim)))


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
    empty = frozenset(empty)
    for i in empty:
        if not (is_integer(i) and 0 <= i < n):
            raise DimensionMismatch(f"capacity row {i!r} is no index in 0..{n - 1}")
    busy = [i for i in range(n) if i not in empty]
    idx = sorted(empty)
    a_ub = np.vstack([-np.eye(spec.K), spec.capacity[idx]])
    b_ub = np.concatenate([np.zeros(spec.K), np.ones(len(idx))])
    return spec.capacity[busy], np.ones(len(busy)), a_ub, b_ub


# Old per-discipline names, kept because the fixed benchmark harness (perfbench/) calls them.
work_conserving_constraints = priority_constraints = admissible_constraints


#: log2 of the largest vertex count :func:`admissible_polytope` builds, of the
#: largest configuration count :func:`boundary_configurations` yields, and of
#: the support count ``lyapunov.quadratic_check``'s copositivity test solves
CONFIGURATION_CAP = 16


def station_options(spec: NetworkSpec, empty) -> list[list[int]]:
    """Per station, what a vertex of the admissible set may do when the capacity
    rows in ``empty`` are empty: serve one class k at full rate (u_k = 1) or idle,
    written K, keeping only the options that hold its busy rows with equality.
    An out-of-range row raises DimensionMismatch."""
    busy = admissible_constraints(spec, empty)[0]
    options = []
    for classes in spec.station_classes:
        rows = busy[busy[:, classes].any(axis=1)]
        options.append([k for k in classes if rows[:, k].all()] + ([] if rows.size else [spec.K]))
    return options


def admissible_polytope(spec: NetworkSpec, empty=()) -> np.ndarray:
    """Vertices of the admissible allocation rates when the capacity rows in
    ``empty`` are empty, one row each, in :func:`vertex_order`: the product of
    the :func:`station_options`, refused past 2^CONFIGURATION_CAP vertices with
    DimensionTooLarge before it is built."""
    options = station_options(spec, empty)
    idle = spec.K  # a spare column collects the stations that idle
    count = math.prod(map(len, options))
    if count > 2 ** CONFIGURATION_CAP:
        raise DimensionTooLarge(f"{count} admissible vertices exceeds cap 2^{CONFIGURATION_CAP}")
    choices = np.array(list(itertools.product(*options)), dtype=np.intp)
    verts = np.zeros((count, spec.K + 1))
    np.put_along_axis(verts, choices, 1.0, axis=1)
    return vertex_order([verts[:, :idle]], spec.K)


def cut_polytope(verts, a_ub, b_ub, a_cut, b_cut) -> np.ndarray:
    """Vertices of the polytope ``verts``, whose inequality rows are ``a_ub``,
    ``b_ub``, cut by a_cut @ u <= b_cut one row at a time (double description):
    vertices with slack >= VERTEX_SLACK stay, and each edge crossing the row
    gets a vertex there.  Two vertices span an edge when no third one is
    active on every row they share, which stays exact on degenerate vertices.
    """
    active = np.abs(verts @ a_ub.T - b_ub) <= -VERTEX_SLACK
    for a, b in zip(a_cut, b_cut):
        slack = b - verts @ a
        inside, keep = slack > -VERTEX_SLACK, slack >= VERTEX_SLACK
        i, j = np.nonzero(inside[:, None] & ~keep)
        common = active[i] & active[j]
        edge = (common @ active.T.astype(float) == common.sum(axis=1)[:, None]).sum(axis=1) == 2
        i, j, common = i[edge], j[edge], common[edge]
        t = (slack[i] / (slack[i] - slack[j]))[:, None]
        verts = np.vstack([verts[keep], verts[i] + t * (verts[j] - verts[i])])
        active = np.vstack([np.column_stack([active[keep], ~inside[keep]]),
                            np.column_stack([common, np.ones(len(i), dtype=bool)])])
    return vertex_order([verts], verts.shape[1])


def boundary_configurations(spec: NetworkSpec):
    """All boundary configurations, for the exact piecewise-linear drift check.

    Yields every proper subset of capacity rows (stations of a
    work-conserving network, classes of a priority one) as a candidate empty
    set: properness means some class can hold fluid, so the configuration is
    realized by a nonzero state.
    """
    n = spec.capacity.shape[0]
    if n > CONFIGURATION_CAP:
        raise DimensionTooLarge(
            f"{2 ** n} boundary configurations exceeds cap 2^{CONFIGURATION_CAP}"
        )
    items = range(n)
    for size in range(n):
        yield from (frozenset(c) for c in itertools.combinations(items, size))
