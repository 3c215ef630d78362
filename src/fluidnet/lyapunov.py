"""State-dependent stability functionals and certificates.

The central quantity is the total fluid mass of a path, integral of the l1
level over time.  Its best-path value over all paths through a state serves
as a stability functional: it is squeezed between explicit comparison
functions built from the Lipschitz constant and the draining time, and it
decreases along every path at least as fast as the current mass.

Certificates are checked against the drift set: linear candidates by one LP
over the vertex velocities of the all-empty admissible polytope without its
origin (the vertices of every proper boundary configuration, see
``model.admissible_polytope``), piecewise-linear candidates by one
feasibility LP per boundary configuration and piece, and quadratic
candidates by an exact copositivity test and a drift test at the K corners
of the simplex.  All three are exact; none samples states.
"""
from __future__ import annotations

import itertools
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ._util import (check_count, check_factor, check_seed, child_seeds, float_array,
                    float_scalar, l1, linprog, square_matrix, to_jsonable)
from .dynamics import MinDrain, RandomVertex, Trajectory, simulate
from .errors import (BadCandidate, DimensionMismatch, DimensionTooLarge, NonFiniteInput,
                     ShiftBeyondHorizon, TruncatedWarning)
from .gfn import NetworkPathFamily
from .model import (
    CONFIGURATION_CAP,
    NetworkSpec,
    admissible_polytope,
    boundary_configurations,
    empty_rows,
)


def _mass(levels: np.ndarray) -> np.ndarray:
    return np.abs(levels).sum(axis=1)


def v_functional(traj: Trajectory, t: float) -> float:
    """Tail integral of the l1 level from time t onward; at t = 0 the total
    fluid.  Trapezoidal, so exact for piecewise-linear paths whose grid
    contains the kinks.  A negative or NaN time raises ShiftBeyondHorizon; a
    time that is not one number raises as ``_util.float_scalar``."""
    t = float_scalar("time", t)
    if not t >= 0:
        raise ShiftBeyondHorizon(f"tail integral from the negative or NaN time {t}")
    if not traj.drained:
        warnings.warn(
            "trajectory never drained; tail integral is a lower bound",
            TruncatedWarning,
            stacklevel=2,
        )
    if t >= traj.grid[-1]:
        return 0.0
    grid = traj.grid
    mass = _mass(traj.levels)
    i = int(np.searchsorted(grid, t, side="right"))
    mass_t = float(np.interp(t, grid, mass))
    pts = np.concatenate([[t], grid[i:]])
    vals = np.concatenate([[mass_t], mass[i:]])
    return float(np.sum(0.5 * (vals[:-1] + vals[1:]) * np.diff(pts)))


# ---------------------------------------------------------------------------
# comparison functions


@dataclass(frozen=True)
class ComparisonTriple:
    """Lower bound, upper bound, and decay-rate gauge functions."""

    w1: Callable[[float], float]
    w2: Callable[[float], float]
    w3: Callable[[float], float]

    def is_class_k(self) -> bool:
        """Sampled check: each function vanishes at zero and is strictly
        increasing on 101 evenly spaced points of [0, 10]."""
        grid = np.linspace(0.0, 10.0, 101)
        for w in (self.w1, self.w2, self.w3):
            vals = np.asarray([w(r) for r in grid])
            if abs(vals[0]) > 1e-12:
                return False
            if np.any(np.diff(vals) <= 0):
                return False
        return True


def comparison_functions(lipschitz: float, tau: float) -> ComparisonTriple:
    """The explicit gauges squeezing the best-path mass functional.

    Lower: r^2 / (2 L).  Upper: r^2 (1 + L tau) tau.  Decay: r.  Raises
    BadFactor unless L and tau are finite and positive.
    """
    big_l = check_factor("lipschitz constant", lipschitz)
    t = check_factor("draining time", tau)
    return ComparisonTriple(
        w1=lambda r: r * r / (2.0 * big_l),
        w2=lambda r: r * r * (1.0 + big_l * t) * t,
        w3=float,
    )


# ---------------------------------------------------------------------------
# best-path search


#: Depth d branches 3 + 9 + ... + 3^d prefix selectors, one simulate each, so
#: each level triples the search.  The ``lyapunov`` command at its defaults
#: (horizon 50, step 0.01, K + 8 states) took 2.5-6.5 s at depth 5 and
#: 7.7-18 s at depth 6 on the five stable fixtures (two runs each, one process
#: on a 2-core x86-64 machine).
MAX_DEPTH = 6


@dataclass(frozen=True)
class SearchBudget:
    depth: int = 0
    multistarts: int = 0
    seed: int = 42

    def __post_init__(self):
        check_seed(self.seed)
        check_count("multistarts", self.multistarts)
        check_count("depth", self.depth, MAX_DEPTH)


@dataclass(frozen=True)
class VEstimate:
    """Result of the best-path search: a value, its witness trajectory, and
    whether the value is exact, a lower bound, or evidence of divergence."""

    value: float
    trajectory: Trajectory
    status: str  # exact | lower_bound | not_drained | diverged

    @property
    def drained(self) -> bool:
        return self.status in ("exact", "lower_bound")


class _PrefixSelector(MinDrain):
    """Forced vertex indices for the first selections, then greedy slow drain."""

    def __init__(self, prefix):
        self.prefix = tuple(prefix)
        self.name = f"prefix{self.prefix}"
        self._calls = 0

    def start_run(self):
        self._calls = 0

    def choose(self, t, q, vertices, drift):
        if self._calls < len(self.prefix):
            self._calls += 1
            return self.prefix[self._calls - 1] % len(vertices)
        return super().choose(t, q, vertices, drift)


_BRANCH_BASE = 3


def _search_runs(family: NetworkPathFamily, x, budget: SearchBudget):
    """The budget's prefix and random runs of a network family, one at a time."""
    for depth in range(1, budget.depth + 1):
        for prefix in itertools.product(range(_BRANCH_BASE), repeat=depth):
            yield simulate(family.spec, x, _PrefixSelector(prefix), family.horizon, family.h)
    for seed in child_seeds(budget.seed, budget.multistarts):
        yield simulate(family.spec, x, RandomVertex(seed), family.horizon, family.h)


def approximate_V(family, x, budget: SearchBudget = SearchBudget()) -> VEstimate:
    """Best total-fluid value over family paths through x, the first of equal values.

    The runs start with ``family.paths_from(x)``, all an explicit family has,
    so its value is exact.  A network family's search adds, each run over the
    family's horizon with its step h, branched vertex prefixes up to
    ``budget.depth`` selections deep and ``budget.multistarts`` random
    rollouts; its value, the running max over drained runs, is a lower bound
    that a larger budget never decreases.
    """
    x = float_array("state", x)
    searched = isinstance(family, NetworkPathFamily)
    runs = family.paths_from(x)
    if searched:
        runs = itertools.chain(runs, _search_runs(family, x, budget))

    best_value = -np.inf
    best_traj = None
    best_undrained = None
    best_undrained_value = -np.inf
    for traj in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncatedWarning)
            value = v_functional(traj, 0.0)
        if traj.drained:
            if value > best_value:
                best_value, best_traj = value, traj
        elif value > best_undrained_value:
            best_undrained_value, best_undrained = value, traj
    if best_traj is not None:
        return VEstimate(best_value, best_traj, "lower_bound" if searched else "exact")
    final_masses = _mass(best_undrained.levels)
    status = "diverged" if final_masses[-1] >= l1(x) else "not_drained"
    return VEstimate(best_undrained_value, best_undrained, status)


# ---------------------------------------------------------------------------
# sandwich and decrease checks


def check_sandwich(pairs, triple: ComparisonTriple) -> dict:
    """Verify w1(|x|) <= V(x) <= w2(|x|) for every (state, value) pair.

    Violations are returned, not raised.
    """
    rows = []
    violations = []
    for state, value in pairs:
        r = l1(state)
        lo, hi = triple.w1(r), triple.w2(r)
        ok = lo <= value + 1e-12 and value <= hi + 1e-12
        row = {
            "state": list(np.asarray(state, dtype=float)),
            "norm": r,
            "lower": lo,
            "value": float(value),
            "upper": hi,
            "ok": ok,
        }
        rows.append(row)
        if not ok:
            violations.append(row)
    return {"checked": len(rows), "violations": violations, "ok": not violations, "rows": rows}


def check_decrease(v_fn, traj: Trajectory, w3, *, max_stamps: int | None = None) -> dict:
    """Verify V(Q(t)) - V(Q(s)) <= -integral_s^t w3(|Q|) for all stamp pairs,
    up to a slack of 1e-4 (1 + V(Q(0))).

    The integral is accumulated on the full grid; V is evaluated on at most
    ``max_stamps`` >= 2 stamps (evenly thinned) when given, since V may be costly.
    The worst margin over all pairs is found by a single max-drawup pass.
    """
    grid = traj.grid
    mass = _mass(traj.levels)
    w3_vals = np.asarray([float(w3(m)) for m in mass])
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (w3_vals[:-1] + w3_vals[1:]) * np.diff(grid))])

    idx = np.arange(len(grid))
    if max_stamps is not None and len(grid) > check_count("max_stamps", max_stamps, low=2):
        idx = np.unique(np.linspace(0, len(grid) - 1, max_stamps).round().astype(int))
    v_vals = np.asarray([float(v_fn(traj.levels[i])) for i in idx])
    slack = 1e-4 * (1.0 + v_vals[0])

    g = v_vals + cum[idx]
    # worst over s<t of g[t]-g[s]: track the running minimum
    run_min = np.minimum.accumulate(g)
    margins = g[1:] - run_min[:-1]
    worst = float(margins.max()) if margins.size else 0.0
    t_idx = int(np.argmax(margins)) + 1 if margins.size else 0
    s_idx = int(np.argmin(g[:t_idx])) if t_idx else 0
    return {
        "worst_margin": worst,
        "slack": float(slack),
        "ok": worst <= slack,
        "worst_pair": [float(grid[idx[s_idx]]), float(grid[idx[t_idx]])] if margins.size else None,
        "stamps_checked": int(len(idx)),
    }


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True, eq=False)
class Certificate:
    """A stability certificate candidate with its verification outcome."""

    kind: str  # linear | piecewise_linear | quadratic
    data: dict
    epsilon: float
    status: str  # Verified | Falsified | Unknown
    witness: dict | None = None
    meta: dict = field(default_factory=dict)

    def to_report(self) -> dict:
        return to_jsonable(
            {
                "kind": self.kind,
                "data": self.data,
                "epsilon": self.epsilon,
                "status": self.status,
                "witness": self.witness,
                "meta": self.meta,
            }
        )


def linear_certificate_search(spec: NetworkSpec) -> Certificate:
    """One LP for a positive weight vector with uniformly negative drift.

    Finds h in [1e-6, 1]^K maximizing the margin epsilon >= 1e-6 subject to
    h . v <= -epsilon for every admissible vertex velocity v of every
    proper boundary configuration.  Each of their polytopes is a face of the
    all-empty one, and together they hold all its vertices but the origin,
    which :func:`model.vertex_order` sorts first.  Infeasibility yields
    Unknown, never Falsified: linear certificates are sufficient, not
    necessary.
    """
    verts = admissible_polytope(spec, range(spec.capacity.shape[0]))[1:]
    drifts = verts @ (-spec.outflow.T) + spec.alpha
    k = spec.K
    n = drifts.shape[0]
    c = np.zeros(k + 1)
    c[-1] = -1.0  # maximize epsilon
    a_ub = np.hstack([drifts, np.ones((n, 1))])
    b_ub = np.zeros(n)
    bounds = [(1e-6, 1.0)] * k + [(1e-6, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds)
    meta = {"drift_rows": int(n)}
    if not res.success:
        return Certificate("linear", {"h": None}, 0.0, "Unknown", meta=meta)
    h = res.x[:k]
    eps = float(res.x[-1])
    return Certificate("linear", {"h": h.tolist()}, eps, "Verified", meta=meta)


def _verdict(kind, data, margin, witness, epsilon) -> Certificate:
    """Verified when the worst margin reaches epsilon, Falsified when the
    witness rises (margin below -1e-12), Unknown in between."""
    meta = {"required_epsilon": epsilon}
    if margin >= epsilon:
        return Certificate(kind, data, margin, "Verified", None, meta)
    if margin < -1e-12:
        return Certificate(kind, data, 0.0, "Falsified", witness, meta)
    return Certificate(kind, data, max(margin, 0.0), "Unknown", witness, meta)


def piecewise_linear_check(spec: NetworkSpec, h_list, *, epsilon: float = 1e-6) -> Certificate:
    """Exact drift check of max_j h_j . x as a certificate.

    For each boundary configuration E and piece j, one feasibility LP looks
    for a unit state on E's closed face (the classes of E's rows at 0) at
    which piece j is on top.  Where there is one, the upper derivative of the
    max, h_j . v, must be at most -epsilon at every vertex velocity v of E's
    polytope.  A state on the closed face empties E's rows and perhaps more,
    and its own polytope contains E's, so the LP's state and the worst vertex
    make a witness.  Nonnegative pieces with no all-zero coordinate are
    positive on the orthant.  The margin is the worst -h_j . v over every
    (E, j) whose LP is feasible.  The pieces must form an (N >= 1, K) array
    (DimensionMismatch; a K-vector is one piece) of finite entries (NonFiniteInput).
    """
    h_mat = np.atleast_2d(float_array("pieces", h_list))
    if h_mat.ndim != 2 or not len(h_mat) or h_mat.shape[1] != spec.K:
        raise DimensionMismatch(f"pieces need shape (N >= 1, {spec.K}), got {h_mat.shape}")
    if not np.all(np.isfinite(h_mat)):
        raise NonFiniteInput(f"pieces need finite entries, got {h_mat.tolist()}")
    if np.any(h_mat < 0):
        raise BadCandidate("piecewise-linear pieces must be nonnegative vectors")
    if np.any(h_mat.max(axis=0) <= 0):
        raise BadCandidate("some coordinate is zero in every piece; candidate vanishes")
    margin, witness = np.inf, None
    for empty in boundary_configurations(spec):
        verts = admissible_polytope(spec, empty)
        piece_derivs = h_mat @ (verts @ (-spec.outflow.T) + spec.alpha).T  # (piece, vertex)
        zero = {k for row in empty for k in spec.members[row]}
        bounds = [(0.0, 0.0 if k in zero else None) for k in range(spec.K)]
        for j, derivs in enumerate(piece_derivs):
            worst = int(np.argmax(derivs))
            if -derivs[worst] >= margin:
                continue  # cannot lower the margin, feasible or not
            res = linprog(np.zeros(spec.K), A_ub=h_mat - h_mat[j], b_ub=np.zeros(len(h_mat)),
                          A_eq=np.ones((1, spec.K)), b_eq=[1.0], bounds=bounds)
            if res.status == 2:
                continue  # infeasible: piece j is nowhere on top on this face
            margin = float(-derivs[worst])
            witness = {"state": np.maximum(res.x, 0.0).tolist(), "piece": j,
                       "control": verts[worst].tolist(), "derivative": -margin,
                       "reason": "drift not sufficiently negative"}
    return _verdict("piecewise_linear", {"h_list": h_mat.tolist()}, margin, witness, epsilon)


def _simplex_minimum(a: np.ndarray):
    """Exact minimum of x . A x over the unit simplex, and a minimizer.

    On its support S a minimizer solves A_S x = lambda 1, sum x = 1.  One of
    least support has a nonsingular system: a null direction would keep the
    value along a line that empties a class.  So the minimum is among the
    nonnegative solutions of every support's system; each is clipped and
    rescaled onto the simplex before its value is taken, so no candidate
    reads below the true minimum.  More than CONFIGURATION_CAP classes
    raises DimensionTooLarge before any solve.
    """
    k = a.shape[0]
    if k > CONFIGURATION_CAP:
        raise DimensionTooLarge(f"{2 ** k - 1} supports exceeds cap 2^{CONFIGURATION_CAP}")
    best_value, best_x = np.inf, None
    for size in range(1, k + 1):
        supports = np.array(list(itertools.combinations(range(k), size)), dtype=np.intp)
        systems = np.zeros((len(supports), size + 1, size + 1))
        systems[:, :size, :size] = a[supports[:, :, None], supports[:, None, :]]
        systems[:, :size, size] = -1.0
        systems[:, size, :size] = 1.0
        # pinv, not solve: a singular system gives some point instead of an error
        x_s = np.linalg.pinv(systems)[:, :size, size]
        keep = (x_s >= -1e-12).all(axis=1) & (x_s.sum(axis=1) > 0.0)
        x_s = np.maximum(x_s[keep], 0.0)
        x = np.zeros((len(x_s), k))
        np.put_along_axis(x, supports[keep], x_s / x_s.sum(axis=1, keepdims=True), axis=1)
        values = np.einsum("ik,kl,il->i", x, a, x)
        if values.size and values.min() < best_value:
            best_value, best_x = float(values.min()), x[np.argmin(values)]
    return best_value, best_x


def quadratic_check(spec: NetworkSpec, a_matrix, *, epsilon: float = 1e-6) -> Certificate:
    """Exact check of x . A x as a certificate.

    Strict copositivity is the exact simplex minimum of
    :func:`_simplex_minimum`.  The derivative under control u is
    2 x . A v(u), linear in x for a fixed v, so on the unit simplex its worst
    state is a corner e_k; every state with class k nonempty empties only
    rows that do not cover k, so its polytope lies inside e_k's.  The drift
    check therefore takes the K corners, each over its own polytope.  A must be
    a finite K x K matrix (``_util.square_matrix``).
    """
    a = square_matrix("quadratic candidate", a_matrix, spec.K)
    a = 0.5 * (a + a.T)
    data = {"A": a.tolist()}
    value, state = _simplex_minimum(a)
    if value <= 1e-12:
        witness = {"state": state.tolist(), "value": value,
                   "reason": "candidate not positive on the orthant"}
        return _verdict("quadratic", data, -np.inf, witness, epsilon)
    margin, witness = np.inf, None
    for k in range(spec.K):
        verts = admissible_polytope(spec, empty_rows(spec, set(range(spec.K)) - {k}))
        derivs = 2.0 * (verts @ (-spec.outflow.T) + spec.alpha) @ a[k]
        worst = int(np.argmax(derivs))
        if -derivs[worst] < margin:
            margin = float(-derivs[worst])
            witness = {"state": np.eye(spec.K)[k].tolist(), "control": verts[worst].tolist(),
                       "derivative": -margin, "reason": "drift not sufficiently negative"}
    return _verdict("quadratic", data, margin, witness, epsilon)
