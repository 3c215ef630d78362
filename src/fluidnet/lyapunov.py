"""State-dependent stability functionals and certificates.

The central quantity is the total fluid mass of a path, integral of the l1
level over time.  Its best-path value over all paths through a state serves
as a stability functional: it is squeezed between explicit comparison
functions built from the Lipschitz constant and the draining time, and it
decreases along every path at least as fast as the current mass.

Certificates are checked against the drift set: linear candidates by one LP
over the vertex velocities of the n maximal boundary configurations (whose
vertices are those of every proper configuration, see
``model.maximal_configurations``), piecewise-linear and quadratic candidates
by seeded sampled-drift verification over every boundary configuration.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from ._util import check_count, check_factor, check_seed, child_seeds, l1, rng_from, to_jsonable
from .dynamics import (
    ControlSelector,
    FirstVertex,
    MaxDrain,
    MinDrain,
    RandomVertex,
    Trajectory,
    simulate,
)
from .errors import BadCandidate, TruncatedWarning
from .gfn import ExplicitPathFamily, NetworkPathFamily
from .model import (
    NetworkSpec,
    admissible_polytope,
    boundary_configurations,
    maximal_configurations,
)


def _mass(levels: np.ndarray) -> np.ndarray:
    return np.abs(levels).sum(axis=1)


def total_fluid(traj: Trajectory) -> float:
    """Integral over time of the l1 fluid level (trapezoidal, exact for
    piecewise-linear paths whose grid contains the kinks).

    Warns with TruncatedWarning when the trajectory never drained; the value
    is then only a lower bound on the full integral.
    """
    if not traj.drained:
        warnings.warn(
            "trajectory never drained; total fluid is a lower bound",
            TruncatedWarning,
            stacklevel=2,
        )
    mass = _mass(traj.levels)
    dt = np.diff(traj.grid)
    return float(np.sum(0.5 * (mass[:-1] + mass[1:]) * dt))


def v_functional(traj: Trajectory, t: float) -> float:
    """Tail integral of the l1 level from time t onward."""
    if not traj.drained:
        warnings.warn(
            "trajectory never drained; tail integral is a lower bound",
            TruncatedWarning,
            stacklevel=2,
        )
    if t >= traj.grid[-1]:
        return 0.0
    t = max(float(t), 0.0)
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
class ScalarFn:
    """A named scalar function of one nonnegative argument."""

    name: str
    fn: object

    def __call__(self, r: float) -> float:
        return float(self.fn(r))


@dataclass(frozen=True)
class ComparisonTriple:
    """Lower bound, upper bound, and decay-rate gauge functions."""

    w1: ScalarFn
    w2: ScalarFn
    w3: ScalarFn

    def is_class_k(self, grid=None) -> bool:
        """Sampled check: each function vanishes at zero and is strictly
        increasing on the grid."""
        if grid is None:
            grid = np.linspace(0.0, 10.0, 101)
        grid = np.asarray(grid, dtype=float)
        for w in (self.w1, self.w2, self.w3):
            vals = np.asarray([w(r) for r in grid])
            if grid[0] == 0 and abs(vals[0]) > 1e-12:
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
        w1=ScalarFn(f"r^2/(2*{big_l:g})", lambda r: r * r / (2.0 * big_l)),
        w2=ScalarFn(f"r^2*(1+{big_l:g}*{t:g})*{t:g}", lambda r: r * r * (1.0 + big_l * t) * t),
        w3=ScalarFn("r", lambda r: float(r)),
    )


# ---------------------------------------------------------------------------
# best-path search


#: Depth d branches 3 + 9 + ... + 3^d prefix selectors, one simulate each, so
#: each level triples the search.  The ``lyapunov`` command at its defaults
#: (horizon 50, step 0.01, K + 8 states) took 13-105 s at depth 5, 37-326 s at
#: depth 6 and 123-953 s at depth 7 on the five stable fixtures (one process
#: on a 2-core x86-64 machine); the cap keeps the slowest under six minutes.
MAX_DEPTH = 6


@dataclass(frozen=True)
class SearchBudget:
    horizon: float = 40.0
    step: float = 0.02
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


class _PrefixSelector(ControlSelector):
    """Forced vertex indices for the first selections, then greedy slow drain."""

    def __init__(self, prefix):
        self.prefix = tuple(int(i) for i in prefix)
        self.name = f"prefix{self.prefix}"
        self._calls = 0
        self._tail = MinDrain()

    def start_run(self):
        self._calls = 0
        self._tail.start_run()

    def choose(self, t, q, vertices, velocities):
        if self._calls < len(self.prefix):
            idx = self.prefix[self._calls] % len(vertices)
            self._calls += 1
            return idx
        self._calls += 1
        return self._tail.choose(t, q, vertices, velocities)


_BRANCH_BASE = 3


def approximate_V(family, x, budget: SearchBudget = SearchBudget()) -> VEstimate:
    """Best total-fluid value over family paths through x.

    Explicit families are enumerated exactly.  Network families are searched:
    a deterministic selector ensemble, branched vertex prefixes up to
    ``budget.depth`` selections deep, and ``budget.multistarts`` random
    rollouts; the result is the running max over all drained candidates, so
    enlarging the budget never decreases the value.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(family, ExplicitPathFamily):
        paths = family.paths_from(x)
        values = [total_fluid(p) for p in paths]
        best = int(np.argmax(values))
        return VEstimate(float(values[best]), paths[best], "exact")
    if not isinstance(family, NetworkPathFamily):
        raise TypeError(f"unsupported family type {type(family)!r}")

    selectors: list[ControlSelector] = [MinDrain(), MaxDrain(), FirstVertex()]
    for depth in range(1, budget.depth + 1):
        for prefix in itertools.product(range(_BRANCH_BASE), repeat=depth):
            selectors.append(_PrefixSelector(prefix))
    if budget.multistarts > 0:
        selectors.extend(RandomVertex(s) for s in child_seeds(budget.seed, budget.multistarts))

    best_value = -np.inf
    best_traj = None
    best_undrained = None
    best_undrained_value = -np.inf
    for sel in selectors:
        traj = simulate(family.spec, x, sel, budget.horizon, budget.step)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncatedWarning)
            value = total_fluid(traj)
        if traj.drained:
            if value > best_value:
                best_value, best_traj = value, traj
        elif value > best_undrained_value:
            best_undrained_value, best_undrained = value, traj
    if best_traj is not None:
        return VEstimate(best_value, best_traj, "lower_bound")
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


def check_decrease(v_fn, traj: Trajectory, w3, *, slack: float | None = None,
                   max_stamps: int | None = None) -> dict:
    """Verify V(Q(t)) - V(Q(s)) <= -integral_s^t w3(|Q|) for all stamp pairs.

    The integral is accumulated on the full grid; V is evaluated on at most
    ``max_stamps`` stamps (evenly thinned) when given, since V may be costly.
    The worst margin over all pairs is found by a single max-drawup pass.
    """
    grid = traj.grid
    mass = _mass(traj.levels)
    w3_vals = np.asarray([float(w3(m)) for m in mass])
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (w3_vals[:-1] + w3_vals[1:]) * np.diff(grid))])

    idx = np.arange(len(grid))
    if max_stamps is not None and len(grid) > max_stamps:
        idx = np.unique(np.linspace(0, len(grid) - 1, max_stamps).round().astype(int))
    v_vals = np.asarray([float(v_fn(traj.levels[i])) for i in idx])
    if slack is None:
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


def _drift_vertices(spec: NetworkSpec):
    """Deduplicated (control, velocity) rows of every proper boundary configuration.

    Only the n maximal configurations are enumerated: their vertices are the
    vertices of all 2^n - 1 proper ones (``model.maximal_configurations``).
    """
    seen = {}
    for empty in maximal_configurations(spec):
        verts = admissible_polytope(spec, empty)
        velocities = verts @ (-spec.outflow.T) + spec.alpha
        for u, v in zip(verts, velocities):
            seen[tuple(np.round(v, 12))] = (u, v)
    controls = np.array([u for u, _ in seen.values()])
    drifts = np.array([v for _, v in seen.values()])
    return controls, drifts


def linear_certificate_search(spec: NetworkSpec) -> Certificate:
    """One LP for a positive weight vector with uniformly negative drift.

    Finds h in [1e-6, 1]^K maximizing the margin epsilon >= 1e-6 subject to
    h . v <= -epsilon for every admissible vertex velocity v of every
    proper boundary configuration, collected from the n maximal ones by
    :func:`_drift_vertices`.  Infeasibility yields Unknown, never Falsified:
    linear certificates are sufficient, not necessary.
    """
    _, drifts = _drift_vertices(spec)
    k = spec.K
    n = drifts.shape[0]
    c = np.zeros(k + 1)
    c[-1] = -1.0  # maximize epsilon
    a_ub = np.hstack([drifts, np.ones((n, 1))])
    b_ub = np.zeros(n)
    bounds = [(1e-6, 1.0)] * k + [(1e-6, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    meta = {"drift_rows": int(n)}
    if not res.success:
        return Certificate("linear", {"h": None}, 0.0, "Unknown", meta=meta)
    h = res.x[:k]
    eps = float(res.x[-1])
    return Certificate("linear", {"h": h.tolist()}, eps, "Verified", meta=meta)


def _pattern_states(spec: NetworkSpec, empty, n_samples: int, rng) -> np.ndarray:
    """Unit-l1-sphere states realizing a boundary configuration."""
    zero_classes = sorted(k for row in empty for k in spec.members[row])
    support = [k for k in range(spec.K) if k not in zero_classes]
    states = np.zeros((n_samples, spec.K))
    states[:, support] = rng.dirichlet(np.ones(len(support)), size=n_samples)
    return states


def _sampled_drift_check(spec, derivative_fn, positivity_fn, *, epsilon, samples, seed):
    """Shared driver for piecewise-linear and quadratic candidates.

    derivative_fn(states, velocities) -> per-state worst directional
    derivative; positivity_fn(states) -> per-state candidate value (must be
    strictly positive away from zero).
    """
    rng = rng_from(seed)
    worst_margin = np.inf
    checked = 0
    for empty in boundary_configurations(spec):
        verts = admissible_polytope(spec, empty)
        velocities = verts @ (-spec.outflow.T) + spec.alpha
        states = _pattern_states(spec, empty, samples, rng)
        values = positivity_fn(states)
        if np.any(values <= 1e-12):
            i = int(np.argmin(values))
            return 0.0, checked, {
                "state": states[i].tolist(),
                "value": float(values[i]),
                "reason": "candidate not positive on the orthant",
            }
        derivs, arg_vertices = derivative_fn(states, velocities)
        checked += len(states)
        norms = states.sum(axis=1)  # states are nonnegative
        bad = derivs > -epsilon * norms
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            return (
                float(np.min(-derivs / norms)),
                checked,
                {
                    "state": states[i].tolist(),
                    "control": verts[arg_vertices[i]].tolist(),
                    "derivative": float(derivs[i]),
                    "reason": "drift not sufficiently negative",
                },
            )
        worst_margin = min(worst_margin, float(np.min(-derivs / norms)))
    return worst_margin, checked, None


def piecewise_linear_check(spec: NetworkSpec, h_list, *, epsilon: float = 1e-6,
                           samples: int = 1000, seed: int = 42) -> Certificate:
    """Sampled-drift verification of max_j h_j . x as a certificate.

    At kink states every active piece is checked (upper derivative of a max).
    """
    h_mat = np.asarray(h_list, dtype=float).reshape(-1, spec.K)
    if np.any(h_mat < 0):
        raise BadCandidate("piecewise-linear pieces must be nonnegative vectors")
    if np.any(h_mat.max(axis=0) <= 0):
        raise BadCandidate("some coordinate is zero in every piece; candidate vanishes")

    def positivity(states):
        return (states @ h_mat.T).max(axis=1)

    def derivative(states, velocities):
        piece_vals = states @ h_mat.T  # (n, N)
        top = piece_vals.max(axis=1, keepdims=True)
        active = piece_vals >= top - 1e-12 * (1.0 + np.abs(top))
        piece_derivs = h_mat @ velocities.T  # (N, m)
        best_vertex = piece_derivs.argmax(axis=1)  # per piece
        per_piece = piece_derivs.max(axis=1)  # (N,)
        masked = np.where(active, per_piece[None, :], -np.inf)
        derivs = masked.max(axis=1)
        arg_piece = masked.argmax(axis=1)
        return derivs, best_vertex[arg_piece]

    margin, checked, witness = _sampled_drift_check(
        spec, derivative, positivity, epsilon=epsilon, samples=samples, seed=seed
    )
    meta = {"samples": checked, "seed": seed, "required_epsilon": epsilon}
    data = {"h_list": h_mat.tolist()}
    if witness is not None:
        if witness.get("derivative", -1.0) > 1e-12:
            return Certificate("piecewise_linear", data, 0.0, "Falsified", witness, meta)
        return Certificate("piecewise_linear", data, max(margin, 0.0), "Unknown", witness, meta)
    return Certificate("piecewise_linear", data, margin, "Verified", None, meta)


def quadratic_check(spec: NetworkSpec, a_matrix, *, epsilon: float = 1e-6,
                    samples: int = 1000, seed: int = 42) -> Certificate:
    """Sampled-drift verification of x . A x as a certificate.

    Strict copositivity is checked on the same samples; the directional
    derivative under control u is 2 x . A v(u).
    """
    a = np.asarray(a_matrix, dtype=float)
    a = 0.5 * (a + a.T)

    def positivity(states):
        return np.einsum("ik,kl,il->i", states, a, states)

    def derivative(states, velocities):
        grads = 2.0 * states @ a  # (n, K)
        all_derivs = grads @ velocities.T  # (n, m)
        return all_derivs.max(axis=1), all_derivs.argmax(axis=1)

    margin, checked, witness = _sampled_drift_check(
        spec, derivative, positivity, epsilon=epsilon, samples=samples, seed=seed
    )
    meta = {"samples": checked, "seed": seed, "required_epsilon": epsilon}
    data = {"A": a.tolist()}
    if witness is not None:
        if witness.get("derivative", -1.0) > 1e-12 or "value" in witness:
            return Certificate("quadratic", data, 0.0, "Falsified", witness, meta)
        return Certificate("quadratic", data, max(margin, 0.0), "Unknown", witness, meta)
    return Certificate("quadratic", data, margin, "Verified", None, meta)
