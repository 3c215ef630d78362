"""Closed-loop dynamics of a fluid network.

Between control switches the fluid level moves with constant velocity
``alpha - outflow @ u``, so explicit Euler stepping with event splitting at
zero crossings integrates the dynamics exactly up to the control-switch
resolution ``h``.  Controls are re-selected at every boundary event and at
checkpoints spaced ``h`` apart; in between they are frozen.  The stepping
loop, ``_event_split``, is shared with ``skorokhod.solve_lsp``; it rejects a
negative or non-finite horizon (BadHorizon) and a step that is not finite and
positive (BadStep).

The service discipline enters only through the spec's capacity rows: idle
time, holding the empty state and the admissible set are all per row.  At a
boundary state the admissible polytope is intersected with the velocity
constraints that keep near-empty classes nonnegative, so any vertex the
selector picks yields a viable step.

Within one ``simulate`` run each set of near-zero classes builds its
constraint system and rank-tests its active subsets once.  Classes sliding
along the boundary carry dust of about 1e-18, which changes only the floors,
that is the right-hand side; each such stamp reuses the kept subsets and
solves the same matrices with the same right-hand sides as a full
enumeration would, so the output is byte-identical to enumerating from
scratch at every stamp.  Nothing is kept between runs.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from ._util import fmt, l1, rng_from
from .errors import (
    BadHorizon,
    BadStep,
    DimensionMismatch,
    NegativeState,
    NonFiniteInput,
    StepTooLarge,
)
from .model import (
    ControlPolytope,
    NetworkSpec,
    admissible_constraints,
    empty_rows,
    empty_threshold,
    enumerate_polytope_vertices,
    maximal_configurations,
    rank_tested_subsets,
    subset_vertices,
)

_EVENT_CAP = 1_000_000


def rhs(spec: NetworkSpec, u) -> np.ndarray:
    """Fluid velocity under allocation rates u: alpha - outflow @ u."""
    u = np.asarray(u, dtype=float)
    if u.shape != (spec.K,):
        raise DimensionMismatch(f"control has shape {u.shape}, expected ({spec.K},)")
    return spec.alpha - spec.outflow @ u


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A sampled fluid solution.

    ``grid`` holds strictly increasing time stamps starting at 0; ``levels``
    and ``allocation`` hold the fluid level Q and cumulative allocation T at
    each stamp; ``controls`` holds the allocation rate on each inter-stamp
    interval.  ``drained_at`` is the first time the total mass stayed below
    the emptiness threshold, or None if the run never drained.
    """

    grid: np.ndarray
    levels: np.ndarray
    allocation: np.ndarray
    controls: np.ndarray
    spec: NetworkSpec | None = None
    drained_at: float | None = None

    def __post_init__(self):
        for name in ("grid", "levels", "allocation", "controls"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def K(self) -> int:
        return int(self.levels.shape[1])

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    @property
    def drained(self) -> bool:
        return self.drained_at is not None

    def level_at(self, t) -> np.ndarray:
        """Linear interpolation of Q; zero after the grid once drained."""
        return self._interp(self.levels, t)

    def allocation_at(self, t) -> np.ndarray:
        return self._interp(self.allocation, t, extend_last=True)

    def _interp(self, values, t, extend_last=False):
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape + (self.K,))
        for k in range(self.K):
            out[..., k] = np.interp(t, self.grid, values[:, k])
        beyond = t > self.grid[-1]
        if np.any(beyond) and not (extend_last or self.drained):
            # holding the final value is only sound once the run drained
            # (the held state then sits below the emptiness threshold)
            raise ValueError("time beyond the sampled horizon of an undrained trajectory")
        return out

    def idle(self) -> np.ndarray:
        """Cumulative unused capacity per capacity row (the idle time of each
        station of a work-conserving network) at every stamp."""
        if self.spec is None:
            raise ValueError("idle processes require the generating network")
        return self.grid[:, None] - self.allocation @ self.spec.capacity.T


class ControlSelector:
    """Strategy mapping (time, state, polytope) to an admissible control."""

    name = "selector"

    def start_run(self) -> None:
        """Reset per-run state so repeated runs are reproducible."""

    def choose(self, t, q, polytope: ControlPolytope, velocities: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class FirstVertex(ControlSelector):
    """Always the lexicographically smallest vertex."""

    name = "first_vertex"

    def choose(self, t, q, polytope, velocities):
        return polytope.vertices[0]


class RandomVertex(ControlSelector):
    """Uniformly random vertex; reproducible for a fixed seed."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.name = f"random_vertex({self.seed})"
        self._rng = None

    def start_run(self):
        self._rng = rng_from(self.seed)

    def choose(self, t, q, polytope, velocities):
        if self._rng is None:
            self.start_run()
        return polytope.vertices[int(self._rng.integers(len(polytope)))]


class _TotalVelocityRank(ControlSelector):
    """Picks a vertex by the total velocity of each vertex, rounded to 12 digits.

    The pick depends only on the polytope and its velocities, and ``simulate``
    hands back the same objects on every cache hit, so it is made once per
    polytope object.
    """

    def __init__(self):
        self._last = (None, None, None)

    def start_run(self):
        self._last = (None, None, None)

    def choose(self, t, q, polytope, velocities):
        last_poly, last_velocities, u = self._last
        if polytope is not last_poly or velocities is not last_velocities:
            u = polytope.vertices[self._pick(np.round(velocities.sum(axis=1), 12))]
            self._last = (polytope, velocities, u)
        return u

    def _pick(self, totals) -> int:
        raise NotImplementedError


class MaxDrain(_TotalVelocityRank):
    """Vertex minimizing d/dt of the total mass; ties to the first vertex."""

    name = "max_drain"

    def _pick(self, totals):
        return int(np.argmin(totals))


class MinDrain(_TotalVelocityRank):
    """Vertex maximizing d/dt of the total mass; ties to the first vertex."""

    name = "min_drain"

    def _pick(self, totals):
        return int(np.argmax(totals))


class FixedSequence(ControlSelector):
    """Vertex indices consumed in order, then the last index repeats.

    Indices are taken modulo the current vertex count, so the sequence is
    admissible whatever boundary configuration comes up.
    """

    def __init__(self, indices):
        self.indices = [int(i) for i in indices]
        if not self.indices:
            raise ValueError("FixedSequence needs at least one index")
        self.name = f"fixed_sequence({self.indices})"
        self._pos = 0

    def start_run(self):
        self._pos = 0

    def choose(self, t, q, polytope, velocities):
        idx = self.indices[min(self._pos, len(self.indices) - 1)]
        self._pos += 1
        return polytope.vertices[idx % len(polytope)]


class _ViableSystem:
    """Admissible polytope intersected with the viability half-spaces.

    For each near-zero class k the selected velocity must satisfy
    v_k >= -floor_k, i.e. (outflow @ u)_k <= alpha_k + floor_k; a positive
    floor lets residual dust drain to exactly zero within one step.

    ``pinned`` additionally caps every velocity at zero.  It is applied when
    the whole state is below the emptiness threshold and the zero state can be
    held: growing mass from empty while capacity idles would violate the
    idling complementarity over any interval, so the only faithful directions
    at the drained state are the nonincreasing ones.

    One system serves one set of near-zero classes (which fixes ``empty``
    and ``pinned``) within one ``simulate`` run.  The floors move only the
    right-hand side of the viability rows, so the active subsets that pass the rank test
    are found once and each new set of floors costs only the solves.
    ``exact`` holds the polytope and its vertex velocities for all-zero floors
    once they are known.
    """

    def __init__(self, spec: NetworkSpec, empty, zero_classes, pinned: bool):
        self.spec = spec
        self.empty = frozenset(empty)
        self.zeros = sorted(zero_classes)
        a_eq, b_eq, a_ub, b_ub = admissible_constraints(spec, empty)
        rows = [a_ub, spec.outflow[self.zeros]]
        self._b_head, self._b_tail = b_ub, np.empty(0)
        if pinned:
            rows.append(-spec.outflow)
            self._b_tail = -spec.alpha
        self._a_eq, self._b_eq, self._a_ub = a_eq, b_eq, np.vstack(rows)
        self._alpha_zero = spec.alpha[self.zeros]
        self._subsets = rank_tested_subsets(a_eq, self._a_ub)
        self.exact = None

    def polytope(self, floors: list) -> ControlPolytope:
        """The viable polytope for the given floor of each near-zero class, in class order."""
        spec = self.spec
        b_ub = np.concatenate([self._b_head, self._alpha_zero + np.asarray(floors), self._b_tail])
        verts = subset_vertices(self._a_eq, self._b_eq, self._a_ub, b_ub, self._subsets)
        if verts.shape[0] == 0 and self.zeros:
            # cannot happen for a valid description (idling the near-zero classes is
            # always viable), but fall back to the raw polytope rather than crash
            verts = enumerate_polytope_vertices(spec.K, *admissible_constraints(spec, self.empty))
        return ControlPolytope(verts, self.empty, spec.discipline)


def zero_invariant(spec: NetworkSpec) -> bool:
    """True when the empty state can be held: the balancing allocation is admissible."""
    u = spec.nominal_allocation()
    if np.any(u < -1e-12):
        return False
    return bool(np.all(spec.capacity @ u <= 1 + 1e-9))


def _check_horizon(horizon) -> None:
    if not (math.isfinite(horizon) and horizon >= 0):
        raise BadHorizon(f"horizon must be finite and nonnegative, got {horizon!r}")


def _event_split(x0: np.ndarray, horizon: float, h: float, max_events: int,
                 control, stop=None):
    """Euler steps of at most h, cut at the earliest zero crossing.

    The one stepper behind :func:`simulate` and ``skorokhod.solve_lsp``.
    Before each step ``control(t, x, xs)`` gets the time and the state, as an
    array and as a list of floats, and returns ``(u, v, exempt)``: the control
    held over the step, the velocity it gives, and the components whose zero
    crossings do not cut the step.  A component that reaches zero is snapped
    to exactly 0, and every level is clamped at zero.  After each stamp
    ``stop(t, xs)``, if given, ends the run when it returns True.

    Returns the grid, the states, the cumulative controls and the controls
    (one row per step) as arrays.
    """
    _check_horizon(horizon)
    if not (math.isfinite(h) and h > 0):
        raise BadStep(f"step must be finite and positive, got {h!r}")
    x = x0
    xs = x.tolist()
    cum = np.zeros(x.shape[0])
    t = 0.0
    grid, states, cumulative, controls = [t], [x.copy()], [cum], []
    end = horizon * (1 - 1e-15) - 1e-15

    while t < end:
        u, v, exempt = control(t, x, xs)
        dt = min(h, horizon - t)
        crossing = []
        for k, v_k in enumerate(v.tolist()):
            if v_k < -1e-14 and xs[k] > 0.0 and k not in exempt:
                t_k = xs[k] / -v_k
                if t_k < dt * (1 - 1e-12):
                    dt = t_k
                    crossing = [k]
                elif t_k <= dt * (1 + 1e-12) and crossing:
                    crossing.append(k)
        x = x + v * dt
        cum = cum + u * dt
        t = t + dt
        for k in crossing:
            x[k] = 0.0
        np.maximum(x, 0.0, out=x)
        xs = x.tolist()

        grid.append(t)
        states.append(x.copy())
        cumulative.append(cum)
        controls.append(u)
        if len(controls) > max_events:
            raise StepTooLarge(f"more than {max_events} sub-steps; reduce h or horizon")
        if stop is not None and stop(t, xs):
            break

    return (
        np.asarray(grid),
        np.asarray(states),
        np.asarray(cumulative),
        np.asarray(controls) if controls else np.empty((0, x.shape[0])),
    )


def simulate(
    spec: NetworkSpec,
    x0,
    selector: ControlSelector,
    horizon: float,
    h: float,
    *,
    stop_on_drain: bool = True,
    max_events: int = _EVENT_CAP,
) -> Trajectory:
    """Integrate the closed-loop dynamics from x0.

    The selector is consulted at t=0, after every boundary event, and at
    checkpoints every ``h``.  Steps are cut at the earliest zero crossing so
    stamps land exactly on the boundary.  The run stops early once the total
    mass stays below the emptiness threshold for two consecutive stamps and
    the empty state can be held (unless ``stop_on_drain`` is False).  A
    negative or non-finite horizon raises BadHorizon, a step that is not
    finite and positive BadStep, a non-finite initial state NonFiniteInput
    and a negative one NegativeState.
    """
    x0 = np.asarray(x0, dtype=float).copy()
    if x0.shape != (spec.K,):
        raise DimensionMismatch(f"initial state has shape {x0.shape}, expected ({spec.K},)")
    if not np.all(np.isfinite(x0)):
        raise NonFiniteInput(f"initial state must be finite, got {x0.tolist()}")
    if np.any(x0 < -1e-9 * (1 + l1(x0))):
        raise NegativeState(f"initial state must be nonnegative, got {x0.tolist()}")
    x0 = np.maximum(x0, 0.0)

    eps = empty_threshold(x0)
    selector.start_run()
    can_hold_zero = zero_invariant(spec)
    velocity_map = -spec.outflow.T
    systems: dict = {}  # near-zero classes -> _ViableSystem, for this run only

    def select(t, q, ql):
        zeros = frozenset(k for k, level in enumerate(ql) if level < eps)
        system = systems.get(zeros)
        if system is None:
            pinned = can_hold_zero and len(zeros) == spec.K
            system = systems[zeros] = _ViableSystem(spec, empty_rows(spec, zeros), zeros, pinned)
        exact = all(ql[k] == 0.0 for k in zeros)
        if exact and system.exact is not None:
            poly, velocities = system.exact
        else:
            poly = system.polytope([ql[k] / h for k in system.zeros])
            velocities = poly.vertices @ velocity_map + spec.alpha
            if exact:
                system.exact = (poly, velocities)
        u = np.asarray(selector.choose(t, q, poly, velocities), dtype=float)
        return u, spec.alpha - spec.outflow @ u, ()

    drained_at = None
    first_below = 0.0 if x0.max() < eps else None
    below_streak = 1 if first_below is not None else 0

    def drained(t, ql):
        nonlocal drained_at, first_below, below_streak
        if max(ql) < eps:
            if first_below is None:
                first_below = t
            below_streak += 1
            if below_streak >= 2 and can_hold_zero and drained_at is None:
                drained_at = first_below
                return stop_on_drain
        else:
            first_below = None
            below_streak = 0
        return False

    grid, levels, allocation, controls = _event_split(
        x0, horizon, h, max_events, select, drained
    )
    return Trajectory(grid, levels, allocation, controls, spec=spec, drained_at=drained_at)


def viability_check(spec: NetworkSpec, x) -> bool:
    """Can the state stay in the nonnegative orthant?

    True iff some convex combination of the admissible vertex velocities is
    nonnegative in every coordinate where x is (numerically) zero.  Decided by
    a small LP over the hull weights.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.K,):
        raise DimensionMismatch(f"state has shape {x.shape}, expected ({spec.K},)")
    eps = empty_threshold(x)
    zero = sorted(int(k) for k in np.flatnonzero(x < eps))
    if not zero:
        return True
    empty = empty_rows(spec, zero)
    verts = enumerate_polytope_vertices(spec.K, *admissible_constraints(spec, empty))
    if verts.shape[0] == 0:
        return False
    velocities = verts @ (-spec.outflow.T) + spec.alpha
    m = verts.shape[0]
    # maximize margin s: sum(lam * v)_k >= s on the zero set, lam a distribution
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_ub_lp = np.zeros((len(zero), m + 1))
    a_ub_lp[:, :m] = -velocities[:, zero].T
    a_ub_lp[:, -1] = 1.0
    a_eq_lp = np.zeros((1, m + 1))
    a_eq_lp[0, :m] = 1.0
    res = linprog(
        c,
        A_ub=a_ub_lp,
        b_ub=np.zeros(len(zero)),
        A_eq=a_eq_lp,
        b_eq=[1.0],
        bounds=[(0, None)] * m + [(None, None)],
        method="highs",
    )
    return bool(res.success and -res.fun >= -1e-9)


def flow_balance_residual(spec: NetworkSpec, traj: Trajectory) -> float:
    """Max over stamps of |Q(t) - (Q(0) + alpha t - outflow @ T(t))| in l1."""
    if traj.levels.shape[1] != spec.K:
        raise DimensionMismatch(
            f"trajectory has {traj.levels.shape[1]} classes, network has {spec.K}"
        )
    predicted = (
        traj.levels[0][None, :]
        + traj.grid[:, None] * spec.alpha[None, :]
        - traj.allocation @ spec.outflow.T
    )
    return float(np.abs(traj.levels - predicted).sum(axis=1).max())


def complementarity_residual(spec: NetworkSpec, traj: Trajectory) -> float:
    """Discrete idling-while-loaded functional, trapezoidal in the level.

    Sum over intervals of (M Q)^T (e - A u) dt, with A the capacity rows and
    M their member indicators (both the constituency when work-conserving).
    """
    if traj.controls.shape[0] == 0:
        return 0.0
    dt = np.diff(traj.grid)
    q_mid = 0.5 * (traj.levels[:-1] + traj.levels[1:])
    owner = np.zeros(spec.capacity.shape)
    for row, classes in enumerate(spec.members):
        owner[row, list(classes)] = 1.0
    row_level = q_mid @ owner.T
    idle_rate = 1.0 - traj.controls @ spec.capacity.T
    return float(np.sum(row_level * idle_rate * dt[:, None]))


def lipschitz_constant(spec: NetworkSpec) -> float:
    """A priori slope bound: |alpha| + |outflow| * max vertex allocation mass.

    The max runs over the vertices of every proper boundary configuration,
    which are the vertices of the maximal ones
    (:func:`model.maximal_configurations`); matrix norm is the induced l1
    norm (max column sum).
    """
    u_max = 0.0
    for empty in maximal_configurations(spec):
        verts = enumerate_polytope_vertices(spec.K, *admissible_constraints(spec, empty))
        if verts.shape[0]:
            u_max = max(u_max, float(np.abs(verts).sum(axis=1).max()))
    w_norm = float(np.abs(spec.outflow).sum(axis=0).max())
    return l1(spec.alpha) + w_norm * u_max


def trajectory_csv(traj: Trajectory) -> str:
    """CSV export: t, Q1..QK, T1..TK, u1..uK, 17 significant digits.

    The control columns give the rate on the interval starting at each stamp;
    the final stamp repeats the last interval's control.
    """
    k = traj.K
    header = (
        ["t"]
        + [f"Q{i + 1}" for i in range(k)]
        + [f"T{i + 1}" for i in range(k)]
        + [f"u{i + 1}" for i in range(k)]
    )
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    n = traj.grid.shape[0]
    for i in range(n):
        if traj.controls.shape[0] == 0:
            u = np.zeros(k)
        else:
            u = traj.controls[min(i, traj.controls.shape[0] - 1)]
        row = [traj.grid[i], *traj.levels[i], *traj.allocation[i], *u]
        out.write(",".join(fmt(v) for v in row) + "\n")
    return out.getvalue()


def check_trajectory(
    spec: NetworkSpec,
    traj: Trajectory,
    *,
    include_complementarity: bool = False,
    complementarity_tol: float | None = None,
) -> dict:
    """Invariant report for a trajectory against its generating network.

    Checks flow balance, nonnegativity, monotone allocation and idle
    processes.  The idling functional is only O(h) for arbitrary selectors,
    so it is reported but only enforced when explicitly requested.
    """
    scale = 1.0 + l1(traj.levels[0])
    flow = flow_balance_residual(spec, traj)
    q_min = float(traj.levels.min()) if traj.levels.size else 0.0
    alloc_steps = np.diff(traj.allocation, axis=0)
    alloc_monotone = bool(alloc_steps.size == 0 or alloc_steps.min() >= -1e-12)
    idle_steps = np.diff(traj.idle(), axis=0)
    idle_monotone = bool(idle_steps.size == 0 or idle_steps.min() >= -1e-10)
    comp = complementarity_residual(spec, traj)
    ok = (
        flow <= 1e-7 * scale
        and q_min >= -1e-9
        and alloc_monotone
        and idle_monotone
        and traj.grid[0] == 0.0
        and np.abs(traj.allocation[0]).max() <= 1e-12
        and bool(np.all(np.diff(traj.grid) > 0))
    )
    if include_complementarity:
        tol = complementarity_tol
        if tol is None:
            tol = 1e-6 * max(traj.horizon, 1e-12)
        ok = ok and comp <= tol
    return {
        "flow_balance_residual": flow,
        "min_level": q_min,
        "allocation_monotone": alloc_monotone,
        "idle_monotone": idle_monotone,
        "complementarity_residual": comp,
        "ok": ok,
    }
