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
constraint system once, and rank-tests its active subsets on its first
enumeration.  A stamp whose near-zero classes all sit below
:func:`dust_threshold` (sliding classes carry dust of about 1e-18) counts them
as exactly zero and reuses that system's polytope for all-zero floors; any
other stamp reuses the kept subsets and solves only for the new floors.  The
drained polytope (every class near zero, the empty state holdable) comes in
closed form from a box in velocity space where a slack guard allows, and by
enumeration otherwise.  Vertices are ordered by their 12-decimal key
(``model.vertex_order``), so the selectors pick the same vertex whichever
route found it.  The output is therefore not byte-identical to enumerating
every polytope from scratch: dust floors and box vertices differ from it in
the last bits.  Nothing is kept between runs.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from ._util import check_count, csv_text, freeze_arrays, l1, rng_from
from .errors import (
    BadHorizon,
    BadStep,
    DimensionMismatch,
    InfeasibleActiveSet,
    NegativeState,
    NoNetwork,
    NonFiniteInput,
    ShiftBeyondHorizon,
    StepTooLarge,
)
from .model import (
    NetworkSpec,
    admissible_constraints,
    admissible_polytope,
    empty_rows,
    empty_threshold,
    maximal_configurations,
    rank_tested_subsets,
    subset_vertices,
    vertex_order,
)

_EVENT_CAP = 1_000_000
#: a pinned polytope comes from the box only if every other row keeps this slack
BOX_SLACK = 1e-9


def dust_threshold(x0) -> float:
    """A near-zero class below this level counts as exactly zero in ``simulate``.

    Dust is what a sliding class keeps when its velocity is zero in exact
    arithmetic: the rounding of alpha - outflow @ u, a few ulps of the rates,
    times a step, about 1e-19..1e-18 on the fixtures.  Such a class gets
    floor 0, not level / h, so the stamp reuses the cached polytope for
    all-zero floors.  The state is not touched, so flow balance is
    unchanged; the path differs at most by the level the class is not allowed
    to drain in that step.  1e-15 (1 + |x0|) bounds that by a few ulps of the
    state scale (the double epsilon is 2.2e-16), scales with the initial mass
    like :func:`model.empty_threshold`, and lies six orders below it, so
    floors of a step-sized level still reach the polytope.
    """
    return 1e-15 * (1.0 + l1(x0))


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
        freeze_arrays(self, ("grid", "levels", "allocation", "controls"))

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
        """Linear interpolation of Q; the last level after the grid once drained."""
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape + (self.K,))
        for k in range(self.K):
            out[..., k] = np.interp(t, self.grid, self.levels[:, k])
        if np.any(t > self.grid[-1]) and not self.drained:
            # holding the final value is only sound once the run drained
            # (the held state then sits below the emptiness threshold)
            raise ShiftBeyondHorizon("time beyond the sampled horizon of an undrained trajectory")
        return out

    def idle(self) -> np.ndarray:
        """Cumulative unused capacity per capacity row (the idle time of each
        station of a work-conserving network) at every stamp."""
        if self.spec is None:
            raise NoNetwork("idle processes require the generating network")
        return self.grid[:, None] - self.allocation @ self.spec.capacity.T


class ControlSelector:
    """Strategy picking a vertex of the viable polytope from (time, state).

    ``choose`` gets the read-only vertex array (one row per vertex, in
    ``model.vertex_order``) and the velocity of each vertex, and returns a row
    index; ``simulate`` applies that row, so every applied control is a vertex.
    """

    name = "selector"

    def start_run(self) -> None:
        """Reset per-run state so repeated runs are reproducible."""

    def choose(self, t, q, vertices: np.ndarray, velocities: np.ndarray) -> int:
        raise NotImplementedError


class FirstVertex(ControlSelector):
    """Always the first vertex, the one with the smallest 12-decimal key."""

    name = "first_vertex"

    def choose(self, t, q, vertices, velocities):
        return 0


class RandomVertex(ControlSelector):
    """Uniformly random vertex; reproducible for a fixed seed."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.name = f"random_vertex({self.seed})"
        self._rng = None

    def start_run(self):
        self._rng = rng_from(self.seed)

    def choose(self, t, q, vertices, velocities):
        if self._rng is None:
            self.start_run()
        return int(self._rng.integers(len(vertices)))


class _TotalVelocityRank(ControlSelector):
    """Picks a vertex by the total velocity of each vertex, rounded to 12 digits.

    The pick depends only on the vertices and their velocities, and
    ``simulate`` hands back the same arrays on every cache hit, so it is made
    once per vertex array.
    """

    def __init__(self):
        self._last = (None, None, None)

    def start_run(self):
        self._last = (None, None, None)

    def choose(self, t, q, vertices, velocities):
        last_vertices, last_velocities, i = self._last
        if vertices is not last_vertices or velocities is not last_velocities:
            i = self._pick(np.round(velocities.sum(axis=1), 12))
            self._last = (vertices, velocities, i)
        return i

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


def default_selectors() -> tuple[ControlSelector, ...]:
    """The deterministic ensemble of stability verdicts and network path families."""
    return (FirstVertex(), MaxDrain(), MinDrain())


class FixedSequence(ControlSelector):
    """Vertex indices consumed in order, then the last index repeats.

    Indices are taken modulo the current vertex count, so the sequence is
    admissible whatever boundary configuration comes up.
    """

    def __init__(self, indices):
        self.indices = [int(i) for i in indices]
        check_count("FixedSequence index count", len(self.indices), low=1)
        self.name = f"fixed_sequence({self.indices})"
        self._pos = 0

    def start_run(self):
        self._pos = 0

    def choose(self, t, q, vertices, velocities):
        idx = self.indices[min(self._pos, len(self.indices) - 1)]
        self._pos += 1
        return idx % len(vertices)


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
    right-hand side of the viability rows, so the active subsets that pass the
    rank test are found once, on the first enumeration, and each new set of
    floors costs only the solves.  ``exact`` holds the vertices and their
    velocities for all-zero floors once they are known.

    A pinned system first tries the box (:meth:`_box_vertices`) and
    enumerates only where the box guard fails.
    """

    def __init__(self, spec: NetworkSpec, empty, zero_classes, pinned: bool):
        self.spec = spec
        self.zeros = sorted(zero_classes)
        self.pinned = pinned
        a_eq, b_eq, a_ub, b_ub = admissible_constraints(spec, empty)
        rows = [a_ub, spec.outflow[self.zeros]]
        self._a_head, self._b_head, self._b_tail = a_ub, b_ub, np.empty(0)
        if pinned:
            rows.append(-spec.outflow)
            self._b_tail = -spec.alpha
        self._a_eq, self._b_eq, self._a_ub = a_eq, b_eq, np.vstack(rows)
        self._alpha_zero = spec.alpha[self.zeros]
        self._subsets = None  # rank-tested on the first enumeration
        self.exact = None

    def polytope(self, floors: list) -> np.ndarray:
        """Vertices of the viable polytope for the given floor of each
        near-zero class, in class order.

        Raises InfeasibleActiveSet when there are none, which a valid network
        never gives: the face u_k = 0 of the near-zero classes is viable.
        """
        verts = self._box_vertices(np.asarray(floors, dtype=float)) if self.pinned else None
        if verts is None:
            if self._subsets is None:
                self._subsets = rank_tested_subsets(self._a_eq, self._a_ub)
            b_ub = np.concatenate([self._b_head, self._alpha_zero + floors, self._b_tail])
            verts = subset_vertices(self._a_eq, self._b_eq, self._a_ub, b_ub, self._subsets)
        if verts.shape[0] == 0:
            raise InfeasibleActiveSet(f"no viable allocation with near-zero classes {self.zeros}")
        return verts

    def _box_vertices(self, floors: np.ndarray):
        """The pinned polytope's vertices in closed form, or None if the box guard fails.

        The pinned and viability rows read alpha <= outflow @ u <= alpha + f,
        and outflow is invertible, so in velocity coordinates they cut out the
        box [-f, 0]^K.  Where the remaining rows (u >= 0, capacity @ u <= 1)
        have slack of at least BOX_SLACK at every corner, they hold on the
        whole box and the vertices are u = outflow^-1 (alpha + c) over the
        corners c of [0, f]: one point, the nominal allocation, when every
        floor is 0.  Each corner is one solve, the same LAPACK call as a
        one-by-one loop; the corners are ordered by :func:`model.vertex_order`.
        """
        spec = self.spec
        positive = np.flatnonzero(floors > 0.0)
        bits = np.array(list(itertools.product((0.0, 1.0), repeat=positive.size)))
        corners = np.zeros((bits.shape[0], spec.K))
        corners[:, positive] = bits * floors[positive]
        n = corners.shape[0]
        u = np.linalg.solve(np.broadcast_to(spec.outflow, (n, spec.K, spec.K)),
                            (spec.alpha + corners)[..., None])[..., 0]
        slack = self._b_head - np.matmul(self._a_head, u[..., None])[..., 0]
        if slack.min() < BOX_SLACK:
            return None
        return vertex_order([u], spec.K)


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
    dust = dust_threshold(x0)
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
        floors = [ql[k] / h if ql[k] >= dust else 0.0 for k in system.zeros]
        exact = not any(floors)
        if exact and system.exact is not None:
            verts, velocities = system.exact
        else:
            verts = system.polytope(floors)
            velocities = verts @ velocity_map + spec.alpha
            if exact:
                system.exact = (verts, velocities)
        u = verts[operator.index(selector.choose(t, q, verts, velocities))]
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
    u_max = max(float(np.abs(admissible_polytope(spec, empty)).sum(axis=1).max())
                for empty in maximal_configurations(spec))
    w_norm = float(np.abs(spec.outflow).sum(axis=0).max())
    return l1(spec.alpha) + w_norm * u_max


def trajectory_csv(traj: Trajectory) -> str:
    """CSV export: t, Q1..QK, T1..TK, u1..uK, 17 significant digits.

    The control columns give the rate on the interval starting at each stamp;
    the final stamp repeats the last interval's control.
    """
    k, n, m = traj.K, traj.grid.shape[0], traj.controls.shape[0]
    header = ["t", *(f"{name}{i + 1}" for name in "QTu" for i in range(k))]
    u = traj.controls[np.minimum(np.arange(n), m - 1)] if m else np.zeros((n, k))
    return csv_text(header, np.column_stack([traj.grid, traj.levels, traj.allocation, u]).tolist())


def check_trajectory(spec: NetworkSpec, traj: Trajectory) -> dict:
    """Invariant report for a trajectory against its generating network.

    Checks flow balance, nonnegativity, monotone allocation and idle
    processes.  The idling functional is only O(h) for arbitrary selectors,
    so it is reported, not enforced.
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
    return {
        "flow_balance_residual": flow,
        "min_level": q_min,
        "allocation_monotone": alloc_monotone,
        "idle_monotone": idle_monotone,
        "complementarity_residual": comp,
        "ok": ok,
    }
