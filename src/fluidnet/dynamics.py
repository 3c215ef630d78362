"""Closed-loop dynamics of a fluid network.

Between control switches the fluid level moves with constant velocity
``alpha - outflow @ u``, so explicit Euler stepping with event splitting at
zero crossings integrates the dynamics exactly up to the control-switch
resolution ``h``.  Controls are re-selected at every boundary event and at
checkpoints spaced ``h`` apart; in between they are frozen.  The stepping
loop, ``_event_split``, is shared with ``skorokhod.solve_lsp``; it reads the
horizon and step as ``_util.float_scalar`` does and rejects a negative or
non-finite horizon (BadHorizon) and a step that is not finite and positive
(BadStep).

The service discipline enters only through the spec's capacity rows: idle
time, holding the empty state and the admissible set are all per row.  A class
below the emptiness threshold (``model.empty_threshold``) counts as empty: the
admissible polytope is intersected with the constraint that its velocity is
nonnegative, so any vertex the selector picks yields a viable step.  Once the
whole state is near zero and the empty state can be held, the run has drained
and ends there; ``Trajectory.level_at`` holds its last level after the grid.

Each set of near-zero classes gets one polytope per spec (the all-zero set
none when the run ends there), kept in ``NetworkSpec.polytopes``: every stamp
of every run on the same spec object with that set reuses its read-only vertex
array, the drift of each vertex (d/dt of the total mass rounded to 12
decimals, by which ``MaxDrain`` and ``MinDrain`` pick) and each picked
vertex's control and velocity.  The entry depends only on the spec and the
set, so sharing it changes no trajectory.  Vertices are ordered by their
12-decimal key (``model.vertex_order``), so the selectors pick the same vertex
whichever route found it.
"""
from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass

import numpy as np

from ._util import (check_count, check_horizon, check_seed, csv_text, float_array, float_scalar,
                    freeze_arrays, is_integer, l1, readonly, rng_from)
from .errors import (
    BadCount,
    BadStep,
    DimensionMismatch,
    InfeasibleActiveSet,
    NegativeState,
    NonFiniteInput,
    ShiftBeyondHorizon,
    StepTooLarge,
)
from .model import (
    NetworkSpec,
    admissible_constraints,
    admissible_polytope,
    cut_polytope,
    empty_rows,
    empty_threshold,
)

_EVENT_CAP = 1_000_000


def rhs(spec: NetworkSpec, u) -> np.ndarray:
    """Fluid velocity under allocation rates u: alpha - outflow @ u."""
    u = float_array("control", u)
    if u.shape != (spec.K,):
        raise DimensionMismatch(f"control has shape {u.shape}, expected ({spec.K},)")
    return spec.alpha - spec.outflow @ u


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A sampled fluid solution.

    ``grid`` holds strictly increasing time stamps starting at 0; ``levels``
    and ``allocation`` hold the fluid level Q and cumulative allocation T at
    each stamp; ``controls`` holds the allocation rate on each inter-stamp
    interval.  ``drained_at`` is the last stamp when :func:`simulate` ended
    the run there as drained, or None if the run never drained.
    """

    grid: np.ndarray
    levels: np.ndarray
    allocation: np.ndarray
    controls: np.ndarray
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
        """Linear interpolation of Q; the last level after the grid once drained.

        Raises ShiftBeyondHorizon for a negative or NaN time, for a time past
        the grid of an undrained trajectory, and the errors of
        ``_util.float_array``."""
        t = float_array("time", t)
        if not np.all(t >= 0):
            raise ShiftBeyondHorizon("negative or NaN time in a level lookup")
        if not (self.drained or np.all(t <= self.grid[-1])):
            # holding the final value is only sound once the run drained
            # (the held state then sits below the emptiness threshold)
            raise ShiftBeyondHorizon("time beyond the sampled horizon of an undrained trajectory")
        out = np.empty(t.shape + (self.K,))
        for k in range(self.K):
            out[..., k] = np.interp(t, self.grid, self.levels[:, k])
        return out


class ControlSelector:
    """Strategy picking a vertex of the viable polytope from (time, state).

    ``choose`` gets the time, the state as a tuple of floats, the read-only
    vertex array (one row per vertex, in ``model.vertex_order``) and each
    vertex's read-only drift, d/dt of the total mass rounded to 12 decimals,
    and returns a row index in 0..n-1, else ``simulate`` raises IndexError;
    ``simulate`` applies that row, so every applied control is a vertex.
    """

    name = "selector"

    def start_run(self) -> None:
        """Reset per-run state; ``simulate`` calls it before each run's first ``choose``."""

    def choose(self, t, q: tuple, vertices: np.ndarray, drift: np.ndarray) -> int:
        raise NotImplementedError


class FirstVertex(ControlSelector):
    """Always the first vertex, the one with the smallest 12-decimal key."""

    name = "first_vertex"

    def choose(self, t, q, vertices, drift):
        return 0


class RandomVertex(ControlSelector):
    """Uniformly random vertex; reproducible for a fixed seed."""

    name = "random_vertex"

    def __init__(self, seed: int):
        self.seed = check_seed(seed)
        self.name = f"{RandomVertex.name}({self.seed})"

    def start_run(self):
        self._rng = rng_from(self.seed)

    def choose(self, t, q, vertices, drift):
        return int(self._rng.integers(len(vertices)))


class MaxDrain(ControlSelector):
    """Vertex minimizing d/dt of the total mass; ties to the first vertex."""

    name = "max_drain"

    def choose(self, t, q, vertices, drift):
        return int(drift.argmin())


class MinDrain(ControlSelector):
    """Vertex maximizing d/dt of the total mass; ties to the first vertex."""

    name = "min_drain"

    def choose(self, t, q, vertices, drift):
        return int(drift.argmax())


def default_selectors() -> tuple[ControlSelector, ...]:
    """The deterministic ensemble of stability verdicts and network path families."""
    return (FirstVertex(), MaxDrain(), MinDrain())


class FixedSequence(ControlSelector):
    """Vertex indices consumed in order, then the last index repeats.

    Indices are taken modulo the current vertex count, so the sequence is
    admissible whatever boundary configuration comes up.
    """

    def __init__(self, indices):
        self.indices = list(indices)
        check_count("FixedSequence index count", len(self.indices), low=1)
        if not all(map(is_integer, self.indices)):
            raise BadCount(f"FixedSequence indices must be integers, got {self.indices!r}")
        self.indices = list(map(int, self.indices))  # numpy integers become ints
        self.name = f"fixed_sequence({self.indices})"
        self._pos = 0

    def start_run(self):
        self._pos = 0

    def choose(self, t, q, vertices, drift):
        idx = self.indices[min(self._pos, len(self.indices) - 1)]
        self._pos += 1
        return idx % len(vertices)


def _viable_polytope(spec: NetworkSpec, zeros) -> np.ndarray:
    """Vertices of the admissible polytope on which no near-zero class decreases.

    A class in ``zeros`` counts as empty: its velocity must be nonnegative,
    (outflow @ u)_k <= alpha_k, and the capacity rows all of whose classes are
    in ``zeros`` may idle.  ``model.cut_polytope`` adds the viability rows, in
    class order, to the closed-form product of those idle rows.  Raises
    InfeasibleActiveSet when there are no vertices, which a valid network never
    gives: the face u_k = 0 of the near-zero classes keeps them nonnegative.
    """
    empty = empty_rows(spec, zeros)
    idx = sorted(zeros)
    verts = cut_polytope(admissible_polytope(spec, empty), *admissible_constraints(spec, empty)[2:],
                         spec.outflow[idx], spec.alpha[idx])
    if verts.shape[0] == 0:
        raise InfeasibleActiveSet(f"no viable allocation with near-zero classes {idx}")
    return verts


def zero_invariant(spec: NetworkSpec) -> bool:
    """True when the empty state can be held: the balancing allocation is admissible."""
    u = spec.nominal_allocation()
    if np.any(u < -1e-12):
        return False
    return bool(np.all(spec.capacity @ u <= 1 + 1e-9))


def _event_split(x0: np.ndarray, horizon: float, h: float, max_events: int, control):
    """Euler steps of at most h, cut at the earliest zero crossing.

    The one stepper behind :func:`simulate` and ``skorokhod.solve_lsp``, run
    on Python floats: ``x + v * dt`` per component is the same IEEE arithmetic
    as on arrays, and ``x if x > 0.0 else 0.0`` is ``np.maximum(x, 0.0)``,
    -0.0 included.  Before each step ``control(t, xs)`` gets the time and the
    state as a tuple of floats and returns ``(u, v, exempt)``: the control held
    over the step and its velocity, as float sequences, and the components
    whose zero crossings do not cut the step, or None to end the run at that
    stamp.  A component that reaches zero is snapped to 0, and every level is
    clamped at zero.  Returns the grid, states, cumulative controls and
    controls (one row per step) as arrays.
    """
    horizon = check_horizon(horizon)
    h = float_scalar("step", h)
    if not (math.isfinite(h) and h > 0):
        raise BadStep(f"step must be finite and positive, got {h!r}")
    check_count("max_events", max_events)
    xs = tuple(x0.tolist())
    cum = [0.0] * len(xs)
    t = 0.0
    grid, states, cumulative, controls = array("d", [t]), array("d", xs), array("d", cum), array("d")
    end = horizon * (1 - 1e-15) - 1e-15

    while t < end and (step := control(t, xs)) is not None:
        u, v, exempt = step
        dt = min(h, horizon - t)
        crossing = []
        for k, v_k in enumerate(v):
            if v_k < -1e-14 and xs[k] > 0.0 and k not in exempt:
                t_k = xs[k] / -v_k
                if t_k < dt * (1 - 1e-12):
                    dt = t_k
                    crossing = [k]
                elif t_k <= dt * (1 + 1e-12) and crossing:
                    crossing.append(k)
        x = [x_k + v_k * dt for x_k, v_k in zip(xs, v)]
        cum = [c_k + u_k * dt for c_k, u_k in zip(cum, u)]
        t = t + dt
        for k in crossing:
            x[k] = 0.0
        xs = tuple([x_k if x_k > 0.0 else 0.0 for x_k in x])

        grid.append(t)
        states.extend(xs)
        cumulative.extend(cum)
        controls.extend(u)
        if len(grid) > max_events + 1:
            raise StepTooLarge(f"more than {max_events} sub-steps; reduce h or horizon")

    shape = (-1, len(cum))
    return (np.frombuffer(grid), np.frombuffer(states).reshape(shape),
            np.frombuffer(cumulative).reshape(shape), np.frombuffer(controls).reshape(shape))


def simulate(spec: NetworkSpec, x0, selector: ControlSelector, horizon: float, h: float, *,
             max_events: int = _EVENT_CAP) -> Trajectory:
    """Integrate the closed-loop dynamics from x0.

    The selector is consulted at t=0, after every boundary event, and at
    checkpoints every ``h``.  Steps are cut at the earliest zero crossing so
    stamps land exactly on the boundary.  The first stamp with every class
    below the emptiness threshold ends the run if the empty state can be held
    (:func:`zero_invariant`); it is ``drained_at``.
    A negative or non-finite horizon raises BadHorizon, a step that is not
    finite and positive BadStep, a non-finite initial state NonFiniteInput, a
    negative one NegativeState and a ``max_events`` that is no nonnegative
    integer BadCount; more than ``max_events`` steps raise StepTooLarge.
    """
    x0 = float_array("initial state", x0)
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
    polytopes = spec.polytopes  # near-zero classes -> (vertices, drift, rows)
    drained_at = None  # the stamp at which select found the run drained

    def select(t, q):
        nonlocal drained_at
        zeros = frozenset(k for k, level in enumerate(q) if level < eps)
        if can_hold_zero and len(zeros) == spec.K:
            drained_at = t
            return None
        entry = polytopes.get(zeros)
        if entry is None:
            verts = _viable_polytope(spec, zeros)
            drift = readonly("drift", np.round((verts @ velocity_map + spec.alpha).sum(axis=1), 12))
            entry = polytopes[zeros] = (verts, drift, {})
        verts, drift, rows = entry
        i = operator.index(selector.choose(t, q, verts, drift))
        if i not in rows:
            if not 0 <= i < len(verts):
                raise IndexError(f"vertex index {i} outside 0..{len(verts) - 1}")
            # not the row of verts @ velocity_map, which can differ in the last bits
            rows[i] = tuple(verts[i].tolist()), tuple(rhs(spec, verts[i]).tolist())
        return (*rows[i], ())

    arrays = _event_split(x0, horizon, h, max_events, select)
    return Trajectory(*arrays, drained_at=drained_at)


def check_classes(traj: Trajectory, k: int) -> None:
    """DimensionMismatch unless the trajectory has k classes."""
    if traj.K != k:
        raise DimensionMismatch(f"trajectory has {traj.K} classes, expected {k}")


def flow_balance_residual(spec: NetworkSpec, traj: Trajectory) -> float:
    """Max over stamps of |Q(t) - (Q(0) + alpha t - outflow @ T(t))| in l1."""
    check_classes(traj, spec.K)
    predicted = (traj.levels[0][None, :] + traj.grid[:, None] * spec.alpha[None, :]
                 - traj.allocation @ spec.outflow.T)
    return float(np.abs(traj.levels - predicted).sum(axis=1).max())


def complementarity_residual(spec: NetworkSpec, traj: Trajectory) -> float:
    """Discrete idling-while-loaded functional, trapezoidal in the level.

    Sum over intervals of (M Q)^T (e - A u) dt, with A the capacity rows and
    M their member indicators (both the constituency when work-conserving).
    """
    check_classes(traj, spec.K)
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
    """A priori slope bound: |alpha| + |outflow| * J.

    Every admissible vertex gives each station at most one unit of rate
    (``model.admissible_polytope``), so its allocation mass is at most J;
    matrix norm is the induced l1 norm (max column sum).
    """
    w_norm = float(np.abs(spec.outflow).sum(axis=0).max())
    return l1(spec.alpha) + w_norm * spec.J


def idle(spec: NetworkSpec, traj: Trajectory) -> np.ndarray:
    """Cumulative unused capacity per capacity row (the idle time of each
    station of a work-conserving network) at every stamp."""
    check_classes(traj, spec.K)
    return traj.grid[:, None] - traj.allocation @ spec.capacity.T


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
    idle_steps = np.diff(idle(spec, traj), axis=0)
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
