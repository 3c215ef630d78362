"""Path algebra for fluid-network trajectories.

Families of nonnegative Lipschitz paths that are closed under time scaling
and time shift support a small algebra: ``scale``, ``shift``, ``concatenate``
and the sup distance on compact windows.  Two explicit families with closed
forms are bundled as fixtures: one whose best-path mass functional fails to
be lower semicontinuous, and one in which distinct paths through a common
state can never be concatenated inside the family.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import check_count, check_factor, l1, rng_from, window_points
from .dynamics import (
    ControlSelector,
    Trajectory,
    check_trajectory,
    default_selectors,
    flow_balance_residual,
    lipschitz_constant,
    simulate,
)
from .errors import (
    DimensionMismatch, EndpointMismatch, NegativeState, ShiftBeyondHorizon, UnknownFixture,
)
from .model import NetworkSpec


def scale(traj: Trajectory, r: float) -> Trajectory:
    """Time-space rescaling t -> Q(r t) / r; allocation rescales the same way.

    Raises BadFactor unless r is finite and positive.
    """
    r = check_factor("scale factor", r)
    drained = None if traj.drained_at is None else traj.drained_at / r
    return Trajectory(
        grid=traj.grid / r,
        levels=traj.levels / r,
        allocation=traj.allocation / r,
        controls=traj.controls,
        spec=traj.spec,
        drained_at=drained,
    )


def _state_at(traj: Trajectory, s: float):
    """Interpolated (level, cumulative allocation) at time s within the grid."""
    grid = traj.grid
    j = int(np.searchsorted(grid, s, side="right")) - 1
    j = min(max(j, 0), len(grid) - 1)
    if j == len(grid) - 1 or grid[j] == s:
        return traj.levels[j].copy(), traj.allocation[j].copy()
    w = (s - grid[j]) / (grid[j + 1] - grid[j])
    return (
        (1 - w) * traj.levels[j] + w * traj.levels[j + 1],
        (1 - w) * traj.allocation[j] + w * traj.allocation[j + 1],
    )


def shift(traj: Trajectory, s: float) -> Trajectory:
    """Time shift t -> Q(s + t), with the allocation renormalized to T(0) = 0.

    Raises ShiftBeyondHorizon unless 0 <= s <= horizon (so for NaN too).
    """
    if not 0 <= s <= traj.grid[-1] * (1 + 1e-12):
        raise ShiftBeyondHorizon(f"shift {s} outside [0, {traj.grid[-1]}]")
    s = min(float(s), float(traj.grid[-1]))
    level0, alloc0 = _state_at(traj, s)
    i = int(np.searchsorted(traj.grid, s, side="right"))  # stamps strictly after s
    grid = np.concatenate([[0.0], traj.grid[i:] - s])
    levels = np.vstack([level0, traj.levels[i:]])
    alloc = np.vstack([alloc0, traj.allocation[i:]]) - alloc0
    if i >= 1:
        controls = traj.controls[i - 1:]
    else:
        controls = traj.controls
    if grid.shape[0] == 1:
        controls = np.empty((0, traj.K))
    drained = None
    if traj.drained_at is not None:
        drained = max(traj.drained_at - s, 0.0)
    return Trajectory(grid, levels, alloc, controls, spec=traj.spec, drained_at=drained)


def concatenate(traj1: Trajectory, t_star: float, traj2: Trajectory) -> Trajectory:
    """Splice traj2 onto traj1 at time t_star.

    Requires traj1's state at t_star to match traj2's initial state within
    1e-8 relative tolerance; the result follows traj1 up to t_star and traj2
    afterwards, with the cumulative allocation spliced continuously.
    """
    if not 0 <= t_star <= traj1.grid[-1] * (1 + 1e-12):
        raise ShiftBeyondHorizon(f"cut time {t_star} outside [0, {traj1.grid[-1]}]")
    t_star = min(float(t_star), float(traj1.grid[-1]))
    level_cut, alloc_cut = _state_at(traj1, t_star)
    gap = l1(level_cut - traj2.levels[0])
    if gap > 1e-8 * (1.0 + l1(level_cut)):
        raise EndpointMismatch(
            f"states differ by {gap:.3g} in l1 at the concatenation time"
        )
    i = int(np.searchsorted(traj1.grid, t_star, side="left"))  # stamps strictly before
    grid = np.concatenate([traj1.grid[:i], [t_star], traj2.grid[1:] + t_star])
    levels = np.vstack([traj1.levels[:i], level_cut, traj2.levels[1:]])
    alloc = np.vstack([traj1.allocation[:i], alloc_cut, traj2.allocation[1:] + alloc_cut])
    head_controls = traj1.controls[:i]
    if head_controls.shape[0] + traj2.controls.shape[0]:
        controls = np.vstack([head_controls.reshape(-1, traj1.K),
                              traj2.controls.reshape(-1, traj1.K)])
    else:
        controls = np.empty((0, traj1.K))
    drained = None
    if traj2.drained_at is not None:
        drained = t_star + traj2.drained_at
    spec = traj1.spec if traj1.spec is traj2.spec else None
    return Trajectory(grid, levels, alloc, controls, spec=spec, drained_at=drained)


def uoc_distance(traj1: Trajectory, traj2: Trajectory, horizon: float) -> float:
    """Sup over [0, horizon] of the l1 gap, linear interpolation between stamps.

    Drained trajectories are zero-extended past their grid; an undrained
    trajectory must cover the window.
    """
    pts = window_points(horizon, traj1.grid, traj2.grid)
    a = traj1.level_at(pts)
    b = traj2.level_at(pts)
    return float(np.abs(a - b).sum(axis=1).max())


def lipschitz_estimate(traj: Trajectory) -> float:
    """Max l1 slope between consecutive stamps."""
    check_count("stamp count", traj.grid.shape[0], low=2)
    dq = np.abs(np.diff(traj.levels, axis=0)).sum(axis=1)
    dt = np.diff(traj.grid)
    return float((dq / dt).max())


# ---------------------------------------------------------------------------
# path families


def _pw_linear(times, values, drained_at) -> Trajectory:
    """Closed-form trajectory carrying no allocation data."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    k = values.shape[1]
    return Trajectory(
        grid=times,
        levels=values,
        allocation=np.zeros_like(values),
        controls=np.zeros((len(times) - 1, k)),
        spec=None,
        drained_at=drained_at,
    )


def _kink_grid(kinks) -> np.ndarray:
    ks = sorted({0.0} | {float(k) for k in kinks if k > 0})
    return np.asarray(ks + [ks[-1] + 1.0])


@dataclass(frozen=True, eq=False)
class ExplicitPathFamily:
    """A family given by closed forms; evaluation grids include every kink,
    so trapezoidal integrals of the level are exact."""

    name: str

    def paths_from(self, x) -> list[Trajectory]:
        x = np.asarray(x, dtype=float)
        if x.shape != (2,):
            raise DimensionMismatch(f"explicit families are two-class, got shape {x.shape}")
        if np.any(x < 0):
            raise NegativeState(f"explicit-family states must be nonnegative, got {x.tolist()}")
        if self.name == "lsc_counterexample":
            return self._lsc_paths(x)
        return self._exchange_paths(x)

    def _lsc_paths(self, x):
        x1, x2 = float(x[0]), float(x[1])
        grid = _kink_grid([x1, x2])
        vals = np.column_stack([np.maximum(x1 - grid, 0), np.maximum(x2 - grid, 0)])
        paths = [_pw_linear(grid, vals, drained_at=max(x1, x2))]
        if abs(x1 - x2) <= 1e-12 * (1.0 + abs(x1)) and x1 > 0:
            c = x1
            grid_d = _kink_grid([2 * c])
            vals_d = np.column_stack(
                [np.maximum(c - grid_d / 2, 0), np.maximum(c - grid_d / 2, 0)]
            )
            paths.append(_pw_linear(grid_d, vals_d, drained_at=2 * c))
        return paths

    def _exchange_paths(self, x):
        x1, x2 = float(x[0]), float(x[1])
        total = x1 + x2

        def one_way(a, b):
            # drain the first coordinate while the second grows, then drain
            grid = _kink_grid([a, total])
            first = np.where(grid <= a, a - grid, 0.0)
            second = np.where(grid <= a, b + grid, np.maximum(total - grid, 0.0))
            return _pw_linear(grid, np.column_stack([first, second]), drained_at=total)

        fwd = one_way(x1, x2)
        bwd = one_way(x2, x1)
        bwd = Trajectory(
            grid=bwd.grid,
            levels=bwd.levels[:, ::-1],
            allocation=bwd.allocation,
            controls=bwd.controls,
            spec=None,
            drained_at=bwd.drained_at,
        )
        return [fwd, bwd]

    def is_member(self, traj: Trajectory, tol: float = 1e-7) -> bool:
        """Does the sampled path coincide with some member through its start?"""
        x = traj.levels[0]
        scale_tol = tol * (1.0 + l1(x))
        horizon = float(traj.grid[-1])
        for cand in self.paths_from(x):
            if not cand.drained and cand.grid[-1] < horizon:
                continue
            if uoc_distance(traj, cand, horizon) <= scale_tol:
                return True
        return False


@dataclass(frozen=True, eq=False)
class NetworkPathFamily:
    """Paths generated by simulating one network under a selector ensemble."""

    spec: NetworkSpec
    selectors: tuple[ControlSelector, ...]
    horizon: float
    h: float

    def paths_from(self, x) -> list[Trajectory]:
        return [
            simulate(self.spec, x, sel, self.horizon, self.h) for sel in self.selectors
        ]

    def is_member(self, traj: Trajectory, tol: float = 1e-7) -> bool:
        """Residual-based membership: flow balance and monotonicity only.

        Finite samples cannot certify set membership exactly; this checks the
        network invariants the family's paths must satisfy.
        """
        report = check_trajectory(self.spec, traj)
        scale_ok = report["flow_balance_residual"] <= tol * (1.0 + l1(traj.levels[0]))
        return bool(report["ok"] and scale_ok)


def network_family(spec: NetworkSpec, horizon: float, h: float) -> NetworkPathFamily:
    """Paths of ``spec`` under :func:`dynamics.default_selectors`."""
    return NetworkPathFamily(spec, default_selectors(), horizon, h)


def example_family(name: str) -> ExplicitPathFamily:
    """The two bundled closed-form families."""
    if name not in ("lsc_counterexample", "concat_counterexample"):
        raise UnknownFixture(f"unknown path family {name!r}")
    return ExplicitPathFamily(name)


def concat_closure_report(family: ExplicitPathFamily, states):
    """Try to concatenate distinct family paths through shared states.

    For each start x, each member A through x, and each interior cut time
    (a quarter, half and three quarters of the way to A's end),
    every *other* member B through the cut state is spliced on and tested for
    family membership.  Returns the attempts and how many stayed inside the
    family (the exchange family yields zero).
    """
    attempts = 0
    members = 0
    for x in states:
        for a in family.paths_from(x):
            end = a.drained_at if a.drained_at else a.grid[-1]
            for frac in (0.25, 0.5, 0.75):
                t_star = frac * end
                y = a.level_at(np.asarray([t_star]))[0]
                if l1(y) <= 1e-9:
                    continue
                continuations = family.paths_from(y)
                a_tail = shift(a, t_star)
                for b in continuations:
                    if uoc_distance(a_tail, b, min(a_tail.grid[-1], b.grid[-1])) <= 1e-9:
                        continue  # b is a's own continuation, not a distinct path
                    cat = concatenate(a, t_star, b)
                    attempts += 1
                    if family.is_member(cat):
                        members += 1
    return {"attempts": attempts, "members": members}


def axiom_report(
    spec: NetworkSpec,
    *,
    n_ops: int = 1000,
    seed: int = 42,
    horizon: float = 20.0,
    h: float = 0.05,
    n_base: int = 6,
) -> dict:
    """Randomized closure check for scaling, shifting, and concatenation.

    Applies random operations to simulated trajectories and records the worst
    flow-balance residual (normalized by 1 + initial mass) and the worst
    Lipschitz estimate against the theoretical constant.  A negative
    ``n_ops`` or an ``n_base`` below 1 raises BadCount.
    """
    check_count("n_ops", n_ops)
    check_count("n_base", n_base, low=1)
    rng = rng_from(seed)
    selectors = default_selectors()
    base = []
    for i in range(n_base):
        direction = rng.dirichlet(np.ones(spec.K))
        radius = rng.uniform(0.5, 2.0)
        traj = simulate(spec, radius * direction, selectors[i % len(selectors)], horizon, h)
        base.append(traj)
    l_bound = lipschitz_constant(spec)

    max_residual = 0.0
    max_slope = 0.0
    counts = {"scale": 0, "shift": 0, "concatenate": 0}
    for _ in range(n_ops):
        traj = base[int(rng.integers(len(base)))]
        op = ("scale", "shift", "concatenate")[int(rng.integers(3))]
        counts[op] += 1
        if op == "scale":
            out = scale(traj, float(rng.uniform(0.3, 3.0)))
        elif op == "shift":
            out = shift(traj, float(rng.uniform(0.0, traj.grid[-1])))
        else:
            t_star = float(rng.uniform(0.0, traj.grid[-1]))
            state = traj.level_at(np.asarray([t_star]))[0]
            tail = simulate(
                spec,
                state,
                selectors[int(rng.integers(len(selectors)))],
                horizon,
                h,
            )
            out = concatenate(traj, t_star, tail)
        residual = flow_balance_residual(spec, out) / (1.0 + l1(out.levels[0]))
        max_residual = max(max_residual, residual)
        if out.grid.shape[0] >= 2:
            max_slope = max(max_slope, lipschitz_estimate(out))
    return {
        "operations": counts,
        "max_normalized_residual": max_residual,
        "max_lipschitz_estimate": max_slope,
        "lipschitz_bound": l_bound,
        "residual_ok": max_residual < 1e-7,
        "lipschitz_ok": max_slope <= l_bound + 1e-9,
    }
