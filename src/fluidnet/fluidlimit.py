"""Discrete-event queueing simulation and fluid scaling.

The simulator realizes a multiclass queueing network with exponential or
deterministic primitives under either preemptive-resume priority service or
an equal-share head-of-line rule (a concrete work-conserving selection).
Scaled sample paths t -> Q(rt) / r are compared against fluid trajectories
from a selector ensemble to exhibit the convergence of scaled queue lengths
to fluid solutions empirically.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from ._util import check_factor, child_seeds, csv_text, freeze_arrays, rng_from, window_points
from .dynamics import (
    FirstVertex,
    MaxDrain,
    MinDrain,
    RandomVertex,
    Trajectory,
    _check_horizon,
    simulate,
)
from .errors import (
    BadFactor,
    DimensionMismatch,
    EventBudgetExceeded,
    NegativeState,
    NoSeeds,
    UnknownLaw,
)
from .model import PRIORITY, NetworkSpec

EXPONENTIAL = "exponential"
DETERMINISTIC = "deterministic"
NONE = "none"

_EVENT_CAP = 100_000_000


def _broadcast_laws(kinds, k, allowed, what):
    if isinstance(kinds, str):
        kinds = [kinds] * k
    kinds = tuple(str(x) for x in kinds)
    if len(kinds) != k:
        raise DimensionMismatch(f"{what} laws: expected {k} entries, got {len(kinds)}")
    for kind in kinds:
        if kind not in allowed:
            raise UnknownLaw(f"unknown {what} law {kind!r}; allowed: {sorted(allowed)}")
    return kinds


@dataclass(frozen=True, eq=False)
class QueueingSpec:
    """A fluid network plus the stochastic primitives that realize it.

    Law means are tied to the network rates: interarrival mean 1/alpha_k and
    service mean 1/mu_k, so scaled sample paths target the same fluid data.
    Classes without exogenous arrivals carry the 'none' interarrival law; an
    unknown law, or 'none' on a class with inflow, raises UnknownLaw.
    """

    network: NetworkSpec
    interarrival: tuple[str, ...]
    service: tuple[str, ...]

    def __post_init__(self):
        k = self.network.K
        inter = _broadcast_laws(
            self.interarrival, k, {EXPONENTIAL, DETERMINISTIC, NONE}, "interarrival"
        )
        serv = _broadcast_laws(self.service, k, {EXPONENTIAL, DETERMINISTIC}, "service")
        fixed = []
        for kind, rate in zip(inter, self.network.alpha):
            if rate == 0:
                fixed.append(NONE)
            elif kind == NONE:
                raise UnknownLaw("class with positive arrival rate cannot have law 'none'")
            else:
                fixed.append(kind)
        object.__setattr__(self, "interarrival", tuple(fixed))
        object.__setattr__(self, "service", serv)

    @property
    def arrival_classes(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.network.K) if self.interarrival[k] != NONE)


def queueing_spec(network: NetworkSpec, interarrival=EXPONENTIAL, service=EXPONENTIAL):
    return QueueingSpec(network, interarrival, service)


@dataclass(frozen=True, eq=False)
class SamplePath:
    """Event-stamped queue lengths (right continuous) and cumulative busy times."""

    times: np.ndarray
    counts: np.ndarray
    busy: np.ndarray

    def __post_init__(self):
        freeze_arrays(self, ("times", "counts", "busy"))

    @property
    def K(self) -> int:
        return int(self.counts.shape[1])

    def count_at(self, t, side: str = "right") -> np.ndarray:
        """Queue lengths at time t; side='left' gives the pre-jump value."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.times, t, side=side) - 1
        idx = np.clip(idx, 0, len(self.times) - 1)
        return self.counts[idx]


def simulate_queueing(
    qspec: QueueingSpec,
    q0,
    horizon: float,
    seed: int,
    *,
    residual_arrivals=None,
    residual_services=None,
    max_events: int = _EVENT_CAP,
) -> SamplePath:
    """Event-driven simulation from integer queue lengths q0.

    Residual interarrival and head-of-line service times may be supplied;
    fresh draws from the laws are used otherwise.  Runs are bit-reproducible
    for a fixed seed: a single counter-based generator drives every draw in
    event order.

    Everything fixed for the run is built once before the event loop: each
    station's classes (highest priority first under priority service), the
    per-class law flags and means, and the cumulative routing rows.  The loop
    runs on Python ints and floats.  It makes the same scalar draws in the same
    order, with the same arithmetic, as the numpy-array loop kept as the
    reference in ``tests/test_queueing_reference.py``, so the output bytes are
    the same.  At exact ties completions beat arrivals, and the lowest class
    index goes first.  A negative, infinite or NaN horizon raises BadHorizon,
    a negative count NegativeState.
    """
    net = qspec.network
    q_arr = np.asarray(q0, dtype=np.int64)
    if q_arr.shape != (net.K,):
        raise DimensionMismatch(f"initial counts have shape {q_arr.shape}, expected ({net.K},)")
    if np.any(q_arr < 0):
        raise NegativeState(f"queue lengths must be nonnegative, got {q_arr.tolist()}")
    _check_horizon(horizon)
    rng = rng_from(seed)
    exponential = rng.exponential
    uniform = rng.random

    n_classes = net.K
    priority = net.discipline == PRIORITY
    stations = [
        sorted(net.classes_at(j), key=net.priority.__getitem__) if priority
        else list(net.classes_at(j))
        for j in range(net.J)
    ]
    route_cum = np.cumsum(net.routing, axis=1).tolist()
    service_mean = [1.0 / float(m) for m in net.mu]
    service_exp = [law == EXPONENTIAL for law in qspec.service]
    arrivals = qspec.arrival_classes
    arrival_mean = [1.0 / float(a) if a > 0 else math.inf for a in net.alpha]
    arrival_exp = [law == EXPONENTIAL for law in qspec.interarrival]

    def draw_interarrival(k: int) -> float:
        if arrival_exp[k]:
            return float(exponential(arrival_mean[k]))
        return arrival_mean[k]

    def draw_service(k: int) -> float:
        if service_exp[k]:
            return float(exponential(service_mean[k]))
        return service_mean[k]

    q = q_arr.tolist()
    next_arrival = [math.inf] * n_classes
    for k in arrivals:
        if residual_arrivals is not None and np.isfinite(residual_arrivals[k]):
            next_arrival[k] = float(residual_arrivals[k])
        else:
            next_arrival[k] = draw_interarrival(k)

    head_work = [0.0] * n_classes
    for k in range(n_classes):
        if q[k] > 0:
            if residual_services is not None and residual_services[k] > 0:
                head_work[k] = float(residual_services[k])
            else:
                head_work[k] = draw_service(k)

    t = 0.0
    busy = [0.0] * n_classes
    times = [0.0]
    counts = list(q)
    busies = list(busy)

    events = 0
    while True:
        # (class, rate) of every class in service, in class order
        serving = []
        for members in stations:
            if priority:
                for k in members:
                    if q[k] > 0:
                        serving.append((k, 1.0))
                        break
            else:
                waiting = [k for k in members if q[k] > 0]
                if waiting:
                    share = 1.0 / len(waiting)
                    serving.extend((k, share) for k in waiting)
        if len(stations) > 1:
            serving.sort()

        event_t = math.inf
        event_k = -1
        arrive = False
        for k, rate in serving:
            when = t + head_work[k] / rate
            if when < event_t:
                event_t, event_k = when, k
        for k in arrivals:
            if next_arrival[k] < event_t:
                event_t, event_k, arrive = next_arrival[k], k, True
        if event_t >= horizon:  # also when no event is left (event_t is inf)
            event_t = horizon
            dt = event_t - t
            rate_of = dict(serving)
            for k in range(n_classes):
                busy[k] += rate_of.get(k, 0.0) * dt
            times.append(event_t)
            counts.extend(q)
            busies.extend(busy)
            break

        dt = event_t - t
        for k, rate in serving:
            step = rate * dt
            head_work[k] -= step
            busy[k] += step
        t = event_t

        k = event_k
        if arrive:
            q[k] += 1
            if q[k] == 1:
                head_work[k] = draw_service(k)
            next_arrival[k] = t + draw_interarrival(k)
        else:
            head_work[k] = 0.0
            q[k] -= 1
            dest = bisect.bisect_right(route_cum[k], float(uniform()))
            if dest < n_classes:
                q[dest] += 1
                if q[dest] == 1:
                    head_work[dest] = draw_service(dest)
            if q[k] > 0:
                head_work[k] = draw_service(k)

        times.append(t)
        counts.extend(q)
        busies.extend(busy)
        events += 1
        if events > max_events:
            raise EventBudgetExceeded(f"exceeded {max_events} events")

    shape = (len(times), n_classes)
    return SamplePath(
        np.asarray(times),
        np.asarray(counts, dtype=np.int64).reshape(shape),
        np.asarray(busies).reshape(shape),
    )


@dataclass(frozen=True, eq=False)
class ScaledPath:
    """The sample path viewed at scale r: t -> Q(r t) / r, piecewise constant."""

    path: SamplePath
    r: float

    @property
    def jumps(self) -> np.ndarray:
        return self.path.times / self.r

    def value_at(self, t, side: str = "right") -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self.path.count_at(t * self.r, side=side) / self.r


def scale_path(path: SamplePath, r: float, grid=None):
    """Scaled view of a sample path; with a grid, sampled values on it.

    Raises BadFactor unless r is finite and positive.
    """
    scaled = ScaledPath(path, check_factor("scale factor", r))
    if grid is None:
        return scaled
    return scaled.value_at(np.asarray(grid, dtype=float))


def distance_to_fluid(scaled: ScaledPath, traj: Trajectory, horizon: float):
    """(sup gap, time-mean gap) between a scaled sample path and a trajectory.

    The sup is evaluated at all fluid stamps and scaled jump times, taking
    both one-sided values at jumps, which is exact for step-versus-linear.
    """
    pts = window_points(horizon, traj.grid, scaled.jumps)
    fluid = traj.level_at(pts)
    right = scaled.value_at(pts, side="right")
    left = scaled.value_at(pts, side="left")
    gap_right = np.abs(right - fluid).sum(axis=1)
    gap_left = np.abs(left - fluid).sum(axis=1)
    sup = float(np.maximum(gap_right, gap_left).max())
    if len(pts) >= 2 and horizon > 0:
        mean = float(np.sum(0.5 * (gap_right[:-1] + gap_right[1:]) * np.diff(pts)) / horizon)
    else:
        mean = sup
    return sup, mean


def default_fluid_ensemble():
    """The fluid paths a scaled sample path is matched against: three greedy
    selectors and eight random-vertex runs seeded from 42."""
    selectors = [MaxDrain(), MinDrain(), FirstVertex()]
    selectors.extend(RandomVertex(s) for s in child_seeds(42, 8))
    return selectors


def _scaled_start(r: float, q_direction: np.ndarray) -> np.ndarray:
    """The customer counts round(r * q_direction); BadFactor if they do not fit in int64."""
    with np.errstate(over="ignore"):
        start = np.round(r * q_direction)
    if not np.all(np.abs(start) < 2.0**63):
        raise BadFactor(f"scale {r!r} gives start counts {start.tolist()} beyond the int64 range")
    return start.astype(np.int64)


def fluid_limit_compare(
    qspec: QueueingSpec,
    spec: NetworkSpec,
    q_direction,
    r_list,
    horizon: float,
    seeds,
    *,
    h: float = 0.01,
) -> dict:
    """Distance table between scaled sample paths and their nearest fluid path.

    For each scale r the start is round(r * q_direction) customers with fresh
    residuals; each seeded run is scaled back and compared against every
    trajectory of :func:`default_fluid_ensemble`, keeping the best match.
    Rows carry the per-seed time-mean and sup distances.  An empty seed list
    raises NoSeeds, a scale that is not finite and positive, or whose start
    does not fit in int64, BadFactor.
    """
    seeds = [int(seed) for seed in seeds]
    if not seeds:
        raise NoSeeds("fluid-limit comparison needs at least one seed")
    r_list = [check_factor("scale", r) for r in r_list]
    q_direction = np.asarray(q_direction, dtype=float)
    starts = [_scaled_start(r, q_direction) for r in r_list]
    ensemble = default_fluid_ensemble()
    rows = []
    aggregate = {}
    for r, q_int in zip(r_list, starts):
        x0 = q_int / r
        fluid_trajs = [simulate(spec, x0, sel, horizon, h) for sel in ensemble]
        sups = []
        for seed in seeds:
            scaled = ScaledPath(simulate_queueing(qspec, q_int, r * horizon, seed), r)
            sup, mean = min(
                (distance_to_fluid(scaled, traj, horizon) for traj in fluid_trajs),
                key=lambda pair: pair[0],
            )
            rows.append({"r": r, "seed": seed, "mean_dist": mean, "max_dist": sup})
            sups.append(sup)
        aggregate[r] = {
            "mean_of_max": float(np.mean(sups)),
            "worst": float(np.max(sups)),
        }
    return {"rows": rows, "aggregate": aggregate}


def distance_table_csv(table: dict) -> str:
    """CSV export: r, seed, mean_dist, max_dist, one line per (scale, seed) run."""
    header = ["r", "seed", "mean_dist", "max_dist"]
    return csv_text(header, ([row[key] for key in header] for row in table["rows"]))


@dataclass(frozen=True, eq=False)
class _SplicedScaledPath:
    """Scaled path following ``head`` before the cut and ``tail`` after."""

    head: ScaledPath
    tail: ScaledPath
    cut: float

    @property
    def jumps(self) -> np.ndarray:
        head_jumps = self.head.jumps
        tail_jumps = self.tail.jumps + self.cut
        return np.concatenate([head_jumps[head_jumps < self.cut], tail_jumps])

    def value_at(self, t, side: str = "right") -> np.ndarray:
        t = np.asarray(t, dtype=float)
        before = t < self.cut if side == "right" else t <= self.cut
        out = np.empty(t.shape + (self.head.path.K,))
        out[before] = self.head.value_at(t[before], side=side)
        out[~before] = self.tail.value_at(t[~before] - self.cut, side=side)
        return out


def concatenation_evidence(
    qspec: QueueingSpec,
    spec: NetworkSpec,
    q_direction,
    r: float,
    horizon: float,
    seeds,
    *,
    h: float = 0.01,
) -> dict:
    """Empirical probe: do spliced scaled sample paths still look like fluid paths?

    For every seed one sample path is cut at mid-window, a fresh run restarts
    from the customer counts observed at the cut, and the spliced scaled path
    is compared against the nearest fluid trajectory; the unspliced path gives
    the baseline.  This measures evidence only; nothing is decided about the
    closure property of the scaled-limit family.  A scale that is not finite
    and positive, or whose start does not fit in int64, raises BadFactor.
    """
    r = check_factor("scale", r)
    q_int = _scaled_start(r, np.asarray(q_direction, dtype=float))
    ensemble = default_fluid_ensemble()
    cut = 0.5 * horizon
    x0 = q_int / r
    fluid_trajs = [simulate(spec, x0, sel, horizon, h) for sel in ensemble]
    rows = []
    for seed in seeds:
        seed = int(seed)
        base = simulate_queueing(qspec, q_int, r * horizon, seed)
        scaled = ScaledPath(base, r)
        counts_at_cut = base.count_at(np.asarray([cut * r]))[0].astype(np.int64)
        tail = simulate_queueing(qspec, counts_at_cut, r * (horizon - cut), seed + 10_000)
        spliced = _SplicedScaledPath(scaled, ScaledPath(tail, r), cut)
        base_best = min(
            distance_to_fluid(scaled, traj, horizon)[0] for traj in fluid_trajs
        )
        spliced_best = min(
            distance_to_fluid(spliced, traj, horizon)[0] for traj in fluid_trajs
        )
        rows.append(
            {"seed": seed, "cut": cut, "baseline_dist": base_best,
             "spliced_dist": spliced_best}
        )
    return {
        "rows": rows,
        "mean_baseline": float(np.mean([row["baseline_dist"] for row in rows])),
        "mean_spliced": float(np.mean([row["spliced_dist"] for row in rows])),
    }
