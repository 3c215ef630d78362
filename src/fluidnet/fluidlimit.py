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

from ._util import (
    check_count,
    check_factor,
    check_horizon,
    check_seed,
    child_seeds,
    count_array,
    csv_text,
    float_array,
    freeze_arrays,
    rng_from,
    window_points,
)
from .dynamics import (
    FirstVertex,
    MaxDrain,
    MinDrain,
    RandomVertex,
    Trajectory,
    simulate,
)
from .errors import (
    BadFactor,
    DimensionMismatch,
    EventBudgetExceeded,
    NegativeState,
    NoSeeds,
    ShiftBeyondHorizon,
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


def queueing_spec(network: NetworkSpec) -> QueueingSpec:
    """Exponential interarrival and service laws over ``network``."""
    return QueueingSpec(network, EXPONENTIAL, EXPONENTIAL)


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

    def count_at(self, t) -> np.ndarray:
        """Queue lengths at time t >= 0 (else ShiftBeyondHorizon, and NaN too; text as
        ``_util.float_array``), right continuous."""
        return self._counts(t, "right")

    def _counts(self, t, side: str) -> np.ndarray:
        """:meth:`count_at`, or with side 'left' the pre-jump values."""
        t = float_array("time", t)
        if not np.all(t >= 0):
            raise ShiftBeyondHorizon("negative or NaN time in a count lookup")
        idx = np.searchsorted(self.times, t, side=side) - 1
        idx = np.clip(idx, 0, len(self.times) - 1)
        return self.counts[idx]

    def scaled(self, r: float) -> SamplePath:
        """The path at scale r, t -> Q(r t) / r: times, counts and busy times
        divided by r.  Raises BadFactor unless r is finite and positive."""
        r = check_factor("scale factor", r)
        return SamplePath(self.times / r, self.counts / r, self.busy / r)


def simulate_queueing(
    qspec: QueueingSpec,
    q0,
    horizon: float,
    seed: int,
    *,
    max_events: int = _EVENT_CAP,
) -> SamplePath:
    """Event-driven simulation from integer queue lengths q0.

    Every class with inflow starts with a fresh interarrival draw and every
    nonempty class with a fresh service draw.  Runs are bit-reproducible for a
    fixed seed: a single counter-based generator drives every draw in event
    order.

    Everything fixed for the run is built once before the event loop: each
    station's classes (highest priority first under priority service), the
    per-class law flags and means, and the cumulative routing rows.  The loop
    runs on Python ints and floats.  It makes the same scalar draws in the same
    order, with the same arithmetic, as the numpy-array loop kept as the
    reference in ``tests/test_queueing_reference.py``, so the output bytes are
    the same.  At exact ties completions beat arrivals, and the lowest class
    index goes first.  A negative, infinite or NaN horizon raises BadHorizon,
    a negative count NegativeState, a count that is no whole number within
    int64 BadCount or NonFiniteInput (``_util.count_array``), a bad
    ``max_events`` count BadCount.
    """
    net = qspec.network
    q_arr = count_array("initial counts", q0)
    if q_arr.shape != (net.K,):
        raise DimensionMismatch(f"initial counts have shape {q_arr.shape}, expected ({net.K},)")
    if np.any(q_arr < 0):
        raise NegativeState(f"queue lengths must be nonnegative, got {q_arr.tolist()}")
    horizon = check_horizon(horizon)
    check_count("max_events", max_events)
    rng = rng_from(seed)
    exponential = rng.exponential
    uniform = rng.random

    n_classes = net.K
    priority = net.discipline == PRIORITY
    stations = [
        sorted(classes, key=net.priority.__getitem__) if priority else list(classes)
        for classes in net.station_classes
    ]
    route_cum = np.cumsum(net.routing, axis=1).tolist()
    service_mean = [1.0 / float(m) for m in net.mu]
    service_exp = [law == EXPONENTIAL for law in qspec.service]
    arrivals = qspec.arrival_classes
    arrival_mean = [1.0 / float(a) if a > 0 else math.inf for a in net.alpha]
    arrival_exp = [law == EXPONENTIAL for law in qspec.interarrival]

    def draw_interarrival(k: int) -> float:
        return float(exponential(arrival_mean[k])) if arrival_exp[k] else arrival_mean[k]

    def draw_service(k: int) -> float:
        return float(exponential(service_mean[k])) if service_exp[k] else service_mean[k]

    q = q_arr.tolist()
    next_arrival = [math.inf] * n_classes
    for k in arrivals:
        next_arrival[k] = draw_interarrival(k)
    head_work = [draw_service(k) if q[k] > 0 else 0.0 for k in range(n_classes)]

    t = 0.0
    busy = [0.0] * n_classes
    times = [0.0]
    counts = list(q)
    busies = list(busy)

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
        stop = event_t >= horizon  # also when no event is left (event_t is inf)
        if stop:
            event_t = horizon
        dt = event_t - t
        for k, rate in serving:
            step = rate * dt
            head_work[k] -= step
            busy[k] += step
        t = event_t
        if stop:
            times.append(t)
            counts.extend(q)
            busies.extend(busy)
            break

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
        if len(times) > max_events + 1:
            raise EventBudgetExceeded(f"exceeded {max_events} events")

    shape = (len(times), n_classes)
    return SamplePath(
        np.asarray(times),
        np.asarray(counts, dtype=np.int64).reshape(shape),
        np.asarray(busies).reshape(shape),
    )


def distance_to_fluid(scaled: SamplePath, traj: Trajectory, horizon: float):
    """(sup gap, time-mean gap) between a scaled sample path and a trajectory.

    Both are exact for step-versus-linear.  Between consecutive fluid stamps
    and path jumps the path holds its count and the fluid level is linear: the
    sup takes both one-sided values at every such point, and the mean
    integrates each class's gap over each interval, split where it changes sign.
    """
    pts = window_points(horizon, traj.grid, scaled.times)
    fluid = traj.level_at(pts)
    diff_right = scaled._counts(pts, "right") - fluid
    diff_left = scaled._counts(pts, "left") - fluid
    gap_right = np.abs(diff_right).sum(axis=1)
    gap_left = np.abs(diff_left).sum(axis=1)
    sup = float(np.maximum(gap_right, gap_left).max())
    if len(pts) >= 2 and horizon > 0:
        dt = np.diff(pts)
        area = np.sum(0.5 * (gap_right[:-1] + gap_left[1:]) * dt)
        # where a class's gap changes sign inside an interval, from a to b in
        # size, it spans two triangles whose area is ab / (a + b) dt below the trapezoid
        i, k = np.nonzero(diff_right[:-1] * diff_left[1:] < 0)
        a, b = np.abs(diff_right[i, k]), np.abs(diff_left[i + 1, k])
        mean = float((area - np.sum(a * b / (a + b) * dt[i])) / horizon)
    else:
        mean = sup
    return sup, mean


def _sup_gap(traj: Trajectory, pts: np.ndarray, right: np.ndarray, left: np.ndarray) -> float:
    """The sup gap of :func:`distance_to_fluid` over ``pts``, given the path's
    right and left counts there."""
    fluid = traj.level_at(pts)
    return float(np.maximum(np.abs(right - fluid).sum(axis=1),
                            np.abs(left - fluid).sum(axis=1)).max())


def _nearest_fluid(spec: NetworkSpec, x0, horizon: float, h: float):
    """Simulate the fluid ensemble from x0: three greedy selectors and eight
    random-vertex runs seeded from 42.  Returns the function that gives a
    scaled path's (sup, mean) distance to the nearest of them by sup, the
    first of them on a tie.

    The sup over the joint points of :func:`distance_to_fluid` is the larger
    of the sups over the path's points and over the run's own stamps, so the
    path's points and counts are looked up once per path, and only the
    nearest run gets the full distance."""
    selectors = [MaxDrain(), MinDrain(), FirstVertex()]
    selectors.extend(RandomVertex(s) for s in child_seeds(42, 8))
    trajs = [simulate(spec, x0, sel, horizon, h) for sel in selectors]

    def nearest(scaled: SamplePath):
        pts = window_points(horizon, scaled.times)
        counts = scaled._counts(pts, "right"), scaled._counts(pts, "left")

        def sup(traj):
            stamps = traj.grid[traj.grid <= horizon]
            own = scaled._counts(stamps, "right"), scaled._counts(stamps, "left")
            return max(_sup_gap(traj, pts, *counts), _sup_gap(traj, stamps, *own))

        return distance_to_fluid(scaled, min(trajs, key=sup), horizon)

    return nearest


def _seed_list(seeds) -> list[int]:
    """The seeds, each checked by ``check_seed``; NoSeeds when there are none."""
    seeds = [check_seed(seed) for seed in seeds]
    if not seeds:
        raise NoSeeds("a sampled comparison needs at least one seed")
    return seeds


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
    trajectory of the fluid ensemble from the scaled start, keeping the best
    match.  Rows carry the per-seed time-mean and sup distances.  An empty
    seed list raises NoSeeds, a scale that is not finite and positive, or
    whose start does not fit in int64, BadFactor.
    """
    seeds = _seed_list(seeds)
    r_list = [check_factor("scale", r) for r in r_list]
    q_direction = float_array("direction", q_direction)
    starts = [_scaled_start(r, q_direction) for r in r_list]
    rows = []
    aggregate = {}
    for r, q_int in zip(r_list, starts):
        nearest = _nearest_fluid(spec, q_int / r, horizon, h)
        sups = []
        for seed in seeds:
            sup, mean = nearest(simulate_queueing(qspec, q_int, r * horizon, seed).scaled(r))
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
    (the first run's events before the cut, then the fresh run's shifted by
    the cut, with the busy time accrued by the cut carried over) is compared
    against the nearest fluid trajectory; the unspliced path gives the
    baseline.  This measures evidence only; nothing is decided about the
    closure property of the scaled-limit family.  An empty seed list raises
    NoSeeds, a scale that is not finite and positive, or whose start does not
    fit in int64, BadFactor.
    """
    seeds = _seed_list(seeds)
    r = check_factor("scale", r)
    q_int = _scaled_start(r, float_array("direction", q_direction))
    cut = 0.5 * horizon
    nearest = _nearest_fluid(spec, q_int / r, horizon, h)
    rows = []
    for seed in seeds:
        base = simulate_queueing(qspec, q_int, r * horizon, seed)
        counts_at_cut = base.count_at(cut * r).astype(np.int64)
        head = base.scaled(r)
        tail = simulate_queueing(qspec, counts_at_cut, r * (horizon - cut), seed + 10_000)
        tail = tail.scaled(r)
        before = head.times < cut
        busy_at_cut = [np.interp(cut, head.times, head.busy[:, k]) for k in range(head.K)]
        spliced = SamplePath(
            np.concatenate([head.times[before], tail.times + cut]),
            np.vstack([head.counts[before], tail.counts]),
            np.vstack([head.busy[before], tail.busy + busy_at_cut]),
        )
        base_best = nearest(head)[0]
        spliced_best = nearest(spliced)[0]
        rows.append(
            {"seed": seed, "cut": cut, "baseline_dist": base_best,
             "spliced_dist": spliced_best}
        )
    return {
        "rows": rows,
        "mean_baseline": float(np.mean([row["baseline_dist"] for row in rows])),
        "mean_spliced": float(np.mean([row["spliced_dist"] for row in rows])),
    }
