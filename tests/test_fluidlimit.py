import warnings

import numpy as np
import pytest

from fluidnet import fixtures
from fluidnet._util import child_seeds
from fluidnet.dynamics import FirstVertex, MaxDrain, MinDrain, RandomVertex, simulate
from fluidnet.errors import BadFactor, BadHorizon, EventBudgetExceeded, NegativeState, NoSeeds, UnknownLaw
from fluidnet.fluidlimit import (
    DETERMINISTIC,
    EXPONENTIAL,
    QueueingSpec,
    SamplePath,
    _nearest_fluid,
    concatenation_evidence,
    distance_table_csv,
    distance_to_fluid,
    fluid_limit_compare,
    queueing_spec,
    simulate_queueing,
)


class TestSimulateQueueing:
    def test_deterministic_drain(self):
        qspec = fixtures.queueing_single_deterministic()
        path = simulate_queueing(qspec, [5], 10.0, seed=1)
        departures = path.times[1:6]
        assert departures.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert path.counts[-1, 0] == 0

    def test_underloaded_deterministic_stays_small(self):
        net = fixtures.single_queue(alpha=1.0, mu=2.0)
        qspec = QueueingSpec(net, DETERMINISTIC, DETERMINISTIC)
        path = simulate_queueing(qspec, [0], 50.0, seed=1)
        assert path.counts.max() <= 1

    def test_bit_reproducible(self):
        qspec = fixtures.queueing_two_class_priority()
        a = simulate_queueing(qspec, [3, 2], 80.0, seed=42)
        b = simulate_queueing(qspec, [3, 2], 80.0, seed=42)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.busy, b.busy)

    def test_priority_serves_high_class_first(self):
        qspec = fixtures.queueing_two_class_priority()
        path = simulate_queueing(qspec, [4, 4], 120.0, seed=5)
        # class 1 may only accumulate busy time while class 0 is empty
        for i in range(len(path.times) - 1):
            d_busy = path.busy[i + 1] - path.busy[i]
            if d_busy[1] > 1e-12:
                assert path.counts[i, 0] == 0

    def test_work_conserving_discrete(self):
        net = fixtures.two_station_work_conserving()
        qspec = QueueingSpec(net, EXPONENTIAL, EXPONENTIAL)
        path = simulate_queueing(qspec, [3, 2, 1], 60.0, seed=8)
        c = net.constituency
        for i in range(len(path.times) - 1):
            dt = path.times[i + 1] - path.times[i]
            if dt <= 1e-12:
                continue
            station_busy = (path.busy[i + 1] - path.busy[i]) @ c.T / dt
            station_queue = path.counts[i] @ c.T
            # a station with work is never idle
            assert np.all(station_busy[station_queue > 0] > 1 - 1e-9)

    def test_event_budget(self):
        qspec = fixtures.queueing_two_class_priority()
        with pytest.raises(EventBudgetExceeded):
            simulate_queueing(qspec, [3, 2], 1000.0, seed=1, max_events=20)

    def test_busy_slope_at_most_one_per_station(self):
        qspec = fixtures.queueing_two_class_priority()
        path = simulate_queueing(qspec, [5, 5], 60.0, seed=2)
        dt = np.diff(path.times)
        keep = dt > 1e-12
        slopes = np.diff(path.busy, axis=0)[keep].sum(axis=1) / dt[keep]
        assert slopes.max() <= 1.0 + 1e-9


class TestScaling:
    def test_identity_scale_on_grid(self):
        qspec = fixtures.queueing_single_deterministic()
        path = simulate_queueing(qspec, [3], 5.0, seed=1)
        vals = path.scaled(1.0).count_at(np.asarray([0.0, 0.5, 1.5, 2.5, 3.5]))
        assert vals[:, 0].tolist() == [3, 3, 2, 1, 0]

    def test_scaled_staircase(self):
        qspec = fixtures.queueing_single_deterministic()
        r = 5.0
        path = simulate_queueing(qspec, [5], 10.0, seed=1)
        scaled = path.scaled(r)
        assert scaled.count_at(np.asarray([0.0]))[0, 0] == pytest.approx(1.0)
        assert scaled.count_at(np.asarray([0.999]))[0, 0] == pytest.approx(0.2)
        assert scaled.count_at(np.asarray([1.0]))[0, 0] == 0.0

    def test_empty_system_zero_path(self):
        qspec = fixtures.queueing_single_deterministic()
        path = simulate_queueing(qspec, [0], 5.0, seed=1)
        scaled = path.scaled(7.0)
        assert np.abs(scaled.count_at(np.linspace(0, 0.7, 9))).max() == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_a_factor_that_is_not_finite_and_positive(self, bad):
        path = simulate_queueing(fixtures.queueing_single_deterministic(), [3], 5.0, seed=1)
        with pytest.raises(BadFactor, match="scale factor must be finite and positive"):
            path.scaled(bad)


def jump_path(r=100.0):
    """A two-class priority sample path at scale r over [0, 2] whose scaled
    jump instants t include some with (t / r) * r < t."""
    path = simulate_queueing(fixtures.queueing_two_class_priority(), [50, 50], 2.0 * r, seed=7)
    assert np.all(np.diff(path.times) > 0)  # no two events at one instant
    assert np.any(path.times / r * r < path.times)
    return path


def reference_distance(path, r, traj, horizon):
    """(sup, mean) of distance_to_fluid, one point at a time, with the path
    read at the jump instants path.times / r by a linear scan.

    On each interval between points the path holds the count it jumped to at
    the left end, which is the left-side (pre-jump) value at the right end;
    each class's gap is linear there and is integrated exactly, split at the
    time it crosses zero."""
    jumps = (path.times / r).tolist()
    pts = sorted({0.0, horizon, *(t for t in traj.grid.tolist() if t <= horizon),
                  *(t for t in jumps if t <= horizon)})
    sup, rights, lefts = 0.0, [], []
    for p in pts:
        fluid = traj.level_at(np.asarray([p]))[0]
        after = sum(1 for t in jumps if t <= p) - 1
        before = max(sum(1 for t in jumps if t < p) - 1, 0)
        right = path.counts[after] / r - fluid
        left = path.counts[before] / r - fluid
        sup = max(sup, float(np.abs(right).sum()), float(np.abs(left).sum()))
        rights.append(right)
        lefts.append(left)
    area = 0.0
    for p, q, start, end in zip(pts, pts[1:], rights, lefts[1:]):
        for d0, d1 in zip(start.tolist(), end.tolist()):
            if d0 * d1 < 0:
                zero = p + (q - p) * d0 / (d0 - d1)
                area += 0.5 * abs(d0) * (zero - p) + 0.5 * abs(d1) * (q - zero)
            else:
                area += 0.5 * (abs(d0) + abs(d1)) * (q - p)
    return sup, area / horizon


class TestJumpInstants:
    def test_one_sided_values_at_every_jump(self):
        r = 100.0
        path = jump_path(r)
        scaled = path.scaled(r)
        jumps = scaled.times[1:]
        assert np.array_equal(scaled.count_at(jumps), path.counts[1:] / r)
        assert np.array_equal(scaled.count_at(jumps, side="left"), path.counts[:-1] / r)

    def test_distance_matches_pointwise_reference(self):
        r, horizon = 100.0, 2.0
        path = jump_path(r)
        for selector in (MaxDrain(), MinDrain()):
            fluid = simulate(fixtures.two_class_priority(), path.counts[0] / r, selector,
                             horizon, 0.01)
            sup, mean = distance_to_fluid(path.scaled(r), fluid, horizon)
            ref_sup, ref_mean = reference_distance(path, r, fluid, horizon)
            assert sup == ref_sup
            assert mean == pytest.approx(ref_mean, rel=1e-12, abs=0.0)


class TestMeanDistance:
    @pytest.mark.parametrize("r", [10.0, 100.0])
    def test_mean_matches_fine_grid_integral(self, r):
        horizon = 10.0
        start = np.array([r / 2, r / 2])
        path = simulate_queueing(fixtures.queueing_two_class_priority(), start, r * horizon,
                                 seed=7).scaled(r)
        fluid = simulate(fixtures.two_class_priority(), start / r, MaxDrain(), horizon, 0.01)
        _, mean = distance_to_fluid(path, fluid, horizon)
        # midpoint rule on 10^6 cells; each jump costs at most one cell of its size
        cells = 1_000_000
        mids = (np.arange(cells) + 0.5) * (horizon / cells)
        gap = np.abs(path.count_at(mids) - fluid.level_at(mids)).sum(axis=1)
        assert mean == pytest.approx(gap.mean(), rel=1e-3)


class TestFluidDistance:
    def test_staircase_distance_is_one_customer(self):
        net = fixtures.single_queue(0.0, 1.0)
        qspec = fixtures.queueing_single_deterministic()
        for r in (10, 100):
            path = simulate_queueing(qspec, [r], 1.5 * r, seed=1)
            fluid = simulate(net, [1.0], MaxDrain(), 1.5, 0.01)
            sup, mean = distance_to_fluid(path.scaled(r), fluid, 1.5)
            assert sup == pytest.approx(1.0 / r, abs=1e-12)
            assert mean < sup

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_bad_horizon_rejected(self, bad):
        net = fixtures.single_queue(0.0, 1.0)
        path = simulate_queueing(fixtures.queueing_single_deterministic(), [10], 15.0, seed=1)
        fluid = simulate(net, [1.0], MaxDrain(), 1.5, 0.01)
        with pytest.raises(BadHorizon):
            distance_to_fluid(path.scaled(10), fluid, bad)

    def test_compare_table_shape(self):
        table = fluid_limit_compare(
            fixtures.queueing_two_class_priority(),
            fixtures.two_class_priority(),
            [0.5, 0.5],
            [5, 20],
            2.0,
            seeds=[1, 2],
            h=0.02,
        )
        assert len(table["rows"]) == 4
        assert set(table["aggregate"]) == {5.0, 20.0}
        csv = distance_table_csv(table)
        assert csv.splitlines()[0] == "r,seed,mean_dist,max_dist"
        assert len(csv.splitlines()) == 5

    def test_compare_without_seeds_rejected(self, monkeypatch):
        from fluidnet import fluidlimit

        def refuse(*args, **kwargs):
            raise AssertionError("simulated before checking the seeds")

        monkeypatch.setattr(fluidlimit, "simulate", refuse)
        with pytest.raises(NoSeeds):
            fluid_limit_compare(
                fixtures.queueing_two_class_priority(),
                fixtures.two_class_priority(),
                [0.5, 0.5],
                [5, 20],
                2.0,
                seeds=[],
            )

    def test_empty_start_no_arrivals_zero_distance(self):
        net = fixtures.single_queue(0.0, 1.0)
        qspec = fixtures.queueing_single_deterministic()
        fluid = simulate(net, [0.0], MaxDrain(), 1.0, 0.1)
        for r in (3, 30):
            path = simulate_queueing(qspec, [0], r * 1.0, seed=1)
            sup, mean = distance_to_fluid(path.scaled(r), fluid, 1.0)
            assert sup == 0.0 and mean == 0.0

    def test_distances_shrink_with_scale(self):
        table = fluid_limit_compare(
            fixtures.queueing_two_class_priority(),
            fixtures.two_class_priority(),
            [0.5, 0.5],
            [10, 100],
            2.0,
            seeds=[1, 2, 3, 4],
            h=0.02,
        )
        agg = table["aggregate"]
        assert agg[100.0]["mean_of_max"] <= agg[10.0]["mean_of_max"]


def reference_nearest(scaled, trajs, horizon):
    """The full distance to every run, the first smallest sup kept."""
    return min((distance_to_fluid(scaled, traj, horizon) for traj in trajs),
               key=lambda pair: pair[0])


@pytest.mark.parametrize("r", [100.0, 1000.0])
@pytest.mark.parametrize("name", ["two_class_priority", "reentrant_line"])
def test_nearest_fluid_matches_the_full_distance_to_every_run(name, r):
    spec = getattr(fixtures, name)()
    start = np.round(r * np.ones(spec.K) / spec.K).astype(np.int64)
    horizon, h = 10.0, 0.05
    selectors = [MaxDrain(), MinDrain(), FirstVertex()]
    selectors.extend(RandomVertex(s) for s in child_seeds(42, 8))
    trajs = [simulate(spec, start / r, sel, horizon, h) for sel in selectors]
    nearest = _nearest_fluid(spec, start / r, horizon, h)
    # a path that holds its start has no jump in the window, so each run's
    # sup lies at one of its own stamps
    held = SamplePath(np.zeros(1), start[None] / r, np.zeros((1, spec.K)))
    for seed in (1, 2, 3):
        scaled = simulate_queueing(queueing_spec(spec), start, r * horizon, seed).scaled(r)
        assert nearest(scaled) == reference_nearest(scaled, trajs, horizon)
    assert nearest(held) == reference_nearest(held, trajs, horizon)


def test_scaled_slopes_within_fluid_bound():
    # windowed slopes of a scaled path approach fluid slopes, which are
    # bounded by the network's a priori constant
    from fluidnet.dynamics import lipschitz_constant
    from fluidnet.fluidlimit import QueueingSpec

    net = fixtures.tandem()
    qspec = QueueingSpec(net, EXPONENTIAL, EXPONENTIAL)
    bound = lipschitz_constant(net)
    r = 100
    path = simulate_queueing(qspec, [r, 0], 2.0 * r, seed=4)
    grid = np.arange(0.0, 2.0 + 1e-9, 0.1)
    vals = path.scaled(r).count_at(grid)
    slopes = np.abs(np.diff(vals, axis=0)).sum(axis=1) / 0.1
    assert np.percentile(slopes, 95) <= bound + 0.1


def test_concatenation_evidence_reports():
    report = concatenation_evidence(
        fixtures.queueing_two_class_priority(),
        fixtures.two_class_priority(),
        [0.5, 0.5],
        50,
        2.0,
        seeds=[1, 2, 3],
        h=0.02,
    )
    assert len(report["rows"]) == 3
    assert report["mean_spliced"] >= 0.0
    assert np.isfinite(report["mean_spliced"]) and np.isfinite(report["mean_baseline"])


def test_queueing_spec_law_validation():
    net = fixtures.two_class_priority()
    spec = QueueingSpec(net, EXPONENTIAL, EXPONENTIAL)
    assert spec.arrival_classes == (0, 1)
    with pytest.raises(ValueError):
        QueueingSpec(fixtures.single_queue(0.5, 1.0), "none", EXPONENTIAL)
    zero_arrivals = QueueingSpec(fixtures.single_queue(0.0, 1.0), EXPONENTIAL, EXPONENTIAL)
    assert zero_arrivals.interarrival == ("none",)


def test_unknown_law_and_none_with_inflow_raise_unknown_law():
    with pytest.raises(UnknownLaw, match="unknown interarrival law 'weibull'"):
        QueueingSpec(fixtures.single_queue(0.5, 1.0), "weibull", EXPONENTIAL)
    with pytest.raises(UnknownLaw, match="unknown service law 'gamma'"):
        QueueingSpec(fixtures.single_queue(0.5, 1.0), EXPONENTIAL, "gamma")
    with pytest.raises(UnknownLaw, match="cannot have law 'none'"):
        QueueingSpec(fixtures.single_queue(0.5, 1.0), "none", EXPONENTIAL)


def test_negative_counts_raise_negative_state():
    with pytest.raises(NegativeState, match="nonnegative"):
        simulate_queueing(fixtures.queueing_single_deterministic(), [-5], 5.0, seed=1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -10.0])
def test_scales_that_are_not_finite_and_positive_fail_fast(bad, monkeypatch):
    from fluidnet import fluidlimit

    def refuse(*args, **kwargs):
        raise AssertionError("simulated before checking the scale")

    monkeypatch.setattr(fluidlimit, "simulate", refuse)
    args = (fixtures.queueing_two_class_priority(), fixtures.two_class_priority(), [0.5, 0.5])
    with pytest.raises(BadFactor, match="scale must be finite and positive"):
        fluid_limit_compare(*args, [5.0, bad], 2.0, seeds=[1])
    with pytest.raises(BadFactor, match="scale must be finite and positive"):
        concatenation_evidence(*args, bad, 2.0, seeds=[1])


def test_a_start_beyond_int64_fails_fast(monkeypatch):
    """round(r * direction) above 2^63 cannot be a customer count: BadFactor
    names the scale, with no cast warning and before any simulation."""
    from fluidnet import fluidlimit

    def refuse(*args, **kwargs):
        raise AssertionError("simulated before checking the start")

    monkeypatch.setattr(fluidlimit, "simulate", refuse)
    args = (fixtures.queueing_two_class_priority(), fixtures.two_class_priority(), [0.5, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadFactor, match="scale 1e\\+300 .* int64"):
            fluid_limit_compare(*args, [5.0, 1e300], 2.0, seeds=[1])
        with pytest.raises(BadFactor, match="scale 2e\\+19 .* int64"):
            concatenation_evidence(*args, 2e19, 2.0, seeds=[1])
        with pytest.raises(BadFactor, match="scale 1e\\+300 .* int64"):  # r * direction is inf
            concatenation_evidence(*args[:2], [1e10, 1.0], 1e300, 2.0, seeds=[1])
