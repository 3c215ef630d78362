import warnings

import numpy as np
import pytest

from fluidnet import fixtures
from fluidnet.dynamics import MaxDrain, simulate
from fluidnet.errors import BadFactor, EventBudgetExceeded, NegativeState, NoSeeds, UnknownLaw
from fluidnet.fluidlimit import (
    DETERMINISTIC,
    EXPONENTIAL,
    QueueingSpec,
    ScaledPath,
    concatenation_evidence,
    distance_table_csv,
    distance_to_fluid,
    fluid_limit_compare,
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
        vals = ScaledPath(path, 1.0).value_at(np.asarray([0.0, 0.5, 1.5, 2.5, 3.5]))
        assert vals[:, 0].tolist() == [3, 3, 2, 1, 0]

    def test_scaled_staircase(self):
        qspec = fixtures.queueing_single_deterministic()
        r = 5.0
        path = simulate_queueing(qspec, [5], 10.0, seed=1)
        scaled = ScaledPath(path, r)
        assert scaled.value_at(np.asarray([0.0]))[0, 0] == pytest.approx(1.0)
        assert scaled.value_at(np.asarray([0.999]))[0, 0] == pytest.approx(0.2)
        assert scaled.value_at(np.asarray([1.0]))[0, 0] == 0.0

    def test_empty_system_zero_path(self):
        qspec = fixtures.queueing_single_deterministic()
        path = simulate_queueing(qspec, [0], 5.0, seed=1)
        scaled = ScaledPath(path, 7.0)
        assert np.abs(scaled.value_at(np.linspace(0, 0.7, 9))).max() == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_a_factor_that_is_not_finite_and_positive(self, bad):
        path = simulate_queueing(fixtures.queueing_single_deterministic(), [3], 5.0, seed=1)
        with pytest.raises(BadFactor, match="scale factor must be finite and positive"):
            ScaledPath(path, bad)


class TestFluidDistance:
    def test_staircase_distance_is_one_customer(self):
        net = fixtures.single_queue(0.0, 1.0)
        qspec = fixtures.queueing_single_deterministic()
        for r in (10, 100):
            path = simulate_queueing(qspec, [r], 1.5 * r, seed=1)
            fluid = simulate(net, [1.0], MaxDrain(), 1.5, 0.01)
            sup, mean = distance_to_fluid(ScaledPath(path, r), fluid, 1.5)
            assert sup == pytest.approx(1.0 / r, abs=1e-12)
            assert mean < sup

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
        fluid = simulate(net, [0.0], MaxDrain(), 1.0, 0.1, stop_on_drain=False)
        for r in (3, 30):
            path = simulate_queueing(qspec, [0], r * 1.0, seed=1)
            sup, mean = distance_to_fluid(ScaledPath(path, float(r)), fluid, 1.0)
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
    vals = ScaledPath(path, r).value_at(grid)
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
