"""Differential test of the event-driven queueing simulator against a numpy loop.

``reference_simulate_queueing`` is the simulator as it was written first: the
state lives in numpy arrays and the service rates are rebuilt from the
constituency on every event.  ``simulate_queueing`` must return the same
bytes (``times``, ``counts`` and ``busy``, with their dtypes) for the same
seed, because its draws and their order are part of the reproducibility
contract.
"""
import numpy as np
import pytest

from fluidnet import fixtures
from fluidnet.errors import BadHorizon, DimensionMismatch, EventBudgetExceeded
from fluidnet.fluidlimit import (
    _EVENT_CAP,
    DETERMINISTIC,
    EXPONENTIAL,
    NONE,
    QueueingSpec,
    SamplePath,
    simulate_queueing,
)
from fluidnet.model import PRIORITY, WORK_CONSERVING, validate
from test_enumerate import random_network


def reference_service_rates(qspec: QueueingSpec, q: np.ndarray) -> np.ndarray:
    net = qspec.network
    rates = np.zeros(net.K)
    for j in range(net.J):
        classes = [k for k in net.station_classes[j] if q[k] > 0]
        if not classes:
            continue
        if net.discipline == PRIORITY:
            top = min(classes, key=lambda k: net.priority[k])
            rates[top] = 1.0
        else:
            share = 1.0 / len(classes)
            for k in classes:
                rates[k] = share
    return rates


def reference_simulate_queueing(
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
    """
    net = qspec.network
    q = np.asarray(q0, dtype=np.int64).copy()
    if q.shape != (net.K,):
        raise DimensionMismatch(f"initial counts have shape {q.shape}, expected ({net.K},)")
    if np.any(q < 0):
        raise ValueError("queue lengths must be nonnegative integers")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    def draw_interarrival(k: int) -> float:
        if qspec.interarrival[k] == EXPONENTIAL:
            return float(rng.exponential(1.0 / net.alpha[k]))
        return 1.0 / float(net.alpha[k])

    def draw_service(k: int) -> float:
        if qspec.service[k] == EXPONENTIAL:
            return float(rng.exponential(1.0 / net.mu[k]))
        return 1.0 / float(net.mu[k])

    next_arrival = np.full(net.K, np.inf)
    for k in qspec.arrival_classes:
        if residual_arrivals is not None and np.isfinite(residual_arrivals[k]):
            next_arrival[k] = float(residual_arrivals[k])
        else:
            next_arrival[k] = draw_interarrival(k)

    head_work = np.zeros(net.K)
    for k in range(net.K):
        if q[k] > 0:
            if residual_services is not None and residual_services[k] > 0:
                head_work[k] = float(residual_services[k])
            else:
                head_work[k] = draw_service(k)

    t = 0.0
    busy = np.zeros(net.K)
    times = [0.0]
    counts = [q.copy()]
    busies = [busy.copy()]
    route_cum = np.cumsum(net.routing, axis=1)

    events = 0
    while True:
        rates = reference_service_rates(qspec, q)
        # earliest event; completions beat arrivals at exact ties, low class index first
        event_t = np.inf
        event = ("end", -1)
        for k in range(net.K):
            if q[k] > 0 and rates[k] > 0:
                when = t + head_work[k] / rates[k]
                if when < event_t:
                    event_t, event = when, ("done", k)
        for k in range(net.K):
            if next_arrival[k] < event_t:
                event_t, event = next_arrival[k], ("arrive", k)
        if event_t >= horizon:
            event, event_t = ("end", -1), horizon

        dt = event_t - t
        serving = (q > 0) & (rates > 0)
        head_work[serving] -= rates[serving] * dt
        busy += rates * dt
        t = event_t

        kind, k = event
        if kind == "end":
            times.append(t)
            counts.append(q.copy())
            busies.append(busy.copy())
            break
        if kind == "done":
            head_work[k] = 0.0
            q[k] -= 1
            draw = float(rng.random())
            dest = int(np.searchsorted(route_cum[k], draw, side="right"))
            if dest < net.K:
                q[dest] += 1
                if q[dest] == 1:
                    head_work[dest] = draw_service(dest)
            if q[k] > 0:
                head_work[k] = draw_service(k)
        else:  # arrival
            q[k] += 1
            if q[k] == 1:
                head_work[k] = draw_service(k)
            next_arrival[k] = t + draw_interarrival(k)

        times.append(t)
        counts.append(q.copy())
        busies.append(busy.copy())
        events += 1
        if events > max_events:
            raise EventBudgetExceeded(f"exceeded {max_events} events")

    return SamplePath(np.asarray(times), np.asarray(counts), np.asarray(busies))


def random_qspec(rng, discipline):
    k = int(rng.integers(1, 6))
    net = random_network(rng, k, discipline)
    laws = [EXPONENTIAL, DETERMINISTIC]
    interarrival = [laws[i] for i in rng.integers(0, 2, k)]
    service = [laws[i] for i in rng.integers(0, 2, k)]
    return QueueingSpec(net, interarrival, service)


def assert_same_path(got: SamplePath, want: SamplePath):
    for name in ("times", "counts", "busy"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def run_both(*args, **kwargs):
    got = simulate_queueing(*args, **kwargs)
    want = reference_simulate_queueing(*args, **kwargs)
    assert_same_path(got, want)
    return got


@pytest.mark.parametrize("seed", range(80))
def test_random_networks_same_bytes(seed):
    rng = np.random.default_rng([20111990, 7, seed])
    discipline = (WORK_CONSERVING, PRIORITY)[seed % 2]
    qspec = random_qspec(rng, discipline)
    k = qspec.network.K
    q0 = rng.integers(0, 6, k)
    if seed % 5 == 0:
        q0[:] = 0
    path = run_both(qspec, q0, float(rng.uniform(5.0, 60.0)), int(seed))
    assert path.times[-1] > 0


@pytest.mark.parametrize("seed", range(40))
def test_exact_ties_same_bytes(seed):
    """Deterministic laws with dyadic rates put arrivals and completions at
    exactly equal times, so the tie rules decide the path."""
    rng = np.random.default_rng([20111990, 8, seed])
    k = int(rng.integers(2, 6))
    net = random_network(rng, k, (WORK_CONSERVING, PRIORITY)[seed % 2])
    alpha = rng.choice([0.0, 0.5, 1.0], k)
    mu = rng.choice([1.0, 2.0, 4.0], k)
    net = validate(alpha, mu, net.routing, net.constituency, net.discipline, net.priority)
    laws = [DETERMINISTIC if x < 0.8 else EXPONENTIAL for x in rng.uniform(size=k)]
    qspec = QueueingSpec(net, DETERMINISTIC, laws)
    run_both(qspec, rng.integers(0, 4, k), 30.0, int(seed))


@pytest.mark.parametrize("discipline", [WORK_CONSERVING, PRIORITY])
def test_fixtures_same_bytes(discipline):
    if discipline == PRIORITY:
        qspec = fixtures.queueing_two_class_priority()
        q0 = [30, 20]
    else:
        qspec = QueueingSpec(fixtures.two_station_work_conserving(), EXPONENTIAL, EXPONENTIAL)
        q0 = [20, 10, 5]
    run_both(qspec, q0, 400.0, 11)
    run_both(fixtures.queueing_single_deterministic(), [5], 10.0, 1)


def test_reentrant_line_large_scale_same_bytes():
    qspec = QueueingSpec(fixtures.reentrant_line(), EXPONENTIAL, EXPONENTIAL)
    k = qspec.network.K
    run_both(qspec, [100] * k, 300.0, 3)


def test_empty_start_without_arrivals():
    qspec = fixtures.queueing_single_deterministic()
    path = run_both(qspec, [0], 10.0, 1)
    assert path.times.tolist() == [0.0, 10.0]
    assert qspec.interarrival == (NONE,)


@pytest.mark.parametrize("horizon", [0.0, -1.0, np.inf, np.nan])
@pytest.mark.parametrize("q0", [[0], [3]])
def test_degenerate_horizons_same_bytes(horizon, q0):
    qspec = fixtures.queueing_single_deterministic()
    if horizon == 0.0:
        run_both(qspec, q0, horizon, 1)
    else:
        with pytest.raises(BadHorizon, match="finite and nonnegative"):
            simulate_queueing(qspec, q0, horizon, 1)


def test_event_budget_raises_at_the_same_event():
    qspec = fixtures.queueing_two_class_priority()
    for budget in (0, 1, 7, 20):
        with pytest.raises(EventBudgetExceeded, match=f"exceeded {budget} events"):
            simulate_queueing(qspec, [3, 2], 1000.0, 1, max_events=budget)
        with pytest.raises(EventBudgetExceeded, match=f"exceeded {budget} events"):
            reference_simulate_queueing(qspec, [3, 2], 1000.0, 1, max_events=budget)
    # one event more than the budget would allow completes the same run
    path = run_both(qspec, [3, 2], 5.0, 1)
    n_events = len(path.times) - 2
    run_both(qspec, [3, 2], 5.0, 1, max_events=n_events)
    with pytest.raises(EventBudgetExceeded):
        simulate_queueing(qspec, [3, 2], 5.0, 1, max_events=n_events - 1)
