"""Property tests of the fluid simulator, the queueing simulator, the
Skorokhod solver and the spec file format on random valid inputs."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fluidnet._util import l1
from fluidnet.dynamics import (
    FirstVertex,
    FixedSequence,
    MaxDrain,
    MinDrain,
    RandomVertex,
    flow_balance_residual,
    idle,
    simulate,
)
from fluidnet.errors import StepTooLarge
from fluidnet.fluidlimit import DETERMINISTIC, EXPONENTIAL, QueueingSpec, simulate_queueing
from fluidnet.model import PRIORITY, WORK_CONSERVING, validate
from fluidnet.skorokhod import LspInstance, solution_residual, solve_lsp
from fluidnet.specfile import network_to_yaml, parse_spec_text

unit = st.floats(0.0, 1.0)


@st.composite
def networks(draw):
    k = draw(st.integers(1, 4))
    j = draw(st.integers(1, k))
    station = list(range(j)) + draw(st.lists(st.integers(0, j - 1), min_size=k - j,
                                             max_size=k - j))
    station = draw(st.permutations(station))
    constituency = np.zeros((j, k))
    constituency[station, np.arange(k)] = 1.0
    routing = np.array(draw(st.lists(unit, min_size=k * k, max_size=k * k))).reshape(k, k)
    routing[routing < 0.6] = 0.0
    # row sums at most 0.9 keep the spectral radius below one
    routing *= 0.9 / np.maximum(routing.sum(axis=1, keepdims=True), 1.0)
    alpha = np.array(draw(st.lists(unit, min_size=k, max_size=k)))
    alpha[alpha < 0.3] = 0.0
    mu = np.array(draw(st.lists(st.floats(0.5, 3.0), min_size=k, max_size=k)))
    discipline = draw(st.sampled_from([WORK_CONSERVING, PRIORITY]))
    priority = draw(st.permutations(range(k))) if discipline == PRIORITY else None
    return validate(alpha, mu, routing, constituency, discipline, priority)


@st.composite
def queueing_specs(draw):
    net = draw(networks())
    k = net.K
    laws = st.lists(st.sampled_from([EXPONENTIAL, DETERMINISTIC]), min_size=k, max_size=k)
    return QueueingSpec(net, draw(laws), draw(laws))


@settings(max_examples=60, deadline=None)
@given(
    qspec=queueing_specs(),
    q0=st.lists(st.integers(0, 6), min_size=4, max_size=4),
    horizon=st.floats(0.5, 30.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_sample_path_invariants(qspec, q0, horizon, seed):
    net = qspec.network
    path = simulate_queueing(qspec, q0[: net.K], horizon, seed)
    counts, times = path.counts, path.times
    assert np.all(counts >= 0) and np.array_equal(counts, np.round(counts))
    assert np.all(np.diff(times) >= 0.0)
    assert times[-1] == horizon
    assert set(np.diff(counts.sum(axis=1)).tolist()) <= {-1.0, 0.0, 1.0}
    station_busy = np.diff(path.busy @ net.constituency.T, axis=0)
    dt = np.diff(times)[:, None]
    assert np.all(station_busy <= dt + 1e-9 * (1.0 + horizon))


@st.composite
def diagonally_dominant_instances(draw):
    j = draw(st.integers(1, 4))
    off = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=j * j, max_size=j * j)))
    off = off.reshape(j, j) * (1.0 - np.eye(j))
    diag = np.array(draw(st.lists(st.floats(1.0, 2.0), min_size=j, max_size=j)))
    # every off-diagonal row sum stays below 0.95 of the diagonal entry
    scale = 0.95 * diag / np.maximum(np.abs(off).sum(axis=1), 1.0)
    reflection = np.diag(diag) + off * scale[:, None]
    theta = draw(st.lists(st.floats(-1.0, 0.5), min_size=j, max_size=j))
    z0 = draw(st.lists(st.sampled_from([0.0, 0.0, 0.3, 1.0]) | unit, min_size=j, max_size=j))
    return LspInstance(theta, reflection, z0)


@settings(max_examples=40, deadline=None)
@given(inst=diagonally_dominant_instances(), h=st.sampled_from([0.1, 0.05, 0.02]))
def test_lsp_solution_invariants(inst, h):
    sol = solve_lsp(inst, 1.5, h)
    assert sol.states.min() >= -1e-9
    assert np.all(np.diff(sol.pushing, axis=0) >= 0.0)
    assert solution_residual(inst, sol) <= 1e-7 * (1.0 + float(np.abs(inst.z0).sum()))


SELECTORS = {
    "first_vertex": FirstVertex,
    "max_drain": MaxDrain,
    "min_drain": MinDrain,
    "random_vertex": lambda: RandomVertex(3),
    "fixed_sequence": lambda: FixedSequence([2, 0, 1]),
}


@settings(max_examples=60, deadline=None)
@given(
    spec=networks(),
    x0=st.lists(st.sampled_from([0.0, 0.0, 1e-12, 0.5]) | st.floats(0.0, 2.0),
                min_size=4, max_size=4),
    selector=st.sampled_from(sorted(SELECTORS)),
    h=st.sampled_from([0.1, 0.05, 0.02]),
)
def test_fluid_trajectory_invariants(spec, x0, selector, h):
    x0 = np.asarray(x0[: spec.K])
    try:
        traj = simulate(spec, x0, SELECTORS[selector](), 4.0, h, max_events=4000)
    except StepTooLarge:
        return  # a zero-crossing event storm; refused, not a wrong trajectory
    assert flow_balance_residual(spec, traj) <= 1e-7 * (1.0 + l1(x0))
    assert traj.levels.min() >= 0.0
    assert np.diff(idle(spec, traj), axis=0).min(initial=0.0) >= -1e-10
    assert traj.drained_at is None or spec.holds_zero


@settings(max_examples=60, deadline=None)
@given(spec=networks())
def test_network_yaml_round_trip(spec):
    back = parse_spec_text(network_to_yaml(spec)).network
    for name in ("alpha", "mu", "routing", "constituency"):
        assert getattr(back, name).tobytes() == getattr(spec, name).tobytes()
    assert (back.discipline, back.priority) == (spec.discipline, spec.priority)
