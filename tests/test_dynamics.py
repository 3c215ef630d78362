import operator

import numpy as np
import pytest

from fluidnet import fixtures
from fluidnet.dynamics import (
    ControlSelector,
    FirstVertex,
    FixedSequence,
    MaxDrain,
    MinDrain,
    RandomVertex,
    Trajectory,
    _viable_polytope,
    check_trajectory,
    complementarity_residual,
    default_selectors,
    flow_balance_residual,
    idle,
    lipschitz_constant,
    rhs,
    simulate,
    trajectory_csv,
)
from fluidnet.errors import (
    BadHorizon,
    BadStep,
    DimensionMismatch,
    InfeasibleActiveSet,
    NegativeState,
    NonFiniteInput,
    ShiftBeyondHorizon,
    StepTooLarge,
)
from fluidnet.lyapunov import _PrefixSelector
from fluidnet.model import (
    PRIORITY,
    WORK_CONSERVING,
    NetworkSpec,
    admissible_constraints,
    admissible_polytope,
    empty_rows,
    empty_threshold,
    enumerate_polytope_vertices,
    validate,
)
from test_enumerate import random_network


class TestRhs:
    def test_pure_drain(self, draining_queue):
        assert rhs(draining_queue, [1.0]) == pytest.approx([-1.0])

    def test_half_loaded(self, single_queue):
        assert rhs(single_queue, [1.0]) == pytest.approx([-0.5])

    def test_tandem_hand_computed(self):
        spec = validate([1, 0], [2, 1], [[0, 1], [0, 0]], np.eye(2), "work_conserving")
        got = rhs(spec, [1.0, 1.0])
        # oracle: generic matrix assembly done independently
        w = (np.eye(2) - np.asarray([[0, 1], [0, 0]]).T) @ np.diag([2.0, 1.0])
        want = np.asarray([1, 0]) - w @ np.asarray([1.0, 1.0])
        assert got == pytest.approx(want.tolist())
        assert got == pytest.approx([-1.0, 1.0])

    def test_dimension_check(self, single_queue):
        with pytest.raises(DimensionMismatch):
            rhs(single_queue, [1.0, 2.0])


@pytest.mark.parametrize("x0", [[np.nan, 0.5], [np.inf, 0.5], [0.5, -np.inf]])
def test_non_finite_initial_state_rejected(tandem, x0):
    with pytest.raises(ValueError, match="finite"):
        simulate(tandem, x0, FirstVertex(), 1.0, 0.1)
    with pytest.raises(NonFiniteInput):
        simulate(tandem, x0, FirstVertex(), 1.0, 0.1)


def test_negative_initial_state_rejected(tandem):
    with pytest.raises(NegativeState, match="nonnegative"):
        simulate(tandem, [-1.0, 0.0], FirstVertex(), 1.0, 0.1)


class TestSimulate:
    def test_pure_drain_closed_form(self, draining_queue):
        traj = simulate(draining_queue, [1.0], MaxDrain(), 3.0, 0.1)
        assert traj.drained_at == pytest.approx(1.0, abs=1e-12)
        ts = np.asarray([0.0, 0.25, 0.5, 0.99, 1.0])
        want = np.maximum(1 - ts, 0.0)
        assert traj.level_at(ts)[:, 0] == pytest.approx(want.tolist(), abs=1e-12)

    def test_level_at_a_nan_time_raises(self, draining_queue):
        traj = simulate(draining_queue, [1.0], MaxDrain(), 3.0, 0.1)
        for t in (float("nan"), [0.5, float("nan")]):
            with pytest.raises(ShiftBeyondHorizon):
                traj.level_at(t)

    def test_half_loaded_drain_and_hold(self, single_queue):
        traj = simulate(single_queue, [1.0], MaxDrain(), 6.0, 0.1)
        assert traj.drained_at == pytest.approx(2.0, abs=1e-9)
        # the run ends at the drain, and level_at holds the empty state after it
        assert traj.grid[-1] == traj.drained_at
        assert np.abs(traj.level_at([2.5, 6.0])).max() < 1e-8
        assert flow_balance_residual(single_queue, traj) < 1e-10

    def test_priority_sequential_drain(self):
        spec = validate(
            [0, 0], [1, 1], np.zeros((2, 2)), [[1, 1]], "priority", priority=(0, 1)
        )
        traj = simulate(spec, [1.0, 1.0], MaxDrain(), 4.0, 0.25)
        ts = np.asarray([0.0, 0.5, 1.0, 1.5, 2.0])
        want_q1 = np.maximum(1 - ts, 0.0)
        want_q2 = np.where(ts <= 1.0, 1.0, np.maximum(2 - ts, 0.0))
        got = traj.level_at(ts)
        assert got[:, 0] == pytest.approx(want_q1.tolist(), abs=1e-12)
        assert got[:, 1] == pytest.approx(want_q2.tolist(), abs=1e-12)
        assert traj.drained_at == pytest.approx(2.0, abs=1e-12)
        # switching happens at events, so a fine reference adds nothing
        fine = simulate(spec, [1.0, 1.0], MaxDrain(), 4.0, 1e-3)
        coarse_on_fine = traj.level_at(fine.grid)
        assert np.abs(coarse_on_fine - fine.levels).max() < 1e-9

    def test_deterministic_given_seeded_selector(self, tandem):
        a = simulate(tandem, [1.0, 0.5], RandomVertex(7), 5.0, 0.05)
        b = simulate(tandem, [1.0, 0.5], RandomVertex(7), 5.0, 0.05)
        assert np.array_equal(a.grid, b.grid)
        assert np.array_equal(a.levels, b.levels)
        assert np.array_equal(a.controls, b.controls)

    def test_zero_state_invariant(self, tandem):
        traj = simulate(tandem, [0.0, 0.0], MaxDrain(), 2.0, 0.1)
        assert np.abs(traj.levels).max() == 0.0
        assert traj.drained_at == 0.0

    def test_overloaded_grows(self, overloaded_queue):
        traj = simulate(overloaded_queue, [1.0], MaxDrain(), 10.0, 0.1)
        assert traj.drained_at is None
        assert traj.levels[-1, 0] == pytest.approx(11.0, abs=1e-9)

    def test_step_budget(self, single_queue):
        with pytest.raises(StepTooLarge):
            simulate(single_queue, [1.0], MaxDrain(), 10.0, 0.001, max_events=10)

    def test_fixed_sequence_selector(self, tandem):
        traj = simulate(tandem, [1.0, 0.0], FixedSequence([1, 0, 1]), 4.0, 0.5)
        assert traj.grid[-1] <= 4.0
        assert check_trajectory(tandem, traj)["ok"]

    def test_trajectory_invariants_all_selectors(self):
        for spec, x0 in [
            (fixtures.tandem(), [1.0, 0.2]),
            (fixtures.two_class_priority(), [0.4, 0.6]),
            (fixtures.reentrant_line(), [0.5, 0.2, 0.3]),
        ]:
            for sel in [FirstVertex(), MaxDrain(), MinDrain(), RandomVertex(3)]:
                traj = simulate(spec, x0, sel, 30.0, 0.02)
                report = check_trajectory(spec, traj)
                assert report["ok"], (spec.discipline, sel.name, report)

    def test_complementarity_halves_with_step(self, tandem):
        # chattering selector leaks O(h); halving h must cut it to 0.62 or less
        # (0.42 measured here, 0.51 from 0.02 to 0.01)
        res = {}
        for h in (0.04, 0.02):
            traj = simulate(tandem, [1.0, 0.0], FirstVertex(), 20.0, h)
            res[h] = complementarity_residual(tandem, traj)
        assert res[0.02] <= 0.62 * res[0.04]

    @pytest.mark.parametrize("h", [0.04, 0.02, 0.01, 0.005])
    def test_sliding_selector_complementarity_tight(self, tandem, h):
        """MaxDrain from (1, 0) slides along the face q_2 = 0: on every stamp
        where class 1 is loaded, station 2 works at u_2 = 2/3, which serves
        its inflow 2 at rate 3 exactly, so no loaded class idles and the
        functional is 0 up to rounding."""
        traj = simulate(tandem, [1.0, 0.0], MaxDrain(), 50.0, h)
        loaded = traj.levels[:-1, 0] > 0.0
        assert traj.drained and loaded.sum() == round(1.0 / h)
        assert traj.levels[:, 1].tolist() == [0.0] * len(traj.grid)
        assert traj.controls[loaded, 1] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert traj.controls[loaded, 0].tolist() == [1.0] * int(loaded.sum())
        assert abs(complementarity_residual(tandem, traj)) <= 1e-12

    def test_lipschitz_bound_holds(self, rng):
        for spec in fixtures.stable_fixture_set().values():
            bound = lipschitz_constant(spec)
            for sel in [MaxDrain(), MinDrain(), FirstVertex()]:
                x0 = rng.dirichlet(np.ones(spec.K)) * rng.uniform(0.5, 2.0)
                traj = simulate(spec, x0, sel, 10.0, 0.05)
                slopes = np.abs(np.diff(traj.levels, axis=0)).sum(axis=1) / np.diff(traj.grid)
                assert slopes.max() <= bound + 1e-9


def test_selector_outputs_lie_in_polytope(tandem):
    """Each selector returns a row index of the vertex array, so the applied
    control is a vertex of the polytope by construction."""
    verts = admissible_polytope(tandem, [1])
    drift = np.round((verts @ (-tandem.outflow.T) + tandem.alpha).sum(axis=1), 12)
    selectors = [FirstVertex(), MaxDrain(), MinDrain(), RandomVertex(2), FixedSequence([1, 5]),
                 _PrefixSelector((4, 1))]
    for sel in selectors:
        sel.start_run()
        for _ in range(3):
            i = sel.choose(0.0, np.asarray([1.0, 0.0]), verts, drift)
            assert 0 <= operator.index(i) < len(verts)


class _Returns(ControlSelector):
    def __init__(self, pick):
        self.pick = pick

    def choose(self, t, q, vertices, drift):
        return self.pick(vertices)


@pytest.mark.parametrize("pick,error", [
    (lambda verts: verts[0], TypeError),  # a vertex, as selectors once returned
    (lambda verts: verts.mean(axis=0), TypeError),  # a point that is no vertex
    (lambda verts: 0.0, TypeError),
    (lambda verts: len(verts), IndexError),
    pytest.param(lambda verts: -1, IndexError, id="negative"),  # numpy would take the last row
])
def test_simulate_refuses_a_pick_that_is_no_row_index(tandem, pick, error):
    with pytest.raises(error):
        simulate(tandem, [1.0, 0.0], _Returns(pick), 1.0, 0.1)


def test_vertex_arrays_are_read_only(tandem):
    spec = fixtures.reentrant_line()
    arrays = [
        admissible_polytope(tandem, [1]),
        enumerate_polytope_vertices(tandem.K, *admissible_constraints(tandem, [1])),
        enumerate_polytope_vertices(1, [], [], [[1.0], [-1.0]], [-1.0, 0.0]),  # empty
        _viable_polytope(spec, [0]),
    ]
    for verts in arrays:
        assert not verts.flags.writeable
        if verts.size:
            with pytest.raises(ValueError):
                verts[0, 0] = 1.0


def test_stateful_selectors_give_repeatable_tau():
    from fluidnet.stability import draining_time, unit_sphere_states

    spec = fixtures.reentrant_line()

    def selectors():
        return RandomVertex(7), FixedSequence([1, 0, 2, 1])

    taus = [
        draining_time(spec, selectors=selectors(), samples=6, horizon=20.0, h=0.02, seed=1).tau
        for _ in range(3)
    ]
    assert taus[0] is not None
    assert taus == [taus[0]] * 3
    # each run resets its selector, so a fresh selector per run gives the same tau
    fresh = [
        simulate(spec, x, selectors()[i], 20.0, 0.02).drained_at
        for x in unit_sphere_states(spec.K, 6, 1)
        for i in range(2)
    ]
    assert taus[0] == max(fresh)


@pytest.mark.xfail(strict=True, raises=StepTooLarge,
                   reason="Zeno chatter just above the emptiness threshold")
def test_lu_kumar_concatenation_tail_drains_within_ten_stamps_per_step(lu_kumar):
    """gfn-check's concatenation tail on lu_kumar: the mass circulates a few
    eps above zero, each stamp is cut at a zero crossing, and the run spends
    10 * horizon / h stamps without draining.  Passes once the stamp count is
    O(horizon / h + boundary events)."""
    horizon, h = 25.0, 0.02
    traj = simulate(lu_kumar, [0.025250310448595076, 0, 0, 0], MinDrain(), horizon, h,
                    max_events=int(10 * horizon / h))
    assert traj.drained


@pytest.mark.parametrize("horizon", [-1.0, np.inf, np.nan])
def test_bad_horizon_rejected(tandem, horizon):
    with pytest.raises(BadHorizon):
        simulate(tandem, [1.0, 0.5], FirstVertex(), horizon, 0.1)


@pytest.mark.parametrize("h", [0.0, -0.01, np.nan])
def test_bad_step_rejected(tandem, h):
    with pytest.raises(BadStep):
        simulate(tandem, [1.0, 0.5], FirstVertex(), 1.0, h)


class TestViability:
    def oracle(self, spec, x, n=4000, seed=5):
        """Dense sampling over hull weights; feasibility implies LP feasibility."""
        eps = empty_threshold(x)
        zero = [k for k in range(spec.K) if x[k] < eps]
        a_eq, b_eq, a_ub, b_ub = admissible_constraints(spec, empty_rows(spec, zero))
        verts = enumerate_polytope_vertices(spec.K, a_eq, b_eq, a_ub, b_ub)
        vel = verts @ (-spec.outflow.T) + spec.alpha
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(len(verts)), size=n)
        weights = np.vstack([weights, np.eye(len(verts))])
        mixed = weights @ vel
        return bool((mixed[:, zero].min(axis=1) >= -1e-9).any())

    @staticmethod
    def viable_polytope(spec, x):
        """The viable polytope ``simulate`` would enumerate at x; raises
        InfeasibleActiveSet if empty."""
        x = np.asarray(x, dtype=float)
        zeros = np.flatnonzero(x < empty_threshold(x)).tolist()
        return _viable_polytope(spec, zeros), zeros

    def assert_viable(self, spec, x):
        """Non-empty, and every vertex keeps the near-zero classes nonnegative."""
        verts, zeros = self.viable_polytope(spec, x)
        assert verts.shape[0] > 0
        velocities = spec.alpha - verts @ spec.outflow.T
        assert velocities[:, zeros].min(initial=0.0) >= -1e-9

    def test_interior_always_viable(self, tandem):
        verts, zeros = self.viable_polytope(tandem, [1.0, 1.0])
        assert zeros == []
        assert np.array_equal(verts, admissible_polytope(tandem, frozenset()))

    def test_origin_no_arrivals(self, draining_queue):
        self.assert_viable(draining_queue, [0.0])

    def test_tandem_origin(self):
        spec = validate([1, 0], [2, 3], [[0, 1], [0, 0]], np.eye(2), "work_conserving")
        self.assert_viable(spec, [0.0, 0.0])
        assert self.oracle(spec, [0.0, 0.0])

    def test_matches_oracle_on_boundary_states(self, rng):
        for spec in [fixtures.tandem(), fixtures.two_class_priority(), fixtures.lu_kumar()]:
            for _ in range(5):
                x = rng.dirichlet(np.ones(spec.K))
                x[rng.integers(spec.K)] = 0.0
                assert self.oracle(spec, x)
                self.assert_viable(spec, x)

    @pytest.mark.parametrize("discipline", [WORK_CONSERVING, PRIORITY])
    def test_matches_oracle_on_random_networks(self, discipline):
        """One, several and all classes at zero, on random networks."""
        rng = np.random.default_rng([20111990, 23])
        for _ in range(12):
            k = int(rng.integers(1, 5))
            spec = random_network(rng, k, discipline)
            for n_zero in sorted({1, max(1, k - 1), k}):
                x = rng.dirichlet(np.ones(k))
                x[rng.choice(k, n_zero, replace=False)] = 0.0
                assert self.oracle(spec, x)
                self.assert_viable(spec, x)

    def test_inflow_below_zero_is_not_viable(self):
        """Only a spec built around ``validate`` can have no viable control:
        alpha = -1 drains an empty queue whatever the allocation."""
        spec = NetworkSpec(np.array([-1.0]), np.array([1.0]), np.zeros((1, 1)),
                           np.ones((1, 1)), WORK_CONSERVING)
        with pytest.raises(InfeasibleActiveSet):
            self.viable_polytope(spec, [0.0])
        assert not self.oracle(spec, [0.0])
        assert self.viable_polytope(spec, [1.0])[0].shape[0] > 0

    def test_overloaded_origin_still_viable(self, overloaded_queue):
        # growth is allowed; viability only requires staying nonnegative
        self.assert_viable(overloaded_queue, [0.0])

    def test_zero_invariant(self):
        assert fixtures.single_queue().holds_zero
        assert fixtures.lu_kumar().holds_zero
        assert not fixtures.overloaded_queue().holds_zero

    def test_simulate_solves_no_balance_equation(self, monkeypatch):
        """``holds_zero`` is derived with the spec, so a run solves nothing for it."""
        spec = fixtures.tandem()
        calls = []
        real = NetworkSpec.nominal_allocation

        def counted(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(NetworkSpec, "nominal_allocation", counted)
        for selector in default_selectors():
            assert simulate(spec, [1.0, 0.5], selector, 10.0, 0.05).drained
        assert calls == []


class TestResiduals:
    def test_exact_trajectory_tiny_residual(self, draining_queue):
        grid = np.asarray([0.0, 0.5, 1.0, 2.0])
        levels = np.maximum(1 - grid, 0.0)[:, None]
        alloc = np.minimum(grid, 1.0)[:, None]
        controls = np.asarray([[1.0], [1.0], [0.0]])
        traj = Trajectory(grid, levels, alloc, controls, drained_at=1.0)
        assert flow_balance_residual(draining_queue, traj) < 1e-12

    def test_injected_fault_detected(self, draining_queue):
        grid = np.asarray([0.0, 0.5, 1.0, 2.0])
        levels = np.maximum(1 - grid, 0.0)[:, None]
        alloc = np.minimum(grid, 1.0)[:, None]
        alloc[2, 0] += 0.1
        traj = Trajectory(grid, levels, alloc, np.asarray([[1.0], [1.0], [0.0]]))
        assert flow_balance_residual(draining_queue, traj) >= 0.1 * 1.0

    def test_fine_step_simulation_residual(self):
        spec = validate([1, 0], [2, 3], [[0, 1], [0, 0]], np.eye(2), "work_conserving")
        traj = simulate(spec, [1.0, 0.5], MaxDrain(), 5.0, 1e-3)
        assert flow_balance_residual(spec, traj) < 1e-7


def test_trajectory_csv_format(draining_queue):
    traj = simulate(draining_queue, [1.0], MaxDrain(), 2.0, 0.5)
    text = trajectory_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,Q1,T1,u1"
    assert len(lines) == traj.grid.shape[0] + 1
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 1.0, 0.0, 1.0]
    empty = Trajectory(np.empty(0), np.empty((0, 2)), np.empty((0, 2)), np.empty((0, 2)))
    assert trajectory_csv(empty) == "t,Q1,Q2,T1,T2,u1,u2\n"


def test_trajectory_idle_processes(tandem, two_class_priority):
    traj = simulate(tandem, [1.0, 0.0], MaxDrain(), 3.0, 0.1)
    idle_time = idle(tandem, traj)
    assert idle_time.shape[1] == tandem.J
    assert np.diff(idle_time, axis=0).min() >= -1e-10
    traj_p = simulate(two_class_priority, [0.5, 0.5], MaxDrain(), 3.0, 0.1)
    unused = idle(two_class_priority, traj_p)
    assert unused.shape[1] == two_class_priority.K
    assert np.diff(unused, axis=0).min() >= -1e-10
