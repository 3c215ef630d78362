import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluidnet.dynamics import MaxDrain, MinDrain, check_trajectory, simulate
from fluidnet.errors import (
    BadCount,
    BadFactor,
    BadHorizon,
    EndpointMismatch,
    ShiftBeyondHorizon,
    UnknownFixture,
)
from fluidnet.gfn import (
    axiom_report,
    concat_closure_report,
    concatenate,
    example_family,
    lipschitz_estimate,
    network_family,
    scale,
    shift,
    uoc_distance,
)
from fluidnet.model import validate


def coordinatewise(x1, x2):
    return example_family("lsc_counterexample").paths_from([x1, x2])[0]


class TestScale:
    def test_closed_form(self):
        traj = coordinatewise(1.0, 0.0)
        doubled = scale(traj, 2.0)
        ts = np.asarray([0.0, 0.2, 0.5, 1.0])
        assert doubled.level_at(ts)[:, 0] == pytest.approx(
            np.maximum(0.5 - ts, 0).tolist()
        )

    def test_identity(self):
        traj = coordinatewise(1.0, 0.5)
        same = scale(traj, 1.0)
        assert np.array_equal(same.grid, traj.grid)
        assert np.array_equal(same.levels, traj.levels)

    def test_expand(self):
        # Q(t) = (2 - 0.5 t)^+ seen at half speed starts at 4 and drains at 8
        grid = np.asarray([0.0, 4.0, 5.0])
        levels = np.maximum(2 - 0.5 * grid, 0)[:, None]
        traj = scale(
            _make_traj(grid, levels, drained_at=4.0),
            0.5,
        )
        assert traj.levels[0, 0] == pytest.approx(4.0)
        assert traj.drained_at == pytest.approx(8.0)
        for t, want in [(0.0, 4.0), (4.0, 2.0), (8.0, 0.0)]:
            assert traj.level_at(np.asarray([t]))[0, 0] == pytest.approx(want)

    def test_rejects_nonpositive(self):
        with pytest.raises(BadFactor):
            scale(coordinatewise(1, 1), 0.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_a_factor_that_is_not_finite_and_positive(self, bad):
        with pytest.raises(BadFactor, match="scale factor must be finite and positive"):
            scale(coordinatewise(1, 1), bad)

    @settings(max_examples=30, deadline=None)
    @given(r=st.floats(0.1, 10.0))
    def test_group_property(self, r):
        traj = coordinatewise(1.0, 0.4)
        back = scale(scale(traj, r), 1.0 / r)
        assert np.abs(back.levels - traj.levels).max() < 1e-12
        assert np.abs(back.grid - traj.grid).max() < 1e-12


def _make_traj(grid, levels, drained_at=None):
    from fluidnet.dynamics import Trajectory

    k = levels.shape[1]
    return Trajectory(
        grid, levels, np.zeros_like(levels), np.zeros((len(grid) - 1, k)),
        drained_at=drained_at,
    )


class TestShift:
    def test_identity(self):
        traj = coordinatewise(1.0, 0.2)
        same = shift(traj, 0.0)
        assert np.array_equal(same.grid, traj.grid)
        assert np.array_equal(same.levels, traj.levels)

    def test_closed_form(self):
        shifted = shift(coordinatewise(1.0, 0.0), 0.5)
        ts = np.asarray([0.0, 0.25, 0.5, 1.0])
        assert shifted.level_at(ts)[:, 0] == pytest.approx(np.maximum(0.5 - ts, 0).tolist())

    def test_past_drain_gives_zero_path(self):
        shifted = shift(coordinatewise(1.0, 0.0), 1.0)
        assert np.abs(shifted.levels).max() == 0.0
        assert shifted.drained_at == 0.0

    def test_beyond_horizon(self):
        with pytest.raises(ShiftBeyondHorizon):
            shift(coordinatewise(1.0, 0.0), 10.0)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_rejects_a_time_outside_the_grid(self, bad):
        with pytest.raises(ShiftBeyondHorizon):
            shift(coordinatewise(1.0, 0.0), bad)

    @settings(max_examples=30, deadline=None)
    @given(s1=st.floats(0.0, 0.9), s2=st.floats(0.0, 0.9))
    def test_semigroup(self, s1, s2):
        traj = coordinatewise(1.0, 0.7)
        once = shift(shift(traj, s1), s2)
        twice = shift(traj, s1 + s2)
        ts = np.linspace(0, 0.5, 7)
        assert np.abs(once.level_at(ts) - twice.level_at(ts)).max() < 1e-12

    def test_allocation_renormalized(self, tandem):
        traj = simulate(tandem, [1.0, 0.3], MaxDrain(), 5.0, 0.05)
        shifted = shift(traj, 0.4)
        assert np.abs(shifted.allocation[0]).max() == 0.0
        assert check_trajectory(tandem, shifted)["ok"]


class TestConcatenate:
    def test_zero_paths(self):
        z = coordinatewise(0.0, 0.0)
        cat = concatenate(z, z.grid[-1] / 2, z)
        assert np.abs(cat.levels).max() == 0.0

    def test_one_stamp_paths_give_no_controls(self):
        point = _make_traj(np.array([0.0]), np.array([[1.0, 0.5]]))
        cat = concatenate(point, 0.0, point)
        assert cat.grid.tolist() == [0.0] and cat.levels.tolist() == [[1.0, 0.5]]
        assert cat.controls.shape == (0, 2) and cat.controls.dtype == np.float64

    def test_self_consistency(self):
        whole = coordinatewise(1.0, 0.0)
        tail = shift(whole, 0.5)
        cat = concatenate(whole, 0.5, tail)
        ts = np.linspace(0, 1.4, 29)
        assert np.abs(cat.level_at(ts) - whole.level_at(ts)).max() < 1e-12

    def test_exchange_paths_pass_invariants(self):
        fam = example_family("concat_counterexample")
        fwd = fam.paths_from([1.0, 1.0])[0]
        assert fwd.level_at(np.asarray([1.0]))[0] == pytest.approx([0.0, 2.0])
        # a path of the family from (0, 2) exists and concatenates smoothly
        cont = fam.paths_from([0.0, 2.0])[0]
        cat = concatenate(fwd, 1.0, cont)
        assert cat.drained_at == pytest.approx(3.0)  # (0,2) takes 2 more units

    def test_endpoint_mismatch(self):
        a = coordinatewise(1.0, 0.0)
        b = coordinatewise(0.9, 0.0)
        with pytest.raises(EndpointMismatch):
            concatenate(a, 0.0, b)

    def test_network_concat_preserves_invariants(self, tandem):
        first = simulate(tandem, [1.0, 0.4], MaxDrain(), 5.0, 0.05)
        t_star = 0.33
        state = first.level_at(np.asarray([t_star]))[0]
        second = simulate(tandem, state, MinDrain(), 5.0, 0.05)
        cat = concatenate(first, t_star, second)
        report = check_trajectory(tandem, cat)
        assert report["ok"]
        assert report["flow_balance_residual"] < 1e-7 * 2.4


class TestUocDistance:
    def test_identical(self):
        a = coordinatewise(1.0, 0.3)
        assert uoc_distance(a, a, 2.0) == 0.0

    def test_vertical_offset(self):
        a = coordinatewise(1.0, 0.0)
        b = coordinatewise(1.1, 0.0)
        assert uoc_distance(a, b, 2.0) == pytest.approx(0.1, abs=1e-12)

    def test_perturbed_pair_l1(self):
        # both coordinates are offset by 1/n, so the l1 gap is 2/n before the
        # first kink; evaluated on a fine merged grid
        n = 10
        a = coordinatewise(1.0, 1.0)
        b = coordinatewise(1 + 1 / n, 1 - 1 / n)
        assert uoc_distance(a, b, 2.0) == pytest.approx(2 / n, abs=1e-12)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_bad_horizon_rejected(self, bad):
        a = coordinatewise(1.0, 0.3)
        with pytest.raises(BadHorizon):
            uoc_distance(a, a, bad)


class TestLipschitzEstimate:
    def test_unit_drain(self):
        assert lipschitz_estimate(coordinatewise(1.0, 0.0)) == pytest.approx(1.0)

    def test_zero_path(self):
        assert lipschitz_estimate(coordinatewise(0.0, 0.0)) == 0.0

    def test_two_class_drain(self):
        assert lipschitz_estimate(coordinatewise(1.0, 1.0)) == pytest.approx(2.0)


class TestExampleFamilies:
    def test_unknown_name(self):
        with pytest.raises(UnknownFixture):
            example_family("nope")

    def test_diagonal_only_on_diagonal(self):
        fam = example_family("lsc_counterexample")
        assert len(fam.paths_from([1.0, 1.0])) == 2
        assert len(fam.paths_from([1.5, 0.5])) == 1

    def test_diagonal_path_values(self):
        fam = example_family("lsc_counterexample")
        diag = fam.paths_from([1.0, 1.0])[1]
        ts = np.asarray([0.0, 1.0, 2.0, 2.5])
        want = np.maximum(1 - ts / 2, 0.0)
        assert diag.level_at(ts)[:, 0] == pytest.approx(want.tolist())

    def test_membership(self):
        fam = example_family("lsc_counterexample")
        assert fam.is_member(coordinatewise(1.0, 0.4))
        stranger = _make_traj(
            np.asarray([0.0, 1.0, 2.0]),
            np.asarray([[1.0, 0.4], [0.8, 0.2], [0.0, 0.0]]),
            drained_at=2.0,
        )
        assert not fam.is_member(stranger)

    def test_concat_closure_fails_everywhere(self):
        fam = example_family("concat_counterexample")
        report = concat_closure_report(fam, [[1.0, 1.0], [2.0, 1.0], [0.5, 1.5]])
        assert report["attempts"] > 0
        assert report["members"] == 0


class TestNetworkFamily:
    def test_scale_and_shift_stay_in_family(self, tandem):
        fam = network_family(tandem, horizon=10.0, h=0.05)
        for traj in fam.paths_from([1.0, 0.5]):
            assert fam.is_member(scale(traj, 1.7))
            assert fam.is_member(shift(traj, 0.3))

    def test_axiom_report_smoke(self, tandem):
        report = axiom_report(tandem, n_ops=60, seed=3, horizon=8.0, h=0.05, n_base=3)
        assert report["residual_ok"]
        assert report["lipschitz_ok"]
        assert sum(report["operations"].values()) == 60

    @pytest.mark.xfail(strict=True, reason="lipschitz_estimate reads time-grid rounding as slope")
    def test_axiom_report_lipschitz_ok_at_a_tight_bound(self):
        """Serving class 1 gives |v| = 3.3, the bound itself.  At t ~ 1.42 a
        zero-crossing step of 6.1e-10 s carries relative rounding u t / dt ~
        2.6e-7, so the estimate reads 3.300001, more than 1e-9 above the
        bound.  Passes once the slope is read without that rounding."""
        spec = validate([0.3, 0.0], [1.0, 3.0], [[0, 1], [0, 0]], [[1, 1]], "priority", [1, 0])
        report = axiom_report(spec, n_ops=400, seed=42, horizon=25.0, h=0.02)
        assert report["lipschitz_bound"] == pytest.approx(3.3, abs=1e-12)
        assert report["lipschitz_ok"]

    def test_axiom_report_rejects_a_negative_operation_count(self, tandem):
        with pytest.raises(BadCount, match="n_ops must be nonnegative, got -5"):
            axiom_report(tandem, n_ops=-5)

    def test_axiom_report_needs_a_base_path(self, tandem):
        with pytest.raises(BadCount, match="n_base must be at least 1, got 0"):
            axiom_report(tandem, n_base=0)
