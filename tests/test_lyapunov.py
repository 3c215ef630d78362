import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluidnet import fixtures
from fluidnet.dynamics import MaxDrain, RandomVertex, simulate
from fluidnet.errors import BadCount, BadFactor, BadSeed, TruncatedWarning
from fluidnet.gfn import example_family, network_family, scale, shift
from fluidnet.lyapunov import (
    MAX_DEPTH,
    SearchBudget,
    approximate_V,
    check_decrease,
    check_sandwich,
    comparison_functions,
    linear_certificate_search,
    piecewise_linear_check,
    quadratic_check,
    v_functional,
)
from fluidnet.model import (
    admissible_constraints,
    boundary_configurations,
    enumerate_polytope_vertices,
)


def unit_drain():
    return example_family("lsc_counterexample").paths_from([1.0, 0.0])[0]


class TestTotalFluid:
    """The total fluid of a path is its tail integral from time 0."""

    def test_triangle(self):
        assert v_functional(unit_drain(), 0.0) == pytest.approx(0.5)

    def test_zero_path(self):
        zero = example_family("lsc_counterexample").paths_from([0.0, 0.0])[0]
        assert v_functional(zero, 0.0) == 0.0

    def test_diagonal_mass_is_two(self):
        diag = example_family("lsc_counterexample").paths_from([1.0, 1.0])[1]
        assert v_functional(diag, 0.0) == pytest.approx(2.0)

    def test_warns_when_truncated(self, overloaded_queue):
        traj = simulate(overloaded_queue, [1.0], MaxDrain(), 2.0, 0.1)
        with pytest.warns(TruncatedWarning):
            v_functional(traj, 0.0)

    @settings(max_examples=30, deadline=None)
    @given(r=st.floats(0.2, 5.0))
    def test_scaling_identity(self, r):
        traj = example_family("lsc_counterexample").paths_from([1.0, 0.6])[0]
        assert v_functional(scale(traj, r), 0.0) == pytest.approx(
            v_functional(traj, 0.0) / r**2, rel=1e-8
        )


class TestTailFunctional:
    def test_at_zero(self):
        assert v_functional(unit_drain(), 0.0) == pytest.approx(0.5)

    def test_at_half(self):
        assert v_functional(unit_drain(), 0.5) == pytest.approx(0.125)

    def test_past_drain(self):
        assert v_functional(unit_drain(), 1.5) == 0.0

    def test_matches_shift(self):
        traj = example_family("lsc_counterexample").paths_from([1.0, 0.7])[0]
        for t in [0.0, 0.3, 0.65, 0.9]:
            assert v_functional(traj, t) == pytest.approx(
                v_functional(shift(traj, t), 0.0), abs=1e-10
            )

    def test_nonincreasing(self):
        traj = example_family("lsc_counterexample").paths_from([1.2, 0.8])[0]
        vals = [v_functional(traj, t) for t in np.linspace(0, 1.5, 16)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestApproximateV:
    def test_lsc_fixture_diagonal(self):
        fam = example_family("lsc_counterexample")
        est = approximate_V(fam, [1.0, 1.0])
        assert est.status == "exact"
        assert est.value == pytest.approx(2.0, abs=1e-12)

    def test_lsc_fixture_off_diagonal(self):
        fam = example_family("lsc_counterexample")
        est = approximate_V(fam, [1.5, 0.5])
        assert est.value == pytest.approx(0.5 * (1.5**2 + 0.5**2), abs=1e-12)

    def test_unique_network_path(self, draining_queue):
        fam = network_family(draining_queue, horizon=5.0, h=0.05)
        est = approximate_V(fam, [1.0], SearchBudget())
        assert est.status == "lower_bound"
        assert est.value == pytest.approx(0.5, abs=1e-9)
        assert est.trajectory.drained

    def test_monotone_in_budget(self):
        spec = fixtures.two_station_work_conserving()
        fam = network_family(spec, horizon=30.0, h=0.05)
        x = [0.5, 0.3, 0.2]
        values = [
            approximate_V(fam, x, SearchBudget(depth=d, multistarts=m)).value
            for d, m in [(0, 0), (1, 0), (2, 0), (2, 3)]
        ]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_budget_checks(self):
        assert SearchBudget(depth=MAX_DEPTH).depth == MAX_DEPTH
        for bad in ({"depth": -1}, {"depth": MAX_DEPTH + 1}, {"multistarts": -1}):
            with pytest.raises(BadCount):
                SearchBudget(**bad)
        with pytest.raises(BadSeed):
            SearchBudget(seed=-1, multistarts=2)

    def test_diverged_status(self, overloaded_queue):
        fam = network_family(overloaded_queue, horizon=5.0, h=0.1)
        est = approximate_V(fam, [1.0], SearchBudget())
        assert est.status == "diverged"

    def test_decrease_along_argmax(self, tandem):
        fam = network_family(tandem, horizon=20.0, h=0.02)
        budget = SearchBudget()
        est = approximate_V(fam, [1.0, 0.5], budget)

        def v_fn(state):
            return approximate_V(fam, state, budget).value

        report = check_decrease(v_fn, est.trajectory, lambda r: r, max_stamps=9)
        assert report["ok"], report


class TestComparisonFunctions:
    def test_values(self):
        triple = comparison_functions(1.0, 1.0)
        assert triple.w1(2.0) == pytest.approx(2.0)
        assert triple.w2(1.0) == pytest.approx(2.0)
        assert triple.w3(5.0) == pytest.approx(5.0)

    def test_vanish_at_zero(self):
        triple = comparison_functions(3.0, 0.7)
        assert triple.w1(0) == triple.w2(0) == triple.w3(0) == 0.0

    def test_substitution(self):
        assert comparison_functions(2.0, 3.0).w2(1.0) == pytest.approx(21.0)

    def test_class_k(self):
        assert comparison_functions(2.5, 1.3).is_class_k()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_a_factor_that_is_not_finite_and_positive(self, bad):
        with pytest.raises(BadFactor, match="lipschitz constant must be finite and positive"):
            comparison_functions(bad, 1.0)
        with pytest.raises(BadFactor, match="draining time must be finite and positive"):
            comparison_functions(1.0, bad)


class TestSandwich:
    def test_single_queue_tight_lower_bound(self):
        # unique path from x=1 gives mass 0.5 = w1(1) with L=1
        triple = comparison_functions(1.0, 1.0)
        report = check_sandwich([(np.asarray([1.0]), 0.5)], triple)
        assert report["ok"]
        assert report["rows"][0]["lower"] == pytest.approx(0.5)

    def test_zero_state(self):
        triple = comparison_functions(1.0, 1.0)
        assert check_sandwich([(np.asarray([0.0]), 0.0)], triple)["ok"]

    def test_wrong_tau_detected(self):
        triple = comparison_functions(1.0, 0.1)
        report = check_sandwich([(np.asarray([1.0]), 0.5)], triple)
        assert not report["ok"]
        assert len(report["violations"]) == 1


class TestDecrease:
    def test_equality_along_tail_functional(self):
        traj = unit_drain()

        def v_fn(state):
            return float(state[0]) ** 2 / 2.0  # tail mass of the unique drain

        report = check_decrease(v_fn, traj, lambda r: r)
        assert report["ok"]
        assert abs(report["worst_margin"]) < 1e-9

    def test_norm_with_half_rate(self, draining_queue):
        traj = simulate(draining_queue, [1.0], MaxDrain(), 3.0, 0.05)
        report = check_decrease(lambda x: float(np.abs(x).sum()), traj, lambda r: 0.5 * r)
        assert report["ok"]

    def test_growing_path_falsified(self, overloaded_queue):
        traj = simulate(overloaded_queue, [1.0], MaxDrain(), 3.0, 0.1)
        report = check_decrease(lambda x: float(np.abs(x).sum()), traj, lambda r: r)
        assert not report["ok"]
        assert report["worst_margin"] > 1.0


class TestLinearCertificate:
    def test_pure_drain_verified(self):
        cert = linear_certificate_search(fixtures.single_queue(0.0, 1.0))
        assert cert.status == "Verified"
        assert cert.epsilon == pytest.approx(1.0, abs=1e-9)
        assert cert.data["h"] == pytest.approx([1.0], abs=1e-9)

    def test_overloaded_unknown(self, overloaded_queue):
        cert = linear_certificate_search(overloaded_queue)
        assert cert.status == "Unknown"
        assert cert.witness is None

    def test_tandem_verified(self, tandem):
        cert = linear_certificate_search(tandem)
        assert cert.status == "Verified"
        assert cert.epsilon > 0
        h = np.asarray(cert.data["h"])
        assert np.all(h > 0)
        # independent check: every enumerated drift row of every proper
        # boundary configuration is uniformly negative
        for empty in boundary_configurations(tandem):
            verts = enumerate_polytope_vertices(tandem.K, *admissible_constraints(tandem, empty))
            drifts = verts @ (-tandem.outflow.T) + tandem.alpha
            assert (drifts @ h).max() <= -cert.epsilon + 1e-9

    def test_certificate_bounds_drain_time(self, tandem):
        cert = linear_certificate_search(tandem)
        h = np.asarray(cert.data["h"])
        rng = np.random.default_rng(11)
        for i in range(10):
            x0 = rng.dirichlet(np.ones(tandem.K))
            traj = simulate(tandem, x0, RandomVertex(int(i)), 30.0, 0.01)
            bound = float(h @ x0) / cert.epsilon + 2 * 0.01
            assert traj.drained
            assert traj.drained_at <= bound


class TestSampledCertificates:
    def test_single_piece_reduces_to_linear(self):
        cert = piecewise_linear_check(
            fixtures.single_queue(0.0, 1.0), [[1.0]], epsilon=1.0, samples=300
        )
        assert cert.status == "Verified"

    def test_quadratic_identity_on_stable(self):
        cert = quadratic_check(
            fixtures.single_queue(0.0, 1.0), [[1.0]], epsilon=1.0, samples=300
        )
        assert cert.status == "Verified"
        assert cert.epsilon == pytest.approx(2.0, abs=1e-9)

    def test_quadratic_identity_on_overloaded(self, overloaded_queue):
        cert = quadratic_check(overloaded_queue, [[1.0]], samples=300)
        assert cert.status == "Falsified"
        assert cert.witness["derivative"] == pytest.approx(2.0, abs=1e-9)

    def test_piecewise_on_priority(self, two_class_priority):
        cert = piecewise_linear_check(
            two_class_priority, [[1.0, 0.2], [0.2, 1.0]], epsilon=1e-6, samples=400
        )
        assert cert.status in ("Verified", "Unknown")
        if cert.status == "Verified":
            assert cert.epsilon > 0

    def test_bad_candidate_rejected(self, two_class_priority):
        with pytest.raises(ValueError):
            piecewise_linear_check(two_class_priority, [[1.0, 0.0], [0.5, 0.0]])
