import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluidnet import fixtures
from fluidnet.dynamics import MaxDrain, RandomVertex, simulate
from fluidnet.errors import (
    BadCount,
    BadFactor,
    BadSeed,
    DimensionTooLarge,
    ShiftBeyondHorizon,
    TruncatedWarning,
)
from fluidnet.gfn import example_family, network_family, scale, shift
from fluidnet.lyapunov import (
    MAX_DEPTH,
    SearchBudget,
    _simplex_minimum,
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
    CONFIGURATION_CAP,
    admissible_constraints,
    admissible_polytope,
    boundary_configurations,
    empty_rows,
    enumerate_polytope_vertices,
    validate,
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

    def test_nan_time_raises(self):
        with pytest.raises(ShiftBeyondHorizon):
            v_functional(unit_drain(), float("nan"))

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


def reference_sampled_check(spec, kind, candidate, *, epsilon=1e-6, samples=20_000, seed=42):
    """The sampled drift driver the exact checks replaced.

    Draws ``samples`` Dirichlet states on each boundary configuration's face
    (the classes of its rows at 0), tests the candidate's value and its worst
    derivative over the configuration's vertex velocities, and applies the
    same status rule.  Sampled states are a subset of the exact checks'
    states, so its margin can only be larger.
    """
    if kind == "piecewise_linear":
        h_mat = np.asarray(candidate, dtype=float).reshape(-1, spec.K)

        def positivity(states):
            return (states @ h_mat.T).max(axis=1)

        def derivative(states, velocities):
            piece_vals = states @ h_mat.T
            top = piece_vals.max(axis=1, keepdims=True)
            active = piece_vals >= top - 1e-12 * (1.0 + np.abs(top))
            per_piece = (h_mat @ velocities.T).max(axis=1)
            return np.where(active, per_piece[None, :], -np.inf).max(axis=1)
    else:
        a = np.asarray(candidate, dtype=float)
        a = 0.5 * (a + a.T)

        def positivity(states):
            return np.einsum("ik,kl,il->i", states, a, states)

        def derivative(states, velocities):
            return (2.0 * states @ a @ velocities.T).max(axis=1)

    rng = np.random.default_rng(seed)
    margin, rises = np.inf, False
    for empty in boundary_configurations(spec):
        velocities = admissible_polytope(spec, empty) @ (-spec.outflow.T) + spec.alpha
        zero = {k for row in empty for k in spec.members[row]}
        support = [k for k in range(spec.K) if k not in zero]
        states = np.zeros((samples, spec.K))
        states[:, support] = rng.dirichlet(np.ones(len(support)), size=samples)
        if np.any(positivity(states) <= 1e-12):
            return "Falsified", 0.0
        derivs = derivative(states, velocities)
        margin = min(margin, float(np.min(-derivs)))
        if margin < epsilon:
            rises = bool(np.max(derivs) > 1e-12)
            break
    if margin >= epsilon:
        return "Verified", margin
    return ("Falsified", 0.0) if rises else ("Unknown", max(margin, 0.0))


CERTIFICATE_FIXTURES = {**fixtures.stable_fixture_set(), "lu_kumar": fixtures.lu_kumar()}


def random_candidates(n_per_fixture, seed=3):
    """(spec, kind, candidate) triples near each fixture's linear certificate:
    1-3 pieces scaled by U(0.5, 1.5), and symmetric matrices around diag(h)."""
    rng = np.random.default_rng(seed)
    for spec in CERTIFICATE_FIXTURES.values():
        h = linear_certificate_search(spec).data["h"]
        h = np.ones(spec.K) if h is None else np.asarray(h)
        for _ in range(n_per_fixture):
            pieces = h * rng.uniform(0.5, 1.5, (int(rng.integers(1, 4)), spec.K))
            yield spec, "piecewise_linear", pieces
            off = rng.uniform(-1.0, 1.0, (spec.K, spec.K)) * rng.uniform(0.0, 0.6)
            yield spec, "quadratic", np.diag(h * rng.uniform(0.5, 1.5, spec.K)) + off + off.T


def exact_check(spec, kind, candidate):
    check = piecewise_linear_check if kind == "piecewise_linear" else quadratic_check
    return check(spec, candidate)


def assert_genuine_witness(spec, cert):
    """A Falsified witness is a real state, an admissible control at that
    state's own configuration, and a derivative that rises."""
    w = cert.witness
    x = np.asarray(w["state"])
    assert np.all(x >= 0.0) and abs(x.sum() - 1.0) <= 1e-9
    if "value" in w:
        a = np.asarray(cert.data["A"])
        assert x @ a @ x == pytest.approx(w["value"], abs=1e-12) and w["value"] <= 1e-12
        return
    u = np.asarray(w["control"])
    a_eq, b_eq, a_ub, b_ub = admissible_constraints(
        spec, empty_rows(spec, np.flatnonzero(x == 0.0))
    )
    assert np.all(np.abs(a_eq @ u - b_eq) <= 1e-12) and np.all(a_ub @ u <= b_ub + 1e-12)
    v = u @ (-spec.outflow.T) + spec.alpha
    if cert.kind == "quadratic":
        assert 2.0 * x @ np.asarray(cert.data["A"]) @ v > 0.0
        return
    h_mat = np.asarray(cert.data["h_list"])
    values = h_mat @ x
    on_top = values >= values.max() - 1e-9
    assert np.any(on_top & (h_mat @ v > 0.0))


class TestExactCertificates:
    def test_single_piece_reduces_to_linear(self):
        cert = piecewise_linear_check(fixtures.single_queue(0.0, 1.0), [[1.0]], epsilon=1.0)
        assert cert.status == "Verified"

    def test_quadratic_identity_on_stable(self):
        cert = quadratic_check(fixtures.single_queue(0.0, 1.0), [[1.0]], epsilon=1.0)
        assert cert.status == "Verified"
        assert cert.epsilon == pytest.approx(2.0, abs=1e-9)

    def test_quadratic_identity_on_overloaded(self, overloaded_queue):
        cert = quadratic_check(overloaded_queue, [[1.0]])
        assert cert.status == "Falsified"
        assert cert.witness["derivative"] == pytest.approx(2.0, abs=1e-9)

    def test_piecewise_on_priority(self, two_class_priority):
        cert = piecewise_linear_check(two_class_priority, [[1.0, 0.2], [0.2, 1.0]], epsilon=1e-6)
        assert cert.status in ("Verified", "Unknown")
        if cert.status == "Verified":
            assert cert.epsilon > 0

    def test_reentrant_line_sliver_falsified(self):
        """Piece 2 is on top only on a sliver x_0 <= 3.1e-4 x_2 of the face
        x_1 = 0, which 1,000 Dirichlet samples from seed 42 miss."""
        h = [[1.4413, 0.51, 0.3537], [0.8925, 0.8517, 0.1561], [0.4859, 0.5799, 0.354]]
        spec = fixtures.reentrant_line()
        cert = piecewise_linear_check(spec, h)
        assert cert.status == "Falsified"
        assert cert.witness["derivative"] > 0.19
        assert_genuine_witness(spec, cert)

    @pytest.mark.parametrize("name", sorted(fixtures.stable_fixture_set()))
    def test_one_piece_agrees_with_linear_search(self, name):
        spec = fixtures.stable_fixture_set()[name]
        linear = linear_certificate_search(spec)
        cert = piecewise_linear_check(spec, [linear.data["h"]])
        assert cert.status == "Verified"
        assert cert.epsilon == pytest.approx(linear.epsilon, rel=1e-9)

    def test_never_verified_where_sampling_falsifies(self):
        seen = set()
        for spec, kind, candidate in random_candidates(20):
            cert = exact_check(spec, kind, candidate)
            ref_status, ref_margin = reference_sampled_check(spec, kind, candidate)
            seen.add((kind, cert.status))
            assert not (cert.status == "Verified" and ref_status == "Falsified")
            assert cert.epsilon <= ref_margin + 1e-12
            if cert.status == "Falsified":
                assert_genuine_witness(spec, cert)
        assert {(kind, status) for kind in ("piecewise_linear", "quadratic")
                for status in ("Verified", "Falsified")} <= seen

    def test_simplex_minimum_below_every_sample(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            k = int(rng.integers(1, 6))
            a = rng.uniform(-1.0, 2.0, (k, k))
            a = 0.5 * (a + a.T)
            value, x = _simplex_minimum(a)
            assert np.all(x >= 0.0) and x.sum() == pytest.approx(1.0, abs=1e-12)
            assert x @ a @ x == pytest.approx(value, abs=1e-12)
            states = rng.dirichlet(np.ones(k), size=20_000)
            assert value <= np.einsum("ik,kl,il->i", states, a, states).min() + 1e-12
            assert value <= a.diagonal().min() + 1e-12

    def test_copositivity_cap_checked_before_any_solve(self, monkeypatch):
        k = CONFIGURATION_CAP + 1
        spec = validate(np.zeros(k), np.ones(k), np.zeros((k, k)), np.eye(k), "work_conserving")

        def refuse(*args, **kwargs):
            raise AssertionError("a support was solved")

        monkeypatch.setattr(np.linalg, "pinv", refuse)
        with pytest.raises(DimensionTooLarge, match="131071 supports"):
            quadratic_check(spec, np.eye(k))

    def test_bad_candidate_rejected(self, two_class_priority):
        with pytest.raises(ValueError):
            piecewise_linear_check(two_class_priority, [[1.0, 0.0], [0.5, 0.0]])
