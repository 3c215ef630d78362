import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from fluidnet import fixtures
from fluidnet.errors import (
    BadPermutation,
    ConstituencyNotPartition,
    DimensionMismatch,
    NegativeRate,
    RoutingNotSubstochastic,
    SpectralRadiusTooLarge,
    SpecError,
    UnknownDiscipline,
)
from fluidnet.model import (
    PRIORITY,
    WORK_CONSERVING,
    admissible_constraints,
    admissible_polytope,
    spectral_radius,
    validate,
)


def vertex_set(verts, decimals=9):
    return {tuple(np.round(v, decimals)) for v in verts}


def lp_vertex_oracle(a_eq, b_eq, a_ub, b_ub, dim, rng, n_objectives=200):
    """Independent vertex finder: optimal basic solutions of random LPs.

    Every LP optimum over the polytope is attained at a vertex, so optimizing
    many random objectives recovers the vertex set of a small polytope.
    """
    found = set()
    for _ in range(n_objectives):
        c = rng.normal(size=dim)
        res = linprog(
            c,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq if np.size(a_eq) else None,
            b_eq=b_eq if np.size(b_eq) else None,
            bounds=[(None, None)] * dim,
            method="highs",
        )
        if res.success:
            found.add(tuple(np.round(res.x, 9)))
    return found


class TestValidate:
    def test_single_class_zero_routing_valid(self):
        spec = validate([0.0], [1.0], [[0.0]], [[1]], WORK_CONSERVING)
        assert spec.K == 1 and spec.J == 1

    def test_self_loop_rate_one_rejected(self):
        with pytest.raises(SpectralRadiusTooLarge):
            validate([0.0], [1.0], [[1.0]], [[1]], WORK_CONSERVING)

    def test_cyclic_routing_radius(self):
        # characteristic polynomial lambda^2 = 0.5, radius sqrt(0.5)
        p = np.array([[0.0, 1.0], [0.5, 0.0]])
        got = spectral_radius(p)
        assert got == pytest.approx(np.sqrt(0.5), abs=1e-10)
        spec = validate([0, 0], [1, 1], p, np.eye(2), WORK_CONSERVING)
        assert spec.K == 2

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_spectral_radius_matches_eigvals(self, n, rng):
        for _ in range(20):
            p = rng.uniform(0.0, 1.0, (n, n))
            p /= max(1.0, p.sum(axis=1).max()) * rng.uniform(1.0, 3.0)
            want = float(np.abs(np.linalg.eigvals(p)).max())
            assert spectral_radius(p) == pytest.approx(want, abs=1e-9)

    def test_nilpotent_chain_radius_zero(self):
        p = np.zeros((3, 3))
        p[0, 1] = p[1, 2] = 1.0
        assert spectral_radius(p) == 0.0

    def test_negative_rate(self):
        with pytest.raises(NegativeRate):
            validate([-0.1], [1.0], [[0.0]], [[1]], WORK_CONSERVING)
        with pytest.raises(NegativeRate):
            validate([0.1], [0.0], [[0.0]], [[1]], WORK_CONSERVING)

    @pytest.mark.parametrize(
        "alpha, mu",
        [([np.nan], [1.0]), ([np.inf], [1.0]), ([0.1], [np.inf]), ([0.1], [np.nan])],
    )
    def test_non_finite_rate(self, alpha, mu):
        with pytest.raises(NegativeRate):
            validate(alpha, mu, [[0.0]], [[1]], WORK_CONSERVING)

    def test_non_finite_routing_rejected(self):
        with pytest.raises(RoutingNotSubstochastic):
            validate([0, 0], [1, 1], [[0.0, np.nan], [0, 0]], np.eye(2), WORK_CONSERVING)

    def test_constituency_not_partition(self):
        with pytest.raises(ConstituencyNotPartition):
            validate([0, 0], [1, 1], np.zeros((2, 2)), [[1, 1], [0, 1]], WORK_CONSERVING)
        with pytest.raises(ConstituencyNotPartition):
            validate([0, 0], [1, 1], np.zeros((2, 2)), [[1, 0], [0, 0]], WORK_CONSERVING)

    def test_routing_not_substochastic(self):
        with pytest.raises(RoutingNotSubstochastic):
            validate([0], [1], [[-0.2]], [[1]], WORK_CONSERVING)
        with pytest.raises(RoutingNotSubstochastic):
            validate([0, 0], [1, 1], [[0.6, 0.6], [0, 0]], np.eye(2), WORK_CONSERVING)

    def test_bad_permutation(self):
        with pytest.raises(BadPermutation):
            validate([0, 0], [1, 1], np.zeros((2, 2)), [[1, 1]], PRIORITY, priority=(0, 0))
        with pytest.raises(BadPermutation):
            validate([0, 0], [1, 1], np.zeros((2, 2)), [[1, 1]], PRIORITY)
        with pytest.raises(BadPermutation):  # ranks that truncate to the permutation (0, 1)
            validate([0, 0], [1, 1], np.zeros((2, 2)), [[1, 1]], PRIORITY, priority=[0.9, 1.7])

    def test_unknown_discipline(self):
        with pytest.raises(UnknownDiscipline, match="fifo") as info:
            validate([0, 0], [1, 1], np.zeros((2, 2)), [[1, 1]], "fifo")
        assert isinstance(info.value, SpecError) and isinstance(info.value, ValueError)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate([0, 0], [1], np.zeros((2, 2)), [[1, 1]], WORK_CONSERVING)

    def test_spec_is_immutable(self, tandem):
        with pytest.raises(ValueError):
            tandem.alpha[0] = 9.0


class TestWorkConservingPolytope:
    def setup_method(self):
        self.two_on_one = validate(
            [0, 0], [1, 1], np.zeros((2, 2)), [[1, 1]], WORK_CONSERVING
        )

    def test_busy_station_is_simplex_face(self):
        poly = admissible_polytope(self.two_on_one, [])
        assert vertex_set(poly) == {(0.0, 1.0), (1.0, 0.0)}

    def test_empty_station_is_full_simplex(self):
        poly = admissible_polytope(self.two_on_one, [0])
        assert vertex_set(poly) == {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)}

    def test_two_stations_one_empty(self):
        spec = validate([0, 0], [1, 1], np.zeros((2, 2)), np.eye(2), WORK_CONSERVING)
        poly = admissible_polytope(spec, [1])
        assert vertex_set(poly) == {(1.0, 0.0), (1.0, 1.0)}

    def test_matches_lp_oracle(self, rng):
        spec = fixtures.two_station_work_conserving()
        for empty in [(), (0,), (1,), (0, 1)]:
            a_eq, b_eq, a_ub, b_ub = admissible_constraints(spec, empty)
            got = vertex_set(admissible_polytope(spec, empty))
            want = lp_vertex_oracle(a_eq, b_eq, a_ub, b_ub, spec.K, rng)
            assert got == want

    def test_full_allocation_when_all_busy(self):
        spec = fixtures.two_station_work_conserving()
        poly = admissible_polytope(spec, [])
        residual = np.abs(spec.constituency @ poly.T - 1.0)
        assert residual.max() < 1e-12

    def test_vertex_slack(self):
        spec = fixtures.reentrant_line()
        for empty in [(), (0,), (1,), (0, 1)]:
            poly = admissible_polytope(spec, empty)
            a_eq, b_eq, a_ub, b_ub = admissible_constraints(spec, empty)
            slack = b_ub[None, :] - poly @ a_ub.T
            assert slack.min() >= -1e-12


class TestPriorityPolytope:
    def setup_method(self):
        self.spec = validate(
            [0, 0], [1, 1], np.zeros((2, 2)), [[1, 1]], PRIORITY, priority=(0, 1)
        )

    def test_both_nonempty_preempts(self):
        poly = admissible_polytope(self.spec, [])
        assert vertex_set(poly) == {(1.0, 0.0)}

    def test_high_class_empty(self):
        poly = admissible_polytope(self.spec, [0])
        assert vertex_set(poly) == {(0.0, 1.0), (1.0, 0.0)}

    def test_single_class_empty_interval(self):
        spec = validate([0], [1], [[0.0]], [[1]], PRIORITY, priority=(0,))
        poly = admissible_polytope(spec, [0])
        assert vertex_set(poly) == {(0.0,), (1.0,)}

    def test_matches_lp_oracle(self, rng, lu_kumar):
        for empty in [(), (0,), (1, 2), (0, 1, 2, 3)]:
            a_eq, b_eq, a_ub, b_ub = admissible_constraints(lu_kumar, empty)
            got = vertex_set(admissible_polytope(lu_kumar, empty))
            want = lp_vertex_oracle(a_eq, b_eq, a_ub, b_ub, lu_kumar.K, rng)
            assert got == want

    def test_vertex_slack(self, lu_kumar):
        for empty in [(), (0, 3), (1, 2, 3)]:
            poly = admissible_polytope(lu_kumar, empty)
            a_eq, b_eq, a_ub, b_ub = admissible_constraints(lu_kumar, empty)
            slack = b_ub[None, :] - poly @ a_ub.T
            assert slack.min() >= -1e-12


@settings(max_examples=25, deadline=None)
@given(perm=st.permutations(range(3)))
def test_relabeling_equivariance(perm):
    """Permuting class labels permutes polytope vertices the same way."""
    spec = fixtures.two_station_work_conserving()
    perm = list(perm)
    inv = np.argsort(perm)
    permuted = validate(
        spec.alpha[perm],
        spec.mu[perm],
        spec.routing[np.ix_(perm, perm)],
        spec.constituency[:, perm],
        spec.discipline,
    )
    for empty in [(), (0,), (1,)]:
        base = admissible_polytope(spec, empty)
        relab = admissible_polytope(permuted, empty)
        want = {tuple(np.round(v[inv], 9)) for v in relab}
        assert vertex_set(base) == want
