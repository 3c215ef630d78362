import itertools

import numpy as np
import pytest

from fluidnet import fixtures, gfn
from fluidnet.dynamics import Trajectory
from fluidnet.errors import (
    BadFactor,
    BadHorizon,
    BadPushBound,
    BadStep,
    DimensionMismatch,
    DimensionTooLarge,
    FluidNetError,
    NegativeState,
    NonFiniteInput,
    NotCompletelyS,
    PushBoundExceeded,
)
from fluidnet.skorokhod import (
    LspInstance,
    complementarity_residual,
    is_completely_s,
    is_s_matrix,
    lipschitz_bound,
    solution_csv,
    solution_residual,
    solve_lsp,
)


def s_matrix_oracle(r):
    """Combinatorial max-min over the simplex, independent of any LP.

    g(x) = min_j (Rx)_j is concave piecewise linear on the simplex; its
    maximum sits at a point where some rows are equal and some coordinates
    vanish, so all candidate systems are enumerated directly.
    """
    r = np.asarray(r, dtype=float)
    n = r.shape[0]
    best = -np.inf
    for support in range(1, n + 1):
        for cols in itertools.combinations(range(n), support):
            for tied in range(1, n + 1):
                for rows in itertools.combinations(range(n), tied):
                    # unknowns: x on cols (others zero) and the tied value g
                    a = np.zeros((tied + 1, support + 1))
                    b = np.zeros(tied + 1)
                    for i, row in enumerate(rows):
                        a[i, :support] = r[row, cols]
                        a[i, -1] = -1.0
                    a[tied, :support] = 1.0
                    b[tied] = 1.0
                    if np.linalg.matrix_rank(a) < support + 1:
                        continue
                    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
                    if np.abs(a @ sol - b).max() > 1e-9:
                        continue
                    x = np.zeros(n)
                    x[list(cols)] = sol[:support]
                    if x.min() < -1e-9:
                        continue
                    value = float((r @ x).min())
                    best = max(best, value)
    return best > 1e-10


class TestSMatrix:
    def test_identity(self):
        assert is_s_matrix(np.eye(3))

    def test_negative_scalar(self):
        assert not is_s_matrix([[-1.0]])

    def test_diagonally_dominant(self):
        # x = (1, 1) maps to (1, 1) > 0
        assert is_s_matrix([[2.0, -1.0], [-1.0, 2.0]])
        assert s_matrix_oracle([[2.0, -1.0], [-1.0, 2.0]])

    def test_matches_oracle_on_random(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 4))
            r = rng.uniform(-1, 1, (n, n))
            assert is_s_matrix(r) == s_matrix_oracle(r), r


class TestCompletelyS:
    def test_identity(self):
        assert is_completely_s(np.eye(4))

    def test_negative_diagonal_entry(self):
        assert not is_completely_s([[1.0, 0.0], [0.0, -1.0]])

    def test_diagonally_dominant_random(self, rng):
        for _ in range(10):
            r = rng.uniform(-0.2, 0.2, (3, 3))
            np.fill_diagonal(r, 1.0)
            assert is_completely_s(r)

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLarge):
            is_completely_s(np.eye(25))


def lp_only_completely_s(r):
    """The decision with one LP per principal submatrix, as before the witness."""
    r = np.asarray(r, dtype=float)
    return all(
        is_s_matrix(r[np.ix_(idx, idx)])
        for size in range(1, r.shape[0] + 1)
        for idx in map(list, itertools.combinations(range(r.shape[0]), size))
    )


def random_reflections(rng):
    """Uniform matrices (mostly not completely-S), Minkowski-like ones, and
    ones whose row sums straddle zero so the LP must decide."""
    for _ in range(40):
        n = int(rng.integers(1, 5))
        yield rng.uniform(-1.0, 1.0, (n, n))
        off = -rng.uniform(0.0, 1.2 / max(n - 1, 1), (n, n))
        np.fill_diagonal(off, 1.0)
        yield off
        mixed = rng.uniform(-2.0, 2.0, (n, n))
        np.fill_diagonal(mixed, rng.uniform(0.5, 1.5, n))
        yield mixed


class TestCompletelySWitness:
    def test_matches_lp_only_decision(self, rng):
        answers = [is_completely_s(r) == lp_only_completely_s(r) for r in random_reflections(rng)]
        assert all(answers)

    def test_both_answers_and_both_routes_occur(self, rng, monkeypatch):
        """The random draws hold completely-S matrices and others, and the LP
        runs for some submatrices the witness leaves open."""
        from fluidnet import skorokhod

        lp_calls = []
        real = skorokhod.is_s_matrix
        monkeypatch.setattr(skorokhod, "is_s_matrix", lambda m: lp_calls.append(m) or real(m))
        decided = [is_completely_s(r) for r in random_reflections(rng)]
        assert 0 < sum(decided) < len(decided)
        assert lp_calls
        # a positive diagonal with nonnegative off-diagonals needs no LP at all
        lp_calls.clear()
        assert is_completely_s(np.eye(4) + 0.1)
        assert not lp_calls

    def test_lp_decides_what_the_witness_leaves_open(self):
        # row sums (-1, 1): the witness fails, but x = (3, 1) / 4 gives R x > 0
        r = [[1.0, -2.0], [0.0, 1.0]]
        assert is_completely_s(r) and lp_only_completely_s(r)
        r = [[1.0, -2.0], [-1.0, 1.0]]  # R x > 0 needs x1 > 2 x2 and x2 > x1
        assert not is_completely_s(r) and not lp_only_completely_s(r)

    @pytest.mark.parametrize("name", ["lsp_one_dimensional", "lsp_decoupled", "lsp_chattering"])
    def test_matches_lp_only_decision_on_fixtures(self, name):
        r = getattr(fixtures, name)().reflection
        assert is_completely_s(r) == lp_only_completely_s(r)


class TestLspInstance:
    @pytest.mark.parametrize("theta,r,z0", [
        ([np.nan], [[1.0]], [1.0]),
        ([-1.0], [[np.inf]], [1.0]),
        ([-1.0], [[1.0]], [np.nan]),
        ([-1.0], [[1.0]], [np.inf]),
    ])
    def test_non_finite_input_rejected(self, theta, r, z0):
        with pytest.raises(NonFiniteInput, match="finite"):
            LspInstance(theta, r, z0)

    def test_negative_state_rejected(self):
        with pytest.raises(NegativeState):
            LspInstance([-1.0], [[1.0]], [-0.5])

    def test_empty_instance_rejected(self):
        with pytest.raises(DimensionMismatch):
            LspInstance([], np.zeros((0, 0)), [])

    @pytest.mark.parametrize("bound", [0.0, -1.0, np.nan])
    def test_nonpositive_push_bound_rejected(self, bound):
        with pytest.raises(BadPushBound):
            LspInstance([-1.0], [[1.0]], [1.0], push_bound=bound)

    def test_caller_arrays_stay_writable_and_unshared(self):
        theta, r, z0 = np.array([-1.0, -0.5]), np.eye(2), np.array([1.0, 2.0])
        inst = LspInstance(theta, r, z0)
        assert theta.flags.writeable and r.flags.writeable and z0.flags.writeable
        assert not (inst.theta.flags.writeable or inst.reflection.flags.writeable
                    or inst.z0.flags.writeable)
        theta[0], r[0, 1], z0[1] = 7.0, 3.0, 9.0
        assert inst.theta.tolist() == [-1.0, -0.5]
        assert inst.reflection.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert inst.z0.tolist() == [1.0, 2.0]

    def test_errors_are_also_value_errors(self):
        for error in (NonFiniteInput, NegativeState, BadPushBound):
            assert issubclass(error, FluidNetError) and issubclass(error, ValueError)


class TestSolveLsp:
    def test_reflected_drain_exact(self):
        inst = fixtures.lsp_one_dimensional()
        sol = solve_lsp(inst, 3.0, 0.1)
        want_z = np.maximum(1 - sol.grid, 0.0)
        want_y = np.maximum(sol.grid - 1, 0.0)
        assert np.abs(sol.states[:, 0] - want_z).max() < 1e-12
        assert np.abs(sol.pushing[:, 0] - want_y).max() < 1e-12

    def test_positive_drift_never_pushes(self):
        sol = solve_lsp(LspInstance([1.0], [[1.0]], [1.0]), 3.0, 0.1)
        assert np.abs(sol.pushing).max() == 0.0
        assert sol.states[-1, 0] == pytest.approx(4.0)

    def test_decoupled_two_dimensional(self):
        inst = fixtures.lsp_decoupled()
        sol = solve_lsp(inst, 2.0, 0.05)
        want = np.column_stack(
            [np.maximum(1 - sol.grid, 0.0), np.maximum(1 - 2 * sol.grid, 0.0)]
        )
        want_y = np.column_stack(
            [np.maximum(sol.grid - 1, 0.0), 2 * np.maximum(sol.grid - 0.5, 0.0)]
        )
        assert np.abs(sol.states - want).max() < 1e-12
        assert np.abs(sol.pushing - want_y).max() < 1e-12

    def test_invariants(self):
        inst = fixtures.lsp_chattering()
        sol = solve_lsp(inst, 5.0, 0.01)
        assert sol.states.min() >= 0.0
        assert np.diff(sol.pushing, axis=0).min() >= 0.0
        assert solution_residual(inst, sol) < 1e-7 * (1 + 1.5)

    def test_complementarity_halves(self):
        inst = fixtures.lsp_chattering()
        res = {
            h: complementarity_residual(solve_lsp(inst, 5.0, h))
            for h in (0.02, 0.01)
        }
        ratio = res[0.01] / res[0.02]
        assert 0.3 <= ratio <= 0.7

    def test_refuses_non_completely_s(self):
        with pytest.raises(NotCompletelyS):
            solve_lsp(LspInstance([-1.0, 0.0], [[1, 0], [0, -1]], [1.0, 1.0]), 1.0, 0.1)

    @pytest.mark.parametrize("horizon", [-1.0, np.inf, np.nan])
    def test_bad_horizon_rejected(self, horizon):
        with pytest.raises(BadHorizon):
            solve_lsp(fixtures.lsp_one_dimensional(), horizon, 0.1)

    @pytest.mark.parametrize("h", [0.0, -0.01, np.nan])
    def test_bad_step_rejected(self, h):
        with pytest.raises(BadStep):
            solve_lsp(fixtures.lsp_one_dimensional(), 1.0, h)

    def test_push_bound_exceeded(self):
        inst = LspInstance([-5.0], [[1.0]], [0.5], push_bound=1.0)
        with pytest.raises(PushBoundExceeded):
            solve_lsp(inst, 2.0, 0.1)

    def test_scaling_property(self):
        inst = fixtures.lsp_chattering()
        sol = solve_lsp(inst, 4.0, 0.01)
        r = 2.0
        scaled = gfn.scale(sol, r)
        scaled_inst = LspInstance(inst.theta, inst.reflection, inst.z0 / r,
                                  push_bound=inst.push_bound)
        assert solution_residual(scaled_inst, scaled) < 1e-7 * (1 + 1.5 / r)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_scaling_rejects_a_factor_that_is_not_finite_and_positive(self, bad):
        sol = solve_lsp(fixtures.lsp_one_dimensional(), 1.0, 0.1)
        with pytest.raises(BadFactor, match="scale factor must be finite and positive"):
            gfn.scale(sol, bad)

    def test_concatenated_solutions_pass_invariants(self):
        inst = fixtures.lsp_chattering()
        first = solve_lsp(inst, 2.0, 0.01)
        mid = first.states[-1]
        second_inst = LspInstance(inst.theta, inst.reflection, mid,
                                  push_bound=inst.push_bound)
        second = solve_lsp(second_inst, 2.0, 0.01)
        spliced = gfn.concatenate(first, first.horizon, second)
        assert solution_residual(inst, spliced) < 1e-7 * (1 + 1.5)
        assert np.diff(spliced.allocation, axis=0).min() >= 0.0
        assert spliced.levels.min() >= 0.0


LSP_FIXTURES = ["lsp_one_dimensional", "lsp_decoupled", "lsp_chattering"]


def with_start(inst, z0):
    return LspInstance(inst.theta, inst.reflection, z0, push_bound=inst.push_bound)


def assert_solves(inst, path):
    """A path solves the instance: flow balance, Z >= 0 and Y nondecreasing."""
    assert solution_residual(inst, path) <= 1e-7 * (1.0 + float(np.abs(inst.z0).sum()))
    assert path.levels.min() >= 0.0
    assert np.diff(path.allocation, axis=0).min() >= 0.0


class TestSolutionsAreGfnPaths:
    """Linear Skorokhod problems define strict GFN models: a solution shifted,
    scaled or spliced with the solution from its state at the cut solves the
    matching instance again."""

    HORIZON, STEP, CUT = 2.0, 0.01, 0.737

    @pytest.fixture(params=LSP_FIXTURES)
    def solved(self, request):
        inst = getattr(fixtures, request.param)()
        return inst, solve_lsp(inst, self.HORIZON, self.STEP)

    def test_a_solution_is_a_trajectory(self, solved):
        _, sol = solved
        assert isinstance(sol, Trajectory) and sol.drained_at is None

    def test_shift(self, solved):
        inst, sol = solved
        shifted = gfn.shift(sol, self.CUT)
        assert shifted.grid[0] == 0.0 and shifted.horizon == pytest.approx(self.HORIZON - self.CUT)
        assert_solves(with_start(inst, shifted.levels[0]), shifted)

    @pytest.mark.parametrize("r", [0.5, 3.0])
    def test_scale(self, solved, r):
        inst, sol = solved
        assert_solves(with_start(inst, inst.z0 / r), gfn.scale(sol, r))

    def test_concatenate(self, solved):
        inst, sol = solved
        tail = solve_lsp(with_start(inst, sol.level_at(self.CUT)), self.HORIZON, self.STEP)
        spliced = gfn.concatenate(sol, self.CUT, tail)
        assert spliced.horizon == pytest.approx(self.CUT + self.HORIZON)
        assert_solves(inst, spliced)


class TestLipschitzBound:
    def test_formula_and_observation(self):
        inst = LspInstance([-1.0], [[1.0]], [1.0], push_bound=2.0)
        assert lipschitz_bound(inst) == pytest.approx(3.0)
        sol = solve_lsp(inst, 3.0, 0.1)
        assert gfn.lipschitz_estimate(sol) <= 3.0

    def test_zero_drift(self):
        inst = LspInstance([0.0], [[1.0]], [1.0])
        sol = solve_lsp(inst, 2.0, 0.1)
        assert gfn.lipschitz_estimate(sol) == 0.0

    def test_decoupled_within_bound(self):
        inst = fixtures.lsp_decoupled()
        sol = solve_lsp(inst, 2.0, 0.05)
        assert gfn.lipschitz_estimate(sol) <= lipschitz_bound(inst)


def test_solution_csv_format():
    sol = solve_lsp(fixtures.lsp_one_dimensional(), 2.0, 0.5)
    lines = solution_csv(sol).strip().split("\n")
    assert lines[0] == "t,Z1,Y1"
    assert len(lines) == sol.grid.shape[0] + 1
