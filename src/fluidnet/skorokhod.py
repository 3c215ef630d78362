"""Linear Skorokhod problems: reflected linear drift in the orthant.

Given a drift theta and a reflection matrix R, find a nonnegative state Z and
a nondecreasing pushing process Y with Z(t) = Z0 + theta t + R Y(t), where Y_j
grows only while Z_j sits on the boundary.  Solvability for every drift is
equivalent to R being completely-S (every principal submatrix admits x >= 0
with Rx > 0), which is decided here by a row-sum witness and, for the
submatrices it leaves open, small LPs.

The solver steps with the event-splitting stepper of the fluid dynamics,
``dynamics._event_split``, which also rejects a negative or non-finite
horizon (BadHorizon) and a step that is not finite and positive (BadStep).
Per step the boundary push is the minimal-l1 rate, supported on the active
set, that keeps active components nonnegative through the step; the active
components are exempt from the stepper's zero-crossing cut.  Minimality
fixes a deterministic selection among the generally non-unique solutions.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from ._util import csv_text, l1
from .dynamics import _EVENT_CAP, Trajectory, _event_split
from .errors import (
    BadPushBound,
    DimensionMismatch,
    DimensionTooLarge,
    InfeasibleActiveSet,
    NegativeState,
    NonFiniteInput,
    NotCompletelyS,
    PushBoundExceeded,
)
from .model import SUBSET_CHUNK, empty_threshold

_ACTIVE_CAP = 8  # combinatorial push enumeration is C(2a, a) in the active count
_COMPLETELY_S_CAP = 20  # principal submatrices tested: 2^J - 1


def is_s_matrix(r_matrix) -> bool:
    """LP test: does some x >= 0 with sum(x) <= 1 give R x >= t for some t > 1e-10?"""
    r = np.asarray(r_matrix, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise DimensionMismatch("S-matrix test needs a square matrix")
    n = r.shape[0]
    if n == 0:
        return True
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_ub = np.zeros((n + 1, n + 1))
    a_ub[:n, :n] = -r
    a_ub[:n, -1] = 1.0
    a_ub[n, :n] = 1.0
    b_ub = np.zeros(n + 1)
    b_ub[n] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(0, None)] * n + [(None, None)], method="highs")
    return bool(res.success and -res.fun > 1e-10)


#: a principal submatrix whose row sums reach this per index needs no LP
S_WITNESS = 1e-6


def is_completely_s(r_matrix) -> bool:
    """Every nonempty principal submatrix must be an S-matrix.

    Most submatrices are certified without an LP: if R_S 1 >= S_WITNESS |S|
    in every row of S, then x = 1 / |S| has sum(x) = 1 and R_S x >=
    S_WITNESS, so the LP of :func:`is_s_matrix` reaches at least S_WITNESS,
    four orders above its 1e-10 cut.  The LP runs only for the submatrices
    this witness leaves open, so the answer is the same as with an LP for
    every one.  Nothing is kept between calls.
    """
    r = np.asarray(r_matrix, dtype=float)
    n = r.shape[0]
    if n > _COMPLETELY_S_CAP:
        raise DimensionTooLarge(f"{2 ** n - 1} principal submatrices exceeds the cap (J={n})")
    for size in range(1, n + 1):
        subsets = itertools.combinations(range(n), size)
        while chunk := list(itertools.islice(subsets, SUBSET_CHUNK)):
            idx = np.array(chunk, dtype=np.intp)
            row_sums = r[idx[:, :, None], idx[:, None, :]].sum(axis=2)
            open_idx = idx[~(row_sums >= S_WITNESS * size).all(axis=1)]
            if not all(is_s_matrix(r[np.ix_(i, i)]) for i in open_idx):
                return False
    return True


def _default_push_bound(theta: np.ndarray, r: np.ndarray) -> float:
    """Generous finite bound on the per-component push rate.

    The effective pushes of any solution are bounded, but not constructively;
    this uses 10 (1 + |theta|) kappa_1(R), falling back to a large constant
    when R is singular.
    """
    kappa = float(np.linalg.cond(r, 1))
    if not np.isfinite(kappa) or kappa > 1e12:
        kappa = 1e6
    return 10.0 * (1.0 + l1(theta)) * kappa


@dataclass(frozen=True, eq=False)
class LspInstance:
    """A validated linear Skorokhod problem.

    Raises DimensionMismatch for a theta that is not a nonempty vector or
    for inconsistent shapes, NonFiniteInput for NaN
    or infinity in theta, R or Z0, NegativeState for a negative Z0 and
    BadPushBound for a push bound that is not positive.
    """

    theta: np.ndarray
    reflection: np.ndarray
    z0: np.ndarray
    push_bound: float | None = None

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        r = np.asarray(self.reflection, dtype=float)
        z0 = np.asarray(self.z0, dtype=float)
        j = theta.size
        if j == 0 or theta.shape != (j,) or r.shape != (j, j) or z0.shape != (j,):
            raise DimensionMismatch(
                f"empty or inconsistent shapes: theta {theta.shape}, R {r.shape}, Z0 {z0.shape}"
            )
        arrays = (("theta", theta), ("reflection", r), ("z0", z0))
        for name, val in arrays:
            if not np.all(np.isfinite(val)):
                raise NonFiniteInput(f"{name} must be finite, got {val.tolist()}")
        if np.any(z0 < 0):
            raise NegativeState(f"initial state must be nonnegative, got {z0.tolist()}")
        bound = self.push_bound
        if bound is None:
            bound = _default_push_bound(theta, r)
        if not bound > 0:
            raise BadPushBound(f"push bound must be positive, got {bound!r}")
        for name, val in arrays:
            val.setflags(write=False)
            object.__setattr__(self, name, val)
        object.__setattr__(self, "push_bound", float(bound))

    @property
    def J(self) -> int:
        return int(self.theta.shape[0])


class LspSolution(Trajectory):
    """A solution as a fluid path: ``levels`` is Z, ``allocation`` the pushing
    process Y and ``controls`` the push rates; it never drains.  The gfn path
    operations apply to it and return plain ``Trajectory``s."""

    # Old names of Z and Y, kept because the fixed benchmark harness (perfbench/) reads them.
    @property
    def states(self) -> np.ndarray:
        return self.levels

    @property
    def pushing(self) -> np.ndarray:
        return self.allocation


def _push_bases(r_a: np.ndarray) -> list:
    """Candidate bases of the push LP on one active set of size n.

    Candidates are u = 0 followed by every pair of s-subsets S (columns) and
    T (rows), s = 1..n, in (s, S, T) combination order, whose block R_a[T, S]
    has |det| >= 1e-12.  One ``(blocks, rows, cols)`` entry per size with a
    kept block stacks those blocks and their row and column indices; the
    determinant test does not depend on the right-hand side, so this is built
    once per active set.
    """
    n = r_a.shape[0]
    bases = []
    for size in range(1, n + 1):
        subsets = list(itertools.combinations(range(n), size))
        cols = np.array([s for s in subsets for _ in subsets], dtype=np.intp).reshape(-1, size)
        rows = np.array(subsets * len(subsets), dtype=np.intp).reshape(-1, size)
        blocks = r_a[rows[:, :, None], cols[:, None, :]]
        keep = ~(np.abs(np.linalg.det(blocks)) < 1e-12)
        if keep.any():
            bases.append((blocks[keep], rows[keep], cols[keep]))
    return bases


def _minimal_push(r: np.ndarray, active, c: np.ndarray, tol: float,
                  bases: dict) -> np.ndarray:
    """Minimal-l1 u >= 0 supported on the active set with (R u)_active >= c.

    Exact combinatorial enumeration of the LP vertices: a vertex has support
    S and an equal-sized set T of tight rows with R[T, S] nonsingular.  Ties
    in the l1 value break to the lexicographically smallest vector, and
    among equal keys to the first candidate in (size, S, T) order.

    ``bases`` maps each active set (a tuple) to R_a and its
    :func:`_push_bases`, built on the first call for that set.  Each call
    then makes one batched solve per block size and applies the sign and
    feasibility checks as masks; every kept block passed the determinant
    test, and ``solve`` raises only on an exactly zero pivot, where ``det``,
    from the same LU factorization, is 0.  Batched ``solve`` runs the same LAPACK
    routine per matrix as a one-by-one loop, and every check is the same
    per-candidate arithmetic, so the push has the same bits as a
    per-candidate loop.
    """
    a = tuple(active)
    if len(a) > _ACTIVE_CAP:
        raise DimensionTooLarge(f"{len(a)} simultaneously active components exceeds {_ACTIVE_CAP}")
    if a not in bases:
        r_a = r[np.ix_(a, a)]
        bases[a] = r_a, _push_bases(r_a)
    r_a, blocks_by_size = bases[a]
    u_a = np.zeros((1 + sum(rows.shape[0] for _, rows, _ in blocks_by_size), len(a)))
    start = 1  # row 0 is the zero push
    for blocks, rows, cols in blocks_by_size:
        x = np.linalg.solve(blocks, c[rows][..., None])[..., 0]
        stop = start + rows.shape[0]
        u_a[np.arange(start, stop)[:, None], cols] = x
        start = stop
    u_a = np.maximum(u_a[~(u_a < -tol).any(axis=1)], 0.0)
    # one gemv per candidate, as in a per-candidate loop
    pushed = np.matmul(r_a, u_a[..., None])[..., 0]
    u_a = u_a[~(pushed < c - tol).any(axis=1)]
    if u_a.shape[0] == 0:
        raise InfeasibleActiveSet("no feasible boundary push; the step is inconsistent")
    sums = [round(v, 12) for v in u_a.sum(axis=1).tolist()]
    rounded = np.round(u_a, 12).tolist()
    best = min(range(len(sums)), key=lambda i: (sums[i], rounded[i]))
    u = np.zeros(r.shape[0])
    u[list(a)] = u_a[best]
    return u


def solve_lsp(inst: LspInstance, horizon: float, h: float) -> LspSolution:
    """Complementarity time-stepping with event splitting at zero crossings.

    Refuses instances whose reflection matrix is not completely-S.  Raises
    PushBoundExceeded when the minimal admissible push tops the instance's
    bound (the configured bound was too low for this drift), BadHorizon for a
    negative or non-finite horizon, BadStep for a step that is not finite
    and positive, and StepTooLarge past 10^6 sub-steps.

    The candidate push bases of each active set are built once per call, on
    the first stamp that meets that set; later stamps only solve them for the
    new right-hand side.  The pushes, and so the output bytes, are the same as
    with the bases rebuilt at every stamp.
    """
    if not is_completely_s(inst.reflection):
        raise NotCompletelyS("reflection matrix is not completely-S")
    theta, r = inst.theta, inst.reflection
    bases = {}
    eps = empty_threshold(inst.z0)
    tol = 1e-9 * (1.0 + l1(theta))

    def push(t, z, zs):
        # the active components are held at the boundary by the push, so
        # their crossings do not cut the step
        active = [j for j, level in enumerate(zs) if level < eps]
        if active:
            c = -theta[active] - z[active] / h
            u = _minimal_push(r, active, c, tol, bases)
            if np.any(u > inst.push_bound * (1 + 1e-12)):
                raise PushBoundExceeded(
                    f"minimal push {u.max():.6g} exceeds bound {inst.push_bound:.6g}"
                )
        else:
            u = np.zeros(inst.J)
        return u, theta + r @ u, active

    return LspSolution(*_event_split(inst.z0, horizon, h, _EVENT_CAP, push))


def solution_residual(inst: LspInstance, sol: Trajectory) -> float:
    """Max over stamps of |Z - (Z0 + theta t + R Y)| in l1."""
    predicted = (
        inst.z0[None, :]
        + sol.grid[:, None] * inst.theta[None, :]
        + sol.allocation @ inst.reflection.T
    )
    return float(np.abs(sol.levels - predicted).sum(axis=1).max())


def complementarity_residual(sol: Trajectory) -> float:
    """Discrete boundary-push-while-positive functional sum_j int Z_j dY_j,
    trapezoidal in Z per interval."""
    if sol.controls.shape[0] == 0:
        return 0.0
    z_mid = 0.5 * (sol.levels[:-1] + sol.levels[1:])
    dy = np.diff(sol.allocation, axis=0)
    return float(np.sum(z_mid * dy))


def lipschitz_bound(inst: LspInstance) -> float:
    """A priori slope bound |theta| + |R| * push_bound (induced l1 norm)."""
    r_norm = float(np.abs(inst.reflection).sum(axis=0).max())
    return l1(inst.theta) + r_norm * inst.push_bound


def solution_csv(sol: Trajectory) -> str:
    """CSV export: t, Z1..ZJ, Y1..YJ, 17 significant digits."""
    header = ["t", *(f"{name}{i + 1}" for name in "ZY" for i in range(sol.K))]
    return csv_text(header, np.column_stack([sol.grid, sol.levels, sol.allocation]).tolist())
