"""Acceptance suite: one test per verification criterion.

Each test prints one PASS line with its runtime; every tolerance is asserted
at the stated value.  Heavier shared artifacts (stability verdicts and
best-path samples for the five stable networks) are computed once per session.
"""
import itertools
import json
import time

import numpy as np
import pytest

from fluidnet import fixtures
from fluidnet.cli import main as cli_main
from fluidnet.dynamics import RandomVertex, lipschitz_constant, simulate
from fluidnet.fluidlimit import (
    distance_to_fluid,
    fluid_limit_compare,
    simulate_queueing,
)
from fluidnet.gfn import axiom_report, concat_closure_report, example_family, network_family
from fluidnet.lyapunov import (
    SearchBudget,
    approximate_V,
    check_decrease,
    check_sandwich,
    comparison_functions,
    linear_certificate_search,
)
from fluidnet.skorokhod import (
    LspInstance,
    complementarity_residual,
    is_completely_s,
    is_s_matrix,
    solve_lsp,
)
from fluidnet.specfile import network_to_yaml
from fluidnet.stability import draining_time, instability_witness

SEARCH_STEP = 0.02


class _Timer:
    def __init__(self, number, budget_s):
        self.number = number
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:2d}: {status} ({elapsed:.2f}s / budget {self.budget}s)")
        assert elapsed <= self.budget, f"criterion {self.number} exceeded its runtime budget"
        return False


_CACHE: dict = {}


@pytest.fixture(scope="session")
def stable_networks():
    return fixtures.stable_fixture_set()


def _verdicts(stable_networks):
    if "verdicts" not in _CACHE:
        out = {}
        for name, spec in stable_networks.items():
            out[name] = draining_time(spec, samples=12, horizon=40.0, h=0.01, seed=42)
            assert out[name].status == "stable", name
        _CACHE["verdicts"] = out
    return _CACHE["verdicts"]


def _v_samples(stable_networks):
    """Best-path values at >= 200 states across the five stable networks."""
    if "v_samples" in _CACHE:
        return _CACHE["v_samples"]
    verdicts = _verdicts(stable_networks)
    rng = np.random.default_rng(19)
    samples = {}
    for name, spec in stable_networks.items():
        horizon = max(25.0, 10.0 * verdicts[name].tau)
        family = network_family(spec, horizon=horizon, h=SEARCH_STEP)
        budget = SearchBudget()
        rows = []
        directions = [np.eye(spec.K)[k] for k in range(spec.K)]
        while len(directions) < 14:
            directions.append(rng.dirichlet(np.ones(spec.K)))
        for direction, radius in itertools.product(directions, (0.5, 1.0, 2.0)):
            x = radius * direction
            estimate = approximate_V(family, x, budget)
            assert estimate.drained, (name, x)
            rows.append((x, estimate))
        samples[name] = (family, budget, rows)
    _CACHE["v_samples"] = samples
    return samples


def test_criterion_01_counterexample_values_exact():
    with _Timer(1, 1.0):
        family = example_family("lsc_counterexample")
        assert approximate_V(family, [1.0, 1.0]).value == pytest.approx(2.0, abs=1e-6)
        for n in (1, 2, 5, 10):
            x = [1 + 1 / n, 1 - 1 / n]
            want = 0.5 * ((1 + 1 / n) ** 2 + (1 - 1 / n) ** 2)
            assert approximate_V(family, x).value == pytest.approx(want, abs=1e-6)


def test_criterion_02_lower_semicontinuity_failure():
    with _Timer(2, 1.0):
        family = example_family("lsc_counterexample")
        at_limit = approximate_V(family, [1.0, 1.0]).value
        n = 100
        near = approximate_V(family, [1 + 1 / n, 1 - 1 / n]).value
        assert near == pytest.approx(0.5 * ((1 + 1 / n) ** 2 + (1 - 1 / n) ** 2), abs=1e-9)
        assert at_limit - near >= 0.99
        assert near < at_limit


def test_criterion_03_concatenation_counterexample():
    with _Timer(3, 5.0):
        family = example_family("concat_counterexample")
        report = concat_closure_report(
            family, [[1.0, 1.0], [2.0, 1.0], [0.5, 1.5], [1.0, 3.0]]
        )
        assert report["attempts"] >= 20
        assert report["members"] == 0


def test_criterion_04_comparison_sandwich(stable_networks):
    with _Timer(4, 120.0):
        verdicts = _verdicts(stable_networks)
        v_samples = _v_samples(stable_networks)
        total_states = 0
        for name, spec in stable_networks.items():
            big_l = lipschitz_constant(spec)
            triple = comparison_functions(big_l, verdicts[name].tau)
            _, _, rows = v_samples[name]
            pairs = [(x, est.value) for x, est in rows]
            report = check_sandwich(pairs, triple)
            assert report["ok"], (name, report["violations"][:3])
            total_states += report["checked"]
        assert total_states >= 200


def test_criterion_05_decrease_along_argmax(stable_networks):
    with _Timer(5, 120.0):
        v_samples = _v_samples(stable_networks)
        for name, spec in stable_networks.items():
            family, budget, rows = v_samples[name]

            def v_fn(state, _family=family, _budget=budget):
                return approximate_V(_family, state, _budget).value

            for x, estimate in rows[:3]:
                report = check_decrease(
                    v_fn, estimate.trajectory, lambda r: r, max_stamps=10
                )
                assert report["worst_margin"] <= 1e-3, (name, x, report)


def test_criterion_06_axiom_property_suite(stable_networks):
    with _Timer(6, 60.0):
        total_ops = 0
        for i, (name, spec) in enumerate(stable_networks.items()):
            report = axiom_report(
                spec, n_ops=200, seed=100 + i, horizon=15.0, h=0.05, n_base=4
            )
            assert report["max_normalized_residual"] < 1e-7, (name, report)
            assert report["lipschitz_ok"], (name, report)
            total_ops += sum(report["operations"].values())
        assert total_ops >= 1000


def test_criterion_07_lu_kumar_instability():
    with _Timer(7, 10.0):
        spec = fixtures.lu_kumar()
        loads = spec.traffic_intensity()
        assert np.all(loads < 1.0) and loads == pytest.approx([0.7, 0.7])
        witness = instability_witness(
            spec, horizon=50.0, h=0.01, seed=42, samples=0, multistarts=0
        )
        assert witness is not None
        mass = np.abs(witness.levels).sum(axis=1)
        assert witness.grid[-1] >= 50.0 - 1e-9
        assert mass.min() >= 1.0 - 1e-6
        assert mass[-1] >= 5.0


def test_criterion_08_linear_certificate():
    with _Timer(8, 30.0):
        tandem = fixtures.tandem()
        cert = linear_certificate_search(tandem)
        assert cert.status == "Verified" and cert.epsilon > 0
        assert linear_certificate_search(fixtures.overloaded_queue()).status == "Unknown"
        h_vec = np.asarray(cert.data["h"])
        step = 0.01
        rng = np.random.default_rng(7)
        for i in range(100):
            x0 = rng.dirichlet(np.ones(tandem.K)) * rng.uniform(0.2, 1.5)
            traj = simulate(tandem, x0, RandomVertex(i), 30.0, step)
            assert traj.drained
            assert traj.drained_at <= float(h_vec @ x0) / cert.epsilon + 2 * step


def _s_matrix_brute(r):
    """Combinatorial max-min over the simplex; no linear programming."""
    r = np.asarray(r, dtype=float)
    n = r.shape[0]
    best = -np.inf
    for support in range(1, n + 1):
        for cols in itertools.combinations(range(n), support):
            for tied in range(1, n + 1):
                for rows in itertools.combinations(range(n), tied):
                    a = np.zeros((tied + 1, support + 1))
                    b = np.zeros(tied + 1)
                    for i, row in enumerate(rows):
                        a[i, :support] = r[row, cols]
                        a[i, -1] = -1.0
                    a[tied, :support] = 1.0
                    b[tied] = 1.0
                    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
                    if np.abs(a @ sol - b).max() > 1e-9:
                        continue
                    x = np.zeros(n)
                    x[list(cols)] = sol[:support]
                    if x.min() < -1e-9:
                        continue
                    best = max(best, float((r @ x).min()))
    return best > 1e-10


def test_criterion_09_completely_s_agreement():
    with _Timer(9, 30.0):
        rng = np.random.default_rng(2024)
        agree = 0
        total = 0
        for size in (3, 4):
            for _ in range(250):
                r = rng.uniform(-1.0, 1.0, (size, size))
                got = is_completely_s(r)
                want = all(
                    _s_matrix_brute(r[np.ix_(idx, idx)])
                    for m in range(1, size + 1)
                    for idx in map(list, itertools.combinations(range(size), m))
                )
                total += 1
                agree += got == want
        assert total == 500
        assert agree == total


def test_criterion_10_lsp_solver():
    with _Timer(10, 30.0):
        h = 0.05
        one_d = solve_lsp(fixtures.lsp_one_dimensional(), 3.0, h)
        want_z = np.maximum(1 - one_d.grid, 0.0)
        assert np.abs(one_d.states[:, 0] - want_z).max() <= 2 * h

        dec = solve_lsp(fixtures.lsp_decoupled(), 2.0, h)
        want = np.column_stack(
            [np.maximum(1 - dec.grid, 0.0), np.maximum(1 - 2 * dec.grid, 0.0)]
        )
        assert np.abs(dec.states - want).max() <= 2 * h

        chatter = fixtures.lsp_chattering()
        residuals = {
            step: complementarity_residual(solve_lsp(chatter, 5.0, step))
            for step in (0.02, 0.01, 0.005)
        }
        for coarse, fine in [(0.02, 0.01), (0.01, 0.005)]:
            ratio = residuals[fine] / residuals[coarse]
            assert 0.3 <= ratio <= 0.7, residuals


def test_criterion_11_fluid_limit_convergence():
    with _Timer(11, 300.0):
        # exact staircase: one customer of gap after scaling
        net = fixtures.single_queue(0.0, 1.0)
        qspec = fixtures.queueing_single_deterministic()
        from fluidnet.dynamics import MaxDrain

        for r in (10, 100, 1000):
            path = simulate_queueing(qspec, [r], 1.5 * r, seed=2)
            fluid = simulate(net, [1.0], MaxDrain(), 1.5, 0.01)
            sup, _ = distance_to_fluid(path.scaled(r), fluid, 1.5)
            assert sup <= 1.5 / r

        table = fluid_limit_compare(
            fixtures.queueing_two_class_priority(),
            fixtures.two_class_priority(),
            [0.5, 0.5],
            [10, 100, 1000],
            2.0,
            seeds=list(range(1, 11)),
            h=0.01,
        )
        agg = table["aggregate"]
        assert agg[100.0]["mean_of_max"] <= agg[10.0]["mean_of_max"]
        assert agg[1000.0]["mean_of_max"] <= agg[100.0]["mean_of_max"]


def test_criterion_12_cli_determinism(tmp_path):
    with _Timer(12, 60.0):
        spec_path = tmp_path / "net.yaml"
        spec_path.write_text(network_to_yaml(fixtures.tandem()))
        blobs = []
        for name in ("first", "second"):
            out = tmp_path / name
            code = cli_main(
                ["--command", "stability", "--input", str(spec_path),
                 "--out", str(out), "--seed", "11", "--horizon", "10",
                 "--samples", "4"]
            )
            assert code == 0
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]
        json.loads(blobs[0])  # remains machine readable
