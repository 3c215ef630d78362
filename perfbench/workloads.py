"""The benchmark workloads: seeded task lists that drive fluidnet's public API.

A task is one user-level call.  Its latency is the time of that call alone;
its check runs afterwards, untimed, and a failed check counts the task as
failed instead of stopping the benchmark.  Every check also returns a SHA-256
of the task's output bytes, recorded as information: a change that moves a
trajectory or a report byte shows up there without failing the run.

Every library call goes through a module attribute looked up at call time
(``fluidnet.dynamics.simulate``, not a name bound here), so the tracer's
wrappers see it.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import fluidnet
import fluidnet.cli
import fluidnet.dynamics
import fluidnet.fixtures
import fluidnet.fluidlimit
import fluidnet.lyapunov
import fluidnet.model
import fluidnet.skorokhod
import fluidnet.specfile

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Flags of every CLI call in fixture_verdicts.  With --samples 0 the stability
# starts are the basis vectors only, so a stable fixture's tau can be checked
# against reference.json, recorded with these flags.  The inputs are fixed and
# the workload seed only orders the tasks: with the CLI seed drawn per workload
# seed, gfn-check's random operations and lu_kumar's witness search moved the
# tail task by 2x between seeds, and seeded simulate starts moved the median
# task by 22%.
CLI_STEP = 0.02
CLI_FLAGS = ("--step", str(CLI_STEP), "--horizon", "10", "--samples", "0", "--seed", "42")
CLI_COMMANDS = ("simulate", "stability", "lyapunov", "gfn-check")

# Set-up sizes: "full" is what the benchmark measures; "smoke" is a tiny
# version of the same code path used by ``run.py --smoke``.
SIZES = {
    "full": {
        "fixtures": None,  # all of them
        "scaled_shapes": None,  # all of them
        "scaled_per_shape": None,  # all of them
        "fluid_scales": (100.0, 1000.0),
        "fluid_seeds": 6,
        "fluid_horizon": 10.0,
        "lsp_random": 22,
    },
    "smoke": {
        "fixtures": ("single_queue", "tandem", "lu_kumar"),
        "scaled_shapes": ((4, 2, "work_conserving"), (4, 2, "priority")),
        "scaled_per_shape": 1,
        "fluid_scales": (10.0, 1000.0),
        "fluid_seeds": 1,
        "fluid_horizon": 2.0,
        "lsp_random": 2,
    },
}


@dataclass
class Task:
    """One timed call and the check of its result.

    ``check`` returns (failure message or None, SHA-256 of the output bytes).
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str | None, str]]


@dataclass
class Workload:
    name: str
    tasks: list[Task]


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *stream])))


def sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(len(chunk).to_bytes(8, "little"))
        digest.update(chunk)
    return digest.hexdigest()


def flow_balance(spec, grid, levels, allocation) -> float:
    """max_t |Q(t) - (Q(0) + alpha t - (I - P^T) diag(mu) T(t))|_1, recomputed here."""
    outflow = (np.eye(spec.K) - spec.routing.T) * spec.mu[None, :]
    predicted = levels[0][None, :] + grid[:, None] * spec.alpha[None, :] - allocation @ outflow.T
    return float(np.abs(levels - predicted).sum(axis=1).max())


def flow_tolerance(x0) -> float:
    """The README's flow-balance contract: 1e-7 (1 + |Q(0)|_1)."""
    return 1e-7 * (1.0 + float(np.abs(np.asarray(x0, dtype=float)).sum()))


# ---------------------------------------------------------------------------
# fixture_verdicts
#
# Why: the verdict commands of the CLI on the built-in networks.  Sliding
# classes pick up dust of 1e-19..1e-18, so the polytope cache in
# dynamics.simulate misses at nearly every stamp: in a reentrant_line simulate
# (h=0.02, horizon 30, no stop on drain) 1,429 of 1,502 stamps re-enumerated;
# in the reentrant draining_time probe enumeration took 0.71 s of 0.91 s, for
# lu_kumar 2.2 s of 3.1 s.  Loads: the model/dynamics cache path and every
# CLI layer (specfile parse, report and CSV writes), stability (lu_kumar's
# instability witness is the slow tail), lyapunov certificates and
# approximate_V, and the gfn scale/shift/concatenate operations.  This is
# where dust snapping and parametric enumeration (ROADMAP 2a/2b) must show.
#
# lu_kumar runs simulate, stability and lyapunov but not gfn-check: its
# axiom_report at horizon >= 5 falls into a concatenation tail that ran for
# minutes (see CHANGES.md), which no benchmark run could wait for.


def _fixture_networks(size: dict) -> dict:
    nets = dict(fluidnet.fixtures.stable_fixture_set())
    nets["lu_kumar"] = fluidnet.fixtures.lu_kumar()
    if size["fixtures"] is not None:
        nets = {name: nets[name] for name in size["fixtures"]}
    return nets


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        ref = json.load(handle)
    if tuple(ref["cli_flags"]) != CLI_FLAGS:
        raise RuntimeError("reference.json was recorded with other CLI flags; record it again")
    return ref


def _read_outputs(out_dir: str) -> tuple[dict, dict[str, bytes]]:
    files = {}
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("."):
            continue
        with open(os.path.join(out_dir, name), "rb") as handle:
            files[name] = handle.read()
    return json.loads(files["report.json"]), files


def _load_trajectory_csv(raw: bytes, k: int):
    rows = np.loadtxt(raw.decode().splitlines()[1:], delimiter=",", ndmin=2)
    return rows[:, 0], rows[:, 1:1 + k], rows[:, 1 + k:1 + 2 * k]


def _check_cli(command, spec, expected, exit_code, out_dir, x0):
    """Failure message (or None) and digest for one CLI task."""
    report, files = _read_outputs(out_dir)
    digest = sha256(*(name.encode() + b"\0" + files[name] for name in sorted(files)))
    status = expected["status"]
    want_exit = 2 if command == "stability" and status == "unstable" else 0
    if exit_code != want_exit:
        return f"exit status {exit_code}, expected {want_exit}", digest
    if command == "simulate":
        if not report["simulate"]["invariants"]["ok"]:
            return "check_trajectory reports a violated invariant", digest
        grid, levels, alloc = _load_trajectory_csv(files["trajectory.csv"], spec.K)
        residual = flow_balance(spec, grid, levels, alloc)
        if not residual <= flow_tolerance(x0):
            return f"flow balance {residual:.3g} above {flow_tolerance(x0):.3g}", digest
    if command in ("stability", "lyapunov"):
        verdict = report["stability"]
        if verdict["status"] != status:
            return f"verdict {verdict['status']}, expected {status}", digest
        if status == "stable" and not abs(verdict["tau"] - expected["tau"]) <= 2 * CLI_STEP:
            return f"tau {verdict['tau']} not within 2h of {expected['tau']}", digest
    if command == "lyapunov":
        if report["certificate"]["status"] != expected["certificate"]:
            return (
                f"certificate {report['certificate']['status']}, "
                f"expected {expected['certificate']}"
            ), digest
        if status == "stable" and not report["sandwich"]["ok"]:
            return "sandwich check failed", digest
    if command == "gfn-check":
        gfn = report["gfn_check"]
        if not (gfn["residual_ok"] and gfn["lipschitz_ok"]):
            return "gfn closure residual or Lipschitz bound violated", digest
    return None, digest


def fixture_verdicts(seed: int, size: dict, workdir: str, expected_override=None) -> Workload:
    """CLI verdict commands on the fixture YAMLs; ``expected_override`` maps a
    fixture name to a verdict to expect instead of the reference (for the
    smoke test of the failure count)."""
    reference = load_reference()["fixtures"]
    tasks = []
    for name, spec in _fixture_networks(size).items():
        expected = dict(reference[name])
        if expected_override and name in expected_override:
            expected["status"] = expected_override[name]
        path = os.path.join(workdir, f"{name}.yaml")
        with open(path, "w") as handle:
            handle.write(fluidnet.specfile.network_to_yaml(spec))
        x0 = np.ones(spec.K) / spec.K  # the CLI's default simulate start
        for command in CLI_COMMANDS:
            if name == "lu_kumar" and command == "gfn-check":
                continue
            out_dir = os.path.join(workdir, f"{name}-{command}")
            argv = ["--command", command, "--input", path, "--out", out_dir, *CLI_FLAGS]
            tasks.append(Task(
                f"{name}/{command}",
                lambda argv=argv: fluidnet.cli.main(argv),
                lambda code, c=command, s=spec, e=expected, o=out_dir, x=x0:
                    _check_cli(c, s, e, code, o, x),
            ))
    order = _rng(seed, 1).permutation(len(tasks))
    return Workload("fixture_verdicts", [tasks[i] for i in order])


# ---------------------------------------------------------------------------
# scaled_networks
#
# Why: networks larger than the fixtures, where each polytope enumeration is
# huge (C(rows, n_active) subsets, each with an SVD rank test).  A K=5/J=2
# work-conserving simulate made 2 enumerate calls trying 6,398 subsets, 0.31 s
# of 0.32 s; a K=5 priority one made 25 calls trying 23,869 subsets, 1.29 s of
# 1.32 s.  Loads model.enumerate per call (ROADMAP 2c) and the drift set of
# lyapunov.linear_certificate_search (ROADMAP 3); cache reuse barely matters,
# so a change that adds per-enumeration set-up (cached factorizations) shows
# its cost here.  Uses simulate, not draining_time: on these networks
# draining_time can fall into the instability-witness search, and one K=4
# probe ran for more than 10 minutes.
#
# The networks come from scaled_catalogue.json (see make_catalogue.py): a
# fixed pool of seeded random valid networks with K=4..6 and J=2..3 in both
# disciplines, 12 per shape, each with a unit-mass start.  The workload seed
# only shuffles the task order.  The pool is fixed, not drawn per seed,
# because a simulate's cost swings with its input: sliding can cut a step into
# thousands of zero-crossing events (one K=4 priority MinDrain start made more
# than 5,000 stamps before t=0.3), a 5% change of the rates moved a network's
# cost by 2x, and picking 10 of the 12 networks per shape by seed still moved
# the subsets tried per pass by 12% between seeds.  The generator keeps only
# networks whose simulate stays within a stamp budget under every default
# selector.  Priority networks stop
# at K=5: a K=6 priority simulate spent more than 8 s at horizon 1.
CATALOGUE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "scaled_catalogue.json")
SCALED_SELECTORS = ("FirstVertex", "MaxDrain", "MinDrain")


def load_catalogue() -> dict:
    with open(CATALOGUE_PATH) as handle:
        doc = json.load(handle)
    for entry in doc["networks"]:
        entry["spec"] = fluidnet.model.validate(
            entry["alpha"], entry["mu"], entry["routing"], entry["constituency"],
            entry["discipline"], entry["priority"],
        )
        entry["x0"] = np.asarray(entry["x0"])
    return doc


def _check_simulation(spec, x0, traj):
    digest = sha256(fluidnet.dynamics.trajectory_csv(traj).encode())
    if not fluidnet.dynamics.check_trajectory(spec, traj)["ok"]:
        return "check_trajectory reports a violated invariant", digest
    residual = flow_balance(spec, traj.grid, traj.levels, traj.allocation)
    if not residual <= flow_tolerance(x0):
        return f"flow balance {residual:.3g} above {flow_tolerance(x0):.3g}", digest
    return None, digest


def _boundary_sets(spec):
    n = spec.J if spec.discipline == "work_conserving" else spec.K
    for mask in range(2**n - 1):  # proper subsets: some class can hold fluid
        yield [i for i in range(n) if mask >> i & 1]


def _check_certificate(spec, cert):
    """A Verified linear certificate h must satisfy h . v <= -epsilon for every
    admissible velocity v of every boundary configuration.  Checked by one LP
    per configuration over the constraint system, not over enumerated
    vertices, so the enumerator is not its own judge."""
    from scipy.optimize import linprog

    digest = sha256(json.dumps(cert.to_report(), sort_keys=True).encode())
    if cert.status == "Unknown":
        return None, digest
    if cert.status != "Verified":
        return f"unexpected certificate status {cert.status}", digest
    h = np.asarray(cert.data["h"])
    for empty in _boundary_sets(spec):
        if spec.discipline == "work_conserving":
            a_eq, b_eq, a_ub, b_ub = fluidnet.model.work_conserving_constraints(spec, empty)
        else:
            a_eq, b_eq, a_ub, b_ub = fluidnet.model.priority_constraints(spec, empty)
        # max over u of h . (alpha - outflow u) = h . alpha - min (outflow^T h) . u
        res = linprog(
            spec.outflow.T @ h, A_ub=a_ub, b_ub=b_ub,
            A_eq=a_eq if a_eq.size else None, b_eq=b_eq if a_eq.size else None,
            bounds=[(None, None)] * spec.K, method="highs",
        )
        if not res.success:
            return f"drift LP failed for empty set {empty}: {res.message}", digest
        drift = float(h @ spec.alpha - res.fun)
        if drift > -cert.epsilon + 1e-6 * (1.0 + np.abs(h).sum()):
            return f"drift {drift:.3g} above -epsilon for empty set {empty}", digest
    return None, digest


def scaled_networks(seed: int, size: dict, workdir: str) -> Workload:
    catalogue = load_catalogue()
    tasks = []
    for shape in size["scaled_shapes"] or catalogue["shapes"]:
        pool = [e for e in catalogue["networks"] if e["shape"] == list(shape)]
        for index, entry in enumerate(pool[:size["scaled_per_shape"]]):
            spec, x0 = entry["spec"], entry["x0"]
            tag = f"K{spec.K}J{spec.J}{spec.discipline[0]}/{index}"
            for selector in SCALED_SELECTORS:
                tasks.append(Task(
                    f"{tag}/simulate/{selector}",
                    lambda s=spec, x=x0, sel=selector: fluidnet.dynamics.simulate(
                        s, x, getattr(fluidnet.dynamics, sel)(),
                        catalogue["horizon"], catalogue["step"]),
                    lambda traj, s=spec, x=x0: _check_simulation(s, x, traj),
                ))
            tasks.append(Task(
                f"{tag}/certificate",
                lambda s=spec: fluidnet.lyapunov.linear_certificate_search(s),
                lambda cert, s=spec: _check_certificate(s, cert),
            ))
    order = _rng(seed, 2).permutation(len(tasks))
    return Workload("scaled_networks", [tasks[i] for i in order])


# ---------------------------------------------------------------------------
# stochastic_limits
#
# Why: the two kernels that do not enumerate polytopes.  Time goes to the
# per-event loop of fluidlimit.simulate_queueing (1.44 s of 1.65 s at
# r=1000) and to the push LPs of skorokhod.solve_lsp (0.35 s of 0.43 s);
# enumeration took 0.03 s.  Prediction: polytope work (ROADMAP 2) leaves
# this workload unchanged, so it is the bypass case for every change to
# model or dynamics.
#
# Only the queueing sample paths are drawn from the workload seed; the start
# direction and the Skorokhod instances are fixed (the seed orders the solves),
# because the cost of a solve swings with its instance: drawn per seed they
# moved the median task by 27% between seeds.
LSP_INSTANCE_SEED = 20111990
LSP_HORIZON = 3.0
LSP_STEP = 0.01
FLUID_STEP = 0.05
# the two-class priority network has a unique fluid limit; at r=1000 the
# scaled path stays within this sup distance of it (observed 0.04..0.05)
PRIORITY_LIMIT_TOL = 0.25


def _check_fluid_table(table, r, unique_limit):
    digest = sha256(fluidnet.fluidlimit.distance_table_csv(table).encode())
    for row in table["rows"]:
        mean, worst = row["mean_dist"], row["max_dist"]
        if not (np.isfinite(mean) and np.isfinite(worst) and 0.0 <= mean <= worst + 1e-12):
            return f"invalid distances {row}", digest
        if unique_limit and r >= 1000 and worst > PRIORITY_LIMIT_TOL:
            return f"sup distance {worst:.3g} at r={r:g} above {PRIORITY_LIMIT_TOL}", digest
    return None, digest


def _check_lsp(inst, h, sol):
    sk = fluidnet.skorokhod
    digest = sha256(sk.solution_csv(sol).encode())
    scale = 1.0 + float(np.abs(inst.z0).sum())
    flow = sk.solution_residual(inst, sol)
    if not flow <= 1e-7 * scale:
        return f"flow residual {flow:.3g} above {1e-7 * scale:.3g}", digest
    # the discrete complementarity functional is O(h) for chattering selections
    comp = sk.complementarity_residual(sol)
    if not comp <= 2.0 * h * scale:
        return f"complementarity residual {comp:.3g} above {2.0 * h * scale:.3g}", digest
    if sol.states.min() < -1e-9 or np.diff(sol.pushing, axis=0).min(initial=0.0) < -1e-12:
        return "negative state or decreasing push", digest
    return None, digest


def random_lsp(rng: np.random.Generator, j: int):
    """Completely-S instance: a strictly diagonally dominant reflection matrix
    with positive diagonal is a P-matrix, hence completely-S."""
    off = rng.uniform(-1.0, 1.0, (j, j)) * (1.0 - np.eye(j))
    off *= rng.uniform(0.3, 0.9) / max(float(np.abs(off).sum(axis=1).max()), 1e-12)
    reflection = np.diag(rng.uniform(1.0, 2.0, j)) + off
    theta = rng.uniform(-1.0, 0.3, j)
    z0 = rng.uniform(0.0, 1.0, j)
    return fluidnet.skorokhod.LspInstance(theta, reflection, z0)


def stochastic_limits(seed: int, size: dict, workdir: str) -> Workload:
    fx = fluidnet.fixtures
    networks = (
        ("two_class_priority", fx.queueing_two_class_priority(), fx.two_class_priority(), True),
        ("reentrant_line", fluidnet.fluidlimit.queueing_spec(fx.reentrant_line()),
         fx.reentrant_line(), False),
    )
    horizon = size["fluid_horizon"]
    tasks = []
    for index, (name, qspec, spec, unique_limit) in enumerate(networks):
        rng = _rng(seed, 3, index)
        direction = (np.ones(spec.K) / spec.K).tolist()
        for r in size["fluid_scales"]:
            qseeds = [int(z) for z in rng.integers(2**31, size=size["fluid_seeds"])]
            tasks.append(Task(
                f"{name}/fluidlimit/r{r:g}",
                lambda q=qspec, s=spec, d=direction, r=r, z=qseeds:
                    fluidnet.fluidlimit.fluid_limit_compare(q, s, d, [r], horizon, z, h=FLUID_STEP),
                lambda table, r=r, u=unique_limit: _check_fluid_table(table, r, u),
            ))
    rng = _rng(LSP_INSTANCE_SEED)
    instances = [("lsp_chattering", fx.lsp_chattering()), ("lsp_decoupled", fx.lsp_decoupled())]
    for i in range(size["lsp_random"]):
        j = 2 + i % 3
        instances.append((f"lsp_random{j}/{i}", random_lsp(rng, j)))
    for name, inst in (instances[i] for i in _rng(seed, 4).permutation(len(instances))):
        tasks.append(Task(
            f"{name}/solve_lsp",
            lambda inst=inst: fluidnet.skorokhod.solve_lsp(inst, LSP_HORIZON, LSP_STEP),
            lambda sol, inst=inst: _check_lsp(inst, LSP_STEP, sol),
        ))
    return Workload("stochastic_limits", tasks)


WORKLOADS = {
    "fixture_verdicts": fixture_verdicts,
    "scaled_networks": scaled_networks,
    "stochastic_limits": stochastic_limits,
}
