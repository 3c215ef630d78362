"""Command-line entry point.

Reads a network description file, dispatches one analysis command, and writes
a machine-readable JSON report plus CSV artifacts into the output directory.
Exit status: 0 on success, 2 when ``--command stability`` finds the network
unstable (so shell scripts can branch on it), 1 on any error.  Other commands
exit 0 whatever verdict their report holds.

All randomness flows from the single --seed through counter-based child
streams, and outputs are written atomically, so rerunning a command with the
same inputs and seed reproduces every artifact byte for byte.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from ._util import atomic_write_text, check_count, child_seeds, to_jsonable
from .dynamics import (
    FirstVertex,
    MaxDrain,
    MinDrain,
    RandomVertex,
    check_trajectory,
    lipschitz_constant,
    simulate,
    trajectory_csv,
)
from .errors import (
    BadHorizon,
    BadStep,
    FluidNetError,
    IoError,
    ParseError,
)
from .fluidlimit import distance_table_csv, fluid_limit_compare, queueing_spec
from .gfn import axiom_report, lipschitz_estimate, network_family
from .lyapunov import (
    MAX_DEPTH,
    SearchBudget,
    approximate_V,
    check_sandwich,
    comparison_functions,
    linear_certificate_search,
)
from .skorokhod import (
    complementarity_residual,
    lipschitz_bound,
    solution_csv,
    solution_residual,
    solve_lsp,
)
from .specfile import parse_spec_file
from .stability import draining_time, unit_sphere_states

log = logging.getLogger("fluidnet")

COMMANDS = ("simulate", "stability", "lyapunov", "skorokhod", "fluidlimit", "gfn-check")


_SELECTORS = {
    "first_vertex": FirstVertex,
    "max_drain": MaxDrain,
    "min_drain": MinDrain,
}


def _selector_from_name(name: str, seed: int):
    if name == "random_vertex":
        return RandomVertex(seed)
    try:
        return _SELECTORS[name]()
    except KeyError:
        raise ParseError(
            f"unknown selector {name!r}; choose from "
            f"{sorted(_SELECTORS) + ['random_vertex']}"
        ) from None


def _need_network(parsed):
    if parsed.network is None:
        raise ParseError("this command requires the network keys in the input file")
    return parsed.network


def _check_flags(args: argparse.Namespace) -> SearchBudget:
    """Reject a bad flag before the input is read; returns the search budget,
    whose construction checks the seed, depth and multistarts."""
    if not args.step > 0:
        raise BadStep(f"step must be positive, got {args.step!r}")
    if not args.horizon > 0:
        raise BadHorizon(f"horizon must be positive, got {args.horizon!r}")
    check_count("samples", args.samples)
    return SearchBudget(depth=args.depth, multistarts=args.multistarts, seed=args.seed)


def run(args: argparse.Namespace) -> int:
    """Execute one command from the parsed flags; returns the process exit status."""
    budget = _check_flags(args)
    parsed = parse_spec_file(args.input_path)
    os.makedirs(args.out_dir, exist_ok=True)
    params = {k: v for k, v in vars(args).items() if k not in ("input_path", "out_dir")}
    log.info("resolved parameters: %s", params)
    report: dict = {"parameters": params}
    artifacts: dict[str, str] = {}
    status = 0

    if args.command == "simulate":
        spec = _need_network(parsed)
        sim_cfg = parsed.simulate or {}
        x0 = sim_cfg.get("x0", (np.ones(spec.K) / spec.K).tolist())
        selector = _selector_from_name(sim_cfg.get("selector", "max_drain"), args.seed)
        traj = simulate(spec, x0, selector, args.horizon, args.step)
        artifacts["trajectory.csv"] = trajectory_csv(traj)
        report["simulate"] = {
            "x0": list(map(float, x0)),
            "selector": selector.name,
            "drained_at": traj.drained_at,
            "stamps": int(traj.grid.shape[0]),
            "final_mass": float(np.abs(traj.levels[-1]).sum()),
            "invariants": check_trajectory(spec, traj),
        }

    elif args.command == "stability":
        spec = _need_network(parsed)
        verdict = draining_time(
            spec,
            samples=args.samples,
            horizon=args.horizon,
            h=args.step,
            seed=args.seed,
        )
        report["stability"] = verdict.to_report()
        if verdict.witness is not None:
            artifacts["witness.csv"] = trajectory_csv(verdict.witness)
        if verdict.status == "unstable":
            status = 2

    elif args.command == "lyapunov":
        spec = _need_network(parsed)
        certificate = linear_certificate_search(spec)
        report["certificate"] = certificate.to_report()
        verdict = draining_time(
            spec, samples=args.samples, horizon=args.horizon,
            h=args.step, seed=args.seed,
        )
        report["stability"] = verdict.to_report()
        if verdict.is_stable:
            big_l = lipschitz_constant(spec)
            triple = comparison_functions(big_l, verdict.tau)
            family = network_family(spec, horizon=args.horizon, h=args.step)
            states = unit_sphere_states(spec.K, min(args.samples, 8), args.seed)
            pairs = []
            for x in states:
                estimate = approximate_V(family, x, budget)
                if estimate.drained:
                    pairs.append((x, estimate.value))
            sandwich = check_sandwich(pairs, triple)
            sandwich.pop("rows", None)
            report["sandwich"] = sandwich
            report["lipschitz_constant"] = big_l

    elif args.command == "skorokhod":
        if parsed.skorokhod is None:
            raise ParseError("skorokhod command requires a 'skorokhod' section")
        inst = parsed.skorokhod
        sol = solve_lsp(inst, args.horizon, args.step)
        artifacts["solution.csv"] = solution_csv(sol)
        report["skorokhod"] = {
            "dimension": inst.J,
            "push_bound": inst.push_bound,
            "flow_residual": solution_residual(inst, sol),
            "complementarity_residual": complementarity_residual(sol),
            "lipschitz_bound": lipschitz_bound(inst),
            "observed_slope": lipschitz_estimate(sol),
            "final_state": sol.levels[-1].tolist(),
        }

    elif args.command == "fluidlimit":
        spec = _need_network(parsed)
        qspec = parsed.queueing or queueing_spec(spec)
        cfg = parsed.fluidlimit or {}
        direction = cfg.get("direction", (np.ones(spec.K) / spec.K).tolist())
        scales = cfg.get("scales", [10.0, 100.0])
        seeds = child_seeds(args.seed, min(args.samples, 10))
        table = fluid_limit_compare(
            qspec, spec, direction, scales, args.horizon, seeds, h=args.step
        )
        artifacts["distances.csv"] = distance_table_csv(table)
        report["fluidlimit"] = {
            "direction": direction,
            "scales": list(map(float, scales)),
            "seeds": seeds,
            "aggregate": {str(k): v for k, v in table["aggregate"].items()},
        }

    elif args.command == "gfn-check":
        spec = _need_network(parsed)
        report["gfn_check"] = axiom_report(
            spec,
            n_ops=max(100, args.samples * 25),
            seed=args.seed,
            horizon=min(args.horizon, 25.0),
            h=max(args.step, 0.02),
        )

    report["artifacts"] = sorted(artifacts)
    try:
        for name, text in artifacts.items():
            atomic_write_text(os.path.join(args.out_dir, name), text)
        atomic_write_text(
            os.path.join(args.out_dir, "report.json"),
            json.dumps(to_jsonable(report), indent=2, sort_keys=True) + "\n",
        )
    except OSError as exc:
        raise IoError(f"cannot write artifacts to {args.out_dir}: {exc}") from exc
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluidnet",
        description="Fluid network simulation, stability analysis, and reflected drifts.",
    )
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--input", dest="input_path", required=True,
                        help="network description file (YAML)")
    parser.add_argument("--out", dest="out_dir", default="out",
                        help="output directory (default: out)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--step", type=float, default=0.01, help="control-switch step h")
    parser.add_argument("--horizon", type=float, default=50.0)
    parser.add_argument("--samples", type=int, default=16)
    parser.add_argument("--depth", type=int, default=0,
                        help=f"best-path search branching depth, 0..{MAX_DEPTH}")
    parser.add_argument("--multistarts", type=int, default=0)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except FluidNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
