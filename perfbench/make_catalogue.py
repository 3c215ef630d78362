"""Generate scaled_catalogue.json, the network pool of scaled_networks.

    python3 perfbench/make_catalogue.py

Draws seeded random valid networks for each shape (K classes, J stations,
discipline) with a unit-mass start, and keeps the first PER_SHAPE whose
simulate stays within MAX_STAMPS stamps under every default selector.  The
budget is a count, not a time, so the pool does not depend on the machine.
"""
from __future__ import annotations

import json
import sys

import numpy as np

import run

run.import_library()

import fluidnet.dynamics  # noqa: E402
import fluidnet.model  # noqa: E402
from fluidnet.errors import StepTooLarge  # noqa: E402
import workloads  # noqa: E402

SEED = 20111990
SHAPES = (
    (4, 2, "work_conserving"),
    (4, 3, "work_conserving"),
    (5, 2, "work_conserving"),
    (5, 3, "work_conserving"),
    (6, 2, "work_conserving"),
    (6, 3, "work_conserving"),
    (4, 2, "priority"),
    (4, 3, "priority"),
    (5, 2, "priority"),
    (5, 3, "priority"),
)
PER_SHAPE = 12
HORIZON = 0.3
STEP = 0.05
MAX_STAMPS = 120


def random_network(rng: np.random.Generator, k: int, j: int, discipline: str):
    """A valid network: every station serves a class, one random route through
    all classes with forward proportions in [0.6, 0.95] (nilpotent routing),
    and inflow at the route's head scaled to a peak station load in [0.5, 0.9]."""
    station = np.empty(k, dtype=int)
    perm = rng.permutation(k)
    station[perm[:j]] = np.arange(j)
    station[perm[j:]] = rng.integers(0, j, k - j)
    constituency = np.zeros((j, k))
    constituency[station, np.arange(k)] = 1.0
    order = rng.permutation(k)
    routing = np.zeros((k, k))
    routing[order[:-1], order[1:]] = rng.uniform(0.6, 0.95, k - 1)
    mu = rng.uniform(1.0, 3.0, k)
    alpha = np.zeros(k)
    alpha[order[0]] = 1.0
    outflow = (np.eye(k) - routing.T) * mu[None, :]
    load = float((constituency @ np.linalg.solve(outflow, alpha)).max())
    alpha *= rng.uniform(0.5, 0.9) / load
    priority = [int(p) for p in rng.permutation(k)] if discipline == "priority" else None
    return fluidnet.model.validate(alpha, mu, routing, constituency, discipline, priority)


def within_budget(spec, x0) -> bool:
    for name in workloads.SCALED_SELECTORS:
        selector = getattr(fluidnet.dynamics, name)()
        try:
            fluidnet.dynamics.simulate(spec, x0, selector, HORIZON, STEP, max_events=MAX_STAMPS)
        except StepTooLarge:
            return False
    return True


def main() -> int:
    networks = []
    for index, (k, j, discipline) in enumerate(SHAPES):
        kept = rejected = 0
        attempt = 0
        while kept < PER_SHAPE:
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([SEED, index, attempt])))
            attempt += 1
            spec = random_network(rng, k, j, discipline)
            x0 = rng.dirichlet(np.ones(k))
            if not within_budget(spec, x0):
                rejected += 1
                continue
            kept += 1
            networks.append({
                "shape": [k, j, discipline],
                "alpha": spec.alpha.tolist(),
                "mu": spec.mu.tolist(),
                "routing": spec.routing.tolist(),
                "constituency": spec.constituency.astype(int).tolist(),
                "discipline": discipline,
                "priority": None if spec.priority is None else list(spec.priority),
                "x0": x0.tolist(),
            })
        print(f"K={k} J={j} {discipline}: kept {kept}, rejected {rejected}", flush=True)
    doc = {
        "seed": SEED,
        "horizon": HORIZON,
        "step": STEP,
        "max_stamps": MAX_STAMPS,
        "shapes": [list(s) for s in SHAPES],
        "networks": networks,
    }
    with open(workloads.CATALOGUE_PATH, "w") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
