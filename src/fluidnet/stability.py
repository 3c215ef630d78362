"""Draining-time estimation, stability verdicts, and instability witnesses.

A network is judged stable when every sampled unit-mass start drains under
every tested selector; the verdict carries the largest observed draining
time.  It is judged unstable when some path keeps its mass at or above the
initial unit mass over the whole window.  Both verdicts are evidence over a
finite sample, not proofs; the evidence (seeds, sample counts, horizons) is
recorded in the verdict.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import check_count, check_factor, child_seeds, l1, rng_from, to_jsonable
from .dynamics import (
    ControlSelector,
    FirstVertex,
    MaxDrain,
    MinDrain,
    RandomVertex,
    Trajectory,
    default_selectors,
    simulate,
)
from .errors import NotStable
from .model import NetworkSpec

STABLE = "stable"
UNSTABLE = "unstable"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, eq=False)
class Verdict:
    status: str
    tau: float | None = None
    witness: Trajectory | None = None
    evidence: dict = field(default_factory=dict)

    @property
    def is_stable(self) -> bool:
        return self.status == STABLE

    def to_report(self) -> dict:
        out = {"status": self.status, "tau": self.tau, "evidence": self.evidence}
        if self.witness is not None:
            out["witness"] = {
                "initial": self.witness.levels[0].tolist(),
                "final_mass": l1(self.witness.levels[-1]),
                "min_mass": float(np.abs(self.witness.levels).sum(axis=1).min()),
                "horizon": self.witness.horizon,
            }
        return to_jsonable(out)


def unit_sphere_states(k: int, samples: int, seed: int) -> np.ndarray:
    """Basis vectors plus Dirichlet-uniform draws on the unit l1 simplex."""
    check_count("samples", samples)
    rng = rng_from(seed)
    rows = [np.eye(k)]
    if samples > 0:
        rows.append(rng.dirichlet(np.ones(k), size=samples))
    return np.vstack(rows)


def draining_time(
    spec: NetworkSpec,
    selectors: tuple[ControlSelector, ...] | None = None,
    *,
    samples: int = 16,
    horizon: float = 60.0,
    h: float = 0.01,
    seed: int = 42,
) -> Verdict:
    """Stability verdict from unit-sphere sampling.

    Stable when every (start, selector) run drains; tau is the max draining
    time observed.  Otherwise an instability witness is searched; absence of
    both gives Inconclusive.
    """
    if selectors is None:
        selectors = default_selectors()
    starts = unit_sphere_states(spec.K, samples, seed)
    results = [
        simulate(spec, x, sel, horizon, h).drained_at for x in starts for sel in selectors
    ]
    evidence = {
        "starts": int(starts.shape[0]),
        "selectors": [sel.name for sel in selectors],
        "horizon": horizon,
        "h": h,
        "seed": seed,
    }
    if all(d is not None for d in results):
        tau = float(max(results))
        return Verdict(STABLE, tau=tau, evidence=evidence)
    witness = instability_witness(spec, horizon=horizon, h=h, seed=seed)
    if witness is not None:
        return Verdict(UNSTABLE, witness=witness, evidence=evidence)
    evidence["undrained_runs"] = int(sum(1 for d in results if d is None))
    return Verdict(INCONCLUSIVE, evidence=evidence)


def instability_witness(
    spec: NetworkSpec,
    *,
    horizon: float = 60.0,
    h: float = 0.01,
    seed: int = 42,
    samples: int = 8,
    multistarts: int = 4,
) -> Trajectory | None:
    """Search for a unit-mass path whose mass never falls below one.

    Greedy growth-seeking selectors (slowest drain) plus random restarts run
    from basis vectors and random simplex starts; the best path by worst-case
    mass is returned when its infimum stays within 1e-6 of one.  A negative
    ``samples`` or ``multistarts`` raises BadCount.
    """
    check_count("multistarts", multistarts)
    starts = unit_sphere_states(spec.K, samples, seed)
    selectors: list[ControlSelector] = [MinDrain(), FirstVertex()]
    selectors.extend(RandomVertex(s) for s in child_seeds(seed, multistarts))

    best_inf = -np.inf
    best_traj = None
    for x in starts:
        for sel in selectors:
            traj = simulate(spec, x, sel, horizon, h, stop_on_drain=True)
            if traj.drained:
                continue
            inf_mass = float(np.abs(traj.levels).sum(axis=1).min())
            if inf_mass > best_inf:
                best_inf, best_traj = inf_mass, traj
            if best_inf >= 1.0 - 1e-6:
                return best_traj
    return None


def scale_invariance_check(verdict: Verdict, spec: NetworkSpec, r_list) -> dict:
    """Draining time from r*x must equal r times the draining time from x.

    Runs the comparison under MaxDrain with step h = 0.01 for every scale in
    r_list from each basis start; tolerance is two control-switch intervals.
    Raises BadCount for an empty r_list and BadFactor for a scale that is not
    finite and positive.
    """
    if not verdict.is_stable:
        raise NotStable("scale invariance check requires a stable verdict")
    r_list = [check_factor("scale", r) for r in r_list]
    check_count("scale count", len(r_list), low=1)
    selector = MaxDrain()
    h = 0.01
    horizon = 4.0 * (verdict.tau or 1.0) * max(1.0, *r_list) + 1.0
    rows = []
    ok = True
    for x in np.eye(spec.K):
        base = simulate(spec, x, selector, horizon, h).drained_at
        for r in r_list:
            scaled = simulate(spec, r * x, selector, horizon, h).drained_at
            row_ok = (
                base is not None
                and scaled is not None
                and abs(scaled - r * base) <= 2.0 * h * max(1.0, r)
            )
            rows.append(
                {
                    "state": x.tolist(),
                    "r": r,
                    "tau": base,
                    "tau_scaled": scaled,
                    "ok": row_ok,
                }
            )
            ok = ok and row_ok
    return {"rows": rows, "ok": ok}
