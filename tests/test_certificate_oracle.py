"""A Verified linear certificate is an oracle for every run of its network.

``linear_certificate_search`` returns weights w > 0 and a margin eps with
w . v <= -eps for every admissible velocity v off the origin.  Every control
``simulate`` picks away from the empty state is such a velocity, whatever
the selector, so along any run the weighted mass w . Q falls at rate at
least eps: each step has w . dQ + eps dt <= 0, and the run drains by
w . Q(0) / eps.  The networks are 200 seeded ``test_enumerate.random_network``
networks, K 2-4, alternating the two disciplines; those whose search is
Verified are kept, with two seeded simplex starts each.
"""
import functools

import numpy as np
import pytest

from fluidnet.dynamics import (
    FirstVertex,
    FixedSequence,
    MaxDrain,
    MinDrain,
    RandomVertex,
    check_trajectory,
    simulate,
)
from fluidnet.lyapunov import linear_certificate_search
from fluidnet.model import PRIORITY, WORK_CONSERVING
from test_enumerate import random_network

N_NETWORKS = 200
H = 0.02
SELECTORS = {
    "first_vertex": FirstVertex,
    "max_drain": MaxDrain,
    "min_drain": MinDrain,
    "random_vertex": lambda: RandomVertex(7),
    "fixed_sequence": lambda: FixedSequence([1, 0, 2]),
}


SEED = (20111990, 11)


def networks(rng):
    """The N_NETWORKS networks drawn from ``rng``: K 2-4, the disciplines alternating."""
    return [random_network(rng, int(rng.integers(2, 5)), (WORK_CONSERVING, PRIORITY)[i % 2])
            for i in range(N_NETWORKS)]


@functools.cache
def certified():
    """(index, spec, w, eps, starts) for each network with a Verified certificate."""
    rng = np.random.default_rng(SEED)
    specs = networks(rng)
    kept = []
    for i, spec in enumerate(specs):
        cert = linear_certificate_search(spec)
        if cert.status == "Verified":
            starts = rng.dirichlet(np.ones(spec.K), size=2)
            kept.append((i, spec, np.asarray(cert.data["h"]), cert.epsilon, starts))
    return kept


def test_about_half_the_networks_are_certified():
    # the oracle is only as strong as the share of networks it covers
    assert len(certified()) >= N_NETWORKS // 2


@pytest.mark.parametrize("name", sorted(SELECTORS))
def test_every_run_follows_the_certificate(name):
    for i, spec, w, eps, starts in certified():
        for x in starts:
            bound = float(w @ x) / eps
            traj = simulate(spec, x, SELECTORS[name](), 1.1 * bound + 0.1, H)
            where = f"network {i}, start {x.tolist()}"
            weighted = traj.levels @ w
            steps = np.diff(weighted) + eps * np.diff(traj.grid)
            assert steps.max(initial=0.0) <= 1e-12 * (1.0 + weighted[0]), where
            assert traj.drained_at is not None, where
            assert traj.drained_at <= bound * (1 + 1e-12) + 1e-12, where
            assert check_trajectory(spec, traj)["ok"], where
