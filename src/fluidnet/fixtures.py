"""Built-in example networks and reflected-drift instances used in tests,
documentation, and the command line: fixed instances with literal rates,
except ``single_queue``, which takes its inflow and service rate."""
from __future__ import annotations

import numpy as np

from .fluidlimit import DETERMINISTIC, EXPONENTIAL, QueueingSpec
from .model import PRIORITY, WORK_CONSERVING, NetworkSpec, validate
from .skorokhod import LspInstance


def single_queue(alpha: float = 0.5, mu: float = 1.0) -> NetworkSpec:
    """One class, one station, no routing."""
    return validate([alpha], [mu], [[0.0]], [[1]], WORK_CONSERVING)


def overloaded_queue() -> NetworkSpec:
    """One class with inflow 2 into service rate 1."""
    return single_queue(2.0, 1.0)


def tandem() -> NetworkSpec:
    """Two stations in series; inflow 1 enters the first class, rates 2 and 3."""
    return validate(
        [1.0, 0.0], [2.0, 3.0], [[0.0, 1.0], [0.0, 0.0]], [[1, 0], [0, 1]], WORK_CONSERVING
    )


def two_station_work_conserving() -> NetworkSpec:
    """Three classes on two stations; the first station splits its effort.

    Classes 0 and 2 share station 0; class 1 sits alone on station 1; flow
    runs 0 -> 1 -> 2 -> out.  Loads are light, the network is stable.
    """
    return validate(
        [0.3, 0.0, 0.0],
        [1.5, 1.0, 2.0],
        [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
        [[1, 0, 1], [0, 1, 0]],
        WORK_CONSERVING,
    )


def two_class_priority() -> NetworkSpec:
    """Two classes at one station, class 0 served first; light load."""
    return validate(
        [0.3, 0.2], [2.0, 1.5], np.zeros((2, 2)), [[1, 1]], PRIORITY, priority=(0, 1)
    )


def reentrant_line() -> NetworkSpec:
    """Three steps over two stations: 0 (station 0) -> 1 (station 1) -> 2 (station 0)."""
    return validate(
        [0.2, 0.0, 0.0],
        [1.0, 1.2, 1.5],
        [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
        [[1, 0, 1], [0, 1, 0]],
        WORK_CONSERVING,
    )


def lu_kumar() -> NetworkSpec:
    """The classic four-class reentrant priority network.

    Route 0 -> 1 -> 2 -> 3 -> out; station 0 serves classes {0, 3} and
    station 1 serves {1, 2}; the exit-side classes 3 and 1 get priority.
    Inflow 1 and mean service times 0.1, 0.6, 0.1, 0.6 put both station
    loads at 0.7, yet the mass of the fluid model grows without bound.
    """
    mu = 1.0 / np.array([0.1, 0.6, 0.1, 0.6])
    routing = np.zeros((4, 4))
    routing[0, 1] = routing[1, 2] = routing[2, 3] = 1.0
    constituency = [[1, 0, 0, 1], [0, 1, 1, 0]]
    # ranks: class 3 before class 0 at station 0, class 1 before class 2 at station 1
    priority = (1, 2, 3, 0)
    return validate([1.0, 0, 0, 0], mu, routing, constituency, PRIORITY, priority=priority)


def stable_fixture_set() -> dict[str, NetworkSpec]:
    """The five stable networks exercised by the verification suite."""
    return {
        "single_queue": single_queue(),
        "tandem": tandem(),
        "two_station_work_conserving": two_station_work_conserving(),
        "two_class_priority": two_class_priority(),
        "reentrant_line": reentrant_line(),
    }


# ---------------------------------------------------------------------------
# reflected-drift instances


def lsp_one_dimensional() -> LspInstance:
    return LspInstance([-1.0], [[1.0]], [1.0])


def lsp_decoupled() -> LspInstance:
    return LspInstance([-1.0, -2.0], np.eye(2), [1.0, 1.0])


def lsp_chattering() -> LspInstance:
    """A coupled instance whose minimal-push selection chatters at the boundary.

    Pushing the cheap second component lifts it off the boundary while the
    first slides, and the drift pulls it straight back, so the discrete
    complementarity residual scales linearly with the step size.
    """
    return LspInstance([-1.0, -0.2], [[0.1, 0.8], [-0.5, 1.0]], [1.0, 0.5])


# ---------------------------------------------------------------------------
# queueing variants


def queueing_single_deterministic() -> QueueingSpec:
    """No arrivals, deterministic unit service: an exact staircase drain."""
    return QueueingSpec(single_queue(0.0, 1.0), "none", DETERMINISTIC)


def queueing_two_class_priority() -> QueueingSpec:
    """Exponential primitives over the stable two-class priority network."""
    return QueueingSpec(two_class_priority(), EXPONENTIAL, EXPONENTIAL)
