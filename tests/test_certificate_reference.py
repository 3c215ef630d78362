"""Differential tests of the certificate checks against the vertex lists they replaced.

``lyapunov`` takes each configuration's worst drift from the per-station
options (``model.station_options``) and searches linear certificates with an
LP of K + J + 1 variables.  The references here are the computations that
this replaced, all built on ``model.admissible_polytope``: the certificate LP
with one row per vertex of the all-empty polytope off the origin, and the
argmax over each boundary configuration's (piecewise-linear) and each
corner's (quadratic) vertex velocities.

The networks are the fixtures, the certificate oracle's 200 random networks
and the 120 benchmark catalogue networks.  Every status must agree, and every
epsilon or Falsified derivative within 1e-12 relative (on a scale of at
least 1); a Verified h must satisfy each reference vertex row within 1e-9,
and a Falsified witness control must be a vertex of its configuration's
polytope that attains the worst derivative there.
"""
import json
import os

import numpy as np
import pytest

from fluidnet import fixtures, lyapunov, model
from fluidnet._util import linprog
from fluidnet.lyapunov import linear_certificate_search, piecewise_linear_check, quadratic_check
from fluidnet.model import (
    WORK_CONSERVING,
    admissible_constraints,
    admissible_polytope,
    boundary_configurations,
    empty_rows,
    validate,
)
from test_certificate_oracle import SEED, networks
from test_drift_set import all_empty, reference_epsilon

CATALOGUE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "scaled_catalogue.json")
RTOL = 1e-12


def velocities(spec, verts):
    return verts @ (-spec.outflow.T) + spec.alpha


def reference_piecewise(spec, h_mat, epsilon=1e-6):
    """(status, epsilon, worst derivative or None) by the argmax over each
    configuration's vertex velocities, with the same feasibility LPs."""
    margin = np.inf
    for empty in boundary_configurations(spec):
        piece_derivs = h_mat @ velocities(spec, admissible_polytope(spec, empty)).T
        zero = {k for row in empty for k in spec.members[row]}
        bounds = [(0.0, 0.0 if k in zero else None) for k in range(spec.K)]
        for j, derivs in enumerate(piece_derivs):
            if -derivs.max() >= margin:
                continue
            res = linprog(np.zeros(spec.K), A_ub=h_mat - h_mat[j], b_ub=np.zeros(len(h_mat)),
                          A_eq=np.ones((1, spec.K)), b_eq=[1.0], bounds=bounds)
            if res.status != 2:
                margin = float(-derivs.max())
    return verdict(margin, epsilon)


def reference_quadratic(spec, a, epsilon=1e-6):
    """(status, epsilon, worst derivative or None) by the argmax over each
    corner's vertex velocities; the candidates here are copositive."""
    margin = np.inf
    for k in range(spec.K):
        verts = admissible_polytope(spec, empty_rows(spec, set(range(spec.K)) - {k}))
        margin = min(margin, float(-(2.0 * velocities(spec, verts) @ a[k]).max()))
    return verdict(margin, epsilon)


def verdict(margin, epsilon):
    if margin >= epsilon:
        return "Verified", margin, None
    if margin < -1e-12:
        return "Falsified", 0.0, -margin
    return "Unknown", max(margin, 0.0), -margin


def catalogue_networks():
    with open(CATALOGUE) as handle:
        entries = json.load(handle)["networks"]
    return [validate(e["alpha"], e["mu"], e["routing"], e["constituency"], e["discipline"],
                     e["priority"]) for e in entries]


def corpus():
    fixture_specs = {**fixtures.stable_fixture_set(), "lu_kumar": fixtures.lu_kumar(),
                     "overloaded_queue": fixtures.overloaded_queue()}
    yield from fixture_specs.items()
    for i, spec in enumerate(networks(np.random.default_rng(SEED))):
        yield f"oracle-{i}", spec
    for i, spec in enumerate(catalogue_networks()):
        yield f"catalogue-{i}", spec


CORPUS = list(corpus())
BLOCKS = {
    "fixtures": CORPUS[:7],
    **{f"oracle-{b}": CORPUS[7 + 50 * b:57 + 50 * b] for b in range(4)},
    **{f"catalogue-{b}": CORPUS[207 + 40 * b:247 + 40 * b] for b in range(3)},
}


def close(got, want):
    return abs(got - want) <= RTOL * max(1.0, abs(want))


def candidates(spec, h, seed):
    """Two pieces around the linear certificate's h (ones without one), and
    I + 0.1 and diag(h) + 0.1 as quadratic candidates."""
    base = np.ones(spec.K) if h is None else np.asarray(h)
    pieces = base * np.random.default_rng(seed).uniform(0.5, 1.5, (2, spec.K))
    return pieces, [np.eye(spec.K) + 0.1, np.diag(base) + 0.1]


def assert_witness_attains_the_worst(spec, cert, w, configurations):
    """The witness control is a vertex of one of ``configurations``' polytopes
    whose largest w . v it attains, and that value is the witness derivative."""
    u = np.asarray(cert.witness["control"])
    for empty in configurations:
        verts = admissible_polytope(spec, empty)
        if any(np.array_equal(u, vert) for vert in verts):
            worst = float((velocities(spec, verts) @ w).max())
            derivative = cert.witness["derivative"]
            if close(derivative, worst) and close(float(velocities(spec, u) @ w), worst):
                return
    raise AssertionError(f"witness {cert.witness} attains no configuration's worst drift")


@pytest.mark.parametrize("block", sorted(BLOCKS))
def test_checks_agree_with_the_vertex_lists(block):
    for i, (name, spec) in enumerate(BLOCKS[block]):
        drifts = velocities(spec, admissible_polytope(spec, all_empty(spec))[1:])
        want_epsilon = reference_epsilon(drifts)
        linear = linear_certificate_search(spec)
        assert linear.status == ("Unknown" if want_epsilon is None else "Verified"), name
        if want_epsilon is not None:
            assert close(linear.epsilon, want_epsilon), name
            assert (drifts @ np.asarray(linear.data["h"])).max() <= -linear.epsilon + 1e-9, name

        pieces, matrices = candidates(spec, linear.data["h"], i)
        checks = [("piecewise_linear", piecewise_linear_check(spec, pieces),
                   reference_piecewise(spec, pieces))]
        checks += [("quadratic", quadratic_check(spec, a), reference_quadratic(spec, a))
                   for a in matrices]
        for kind, cert, (status, epsilon, derivative) in checks:
            assert cert.status == status, (name, kind)
            assert close(cert.epsilon, epsilon), (name, kind)
            if cert.witness is not None:
                assert close(cert.witness["derivative"], derivative), (name, kind)
            if cert.status != "Falsified":
                continue
            x = np.asarray(cert.witness["state"])
            if kind == "quadratic":
                k = int(np.argmax(x))
                a = np.asarray(cert.data["A"])
                corner = empty_rows(spec, set(range(spec.K)) - {k})
                assert_witness_attains_the_worst(spec, cert, 2.0 * a[k], [corner])
            else:
                on_face = [empty for empty in boundary_configurations(spec)
                           if not x[[k for row in empty for k in spec.members[row]]].any()]
                w = pieces[cert.witness["piece"]]
                assert_witness_attains_the_worst(spec, cert, w, on_face)


def test_the_corpus_reaches_every_status():
    """Guard against a corpus on which the differential compares little: both
    references verify and falsify within the fixtures and the first oracle block."""
    statuses = set()
    for i, (_, spec) in enumerate(CORPUS[:57]):
        pieces, matrices = candidates(spec, linear_certificate_search(spec).data["h"], i)
        statuses.add(("piecewise_linear", reference_piecewise(spec, pieces)[0]))
        statuses.update(("quadratic", reference_quadratic(spec, a)[0]) for a in matrices)
    assert {(kind, status) for kind in ("piecewise_linear", "quadratic")
            for status in ("Verified", "Falsified")} <= statuses


def test_linear_certificate_past_the_vertex_cap():
    """17 single-class stations: 2^17 vertices, which ``admissible_polytope``
    refuses.  Each proper configuration's polytope lies in that of a
    configuration with a single busy row (emptying a row only relaxes it), so
    one LP per such configuration bounds h . v over all of them."""
    k = 17
    spec = validate(np.full(k, 0.01), np.ones(k), np.zeros((k, k)), np.eye(k), WORK_CONSERVING)
    cert = linear_certificate_search(spec)
    assert cert.status == "Verified"
    h = np.asarray(cert.data["h"])
    c = spec.outflow.T @ h  # h . v = h . alpha - c . u
    for busy in range(spec.capacity.shape[0]):
        a_eq, b_eq, a_ub, b_ub = admissible_constraints(spec, all_empty(spec) - {busy})
        res = linprog(c, A_eq=a_eq, b_eq=b_eq, A_ub=a_ub, b_ub=b_ub,
                      bounds=[(None, None)] * spec.K)
        assert res.success
        assert h @ spec.alpha - res.fun <= -cert.epsilon + 1e-9, busy


@pytest.mark.parametrize("spec", [fixtures.tandem(), fixtures.lu_kumar()],
                         ids=["tandem", "lu_kumar"])
def test_no_check_builds_a_vertex_list(monkeypatch, spec):
    calls = []
    real = model.admissible_polytope

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (model, lyapunov):  # lyapunov binds the name only if it imports it
        monkeypatch.setattr(module, "admissible_polytope", counting, raising=False)
    linear_certificate_search(spec)
    piecewise_linear_check(spec, np.eye(spec.K) + 0.1)
    quadratic_check(spec, np.eye(spec.K) + 0.1)
    assert calls == []
