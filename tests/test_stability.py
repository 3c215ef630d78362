import numpy as np
import pytest

from fluidnet import fixtures
from fluidnet._util import child_seeds, rng_from
from fluidnet.errors import BadCount, BadSeed
from fluidnet.stability import (
    Verdict,
    draining_time,
    instability_witness,
    scale_invariance_check,
    unit_sphere_states,
)


def mass(traj):
    return np.abs(traj.levels).sum(axis=1)


class TestDrainingTime:
    def test_pure_drain(self):
        verdict = draining_time(fixtures.single_queue(0.0, 1.0), samples=4, horizon=10.0)
        assert verdict.status == "stable"
        assert verdict.tau == pytest.approx(1.0, abs=1e-9)

    def test_half_loaded(self, single_queue):
        verdict = draining_time(single_queue, samples=4, horizon=10.0)
        assert verdict.status == "stable"
        assert verdict.tau == pytest.approx(2.0, abs=1e-9)

    def test_overloaded_unstable(self, overloaded_queue):
        verdict = draining_time(overloaded_queue, samples=4, horizon=10.0)
        assert verdict.status == "unstable"
        assert verdict.witness is not None
        assert mass(verdict.witness).min() >= 1.0 - 1e-6

    def test_stable_and_unstable_exclusive(self):
        for make in [fixtures.single_queue, fixtures.overloaded_queue]:
            verdict = draining_time(make(), samples=4, horizon=10.0)
            assert (verdict.tau is None) != (verdict.status == "stable")
            assert (verdict.witness is None) == (verdict.status != "unstable")

    def test_deterministic(self, tandem):
        a = draining_time(tandem, samples=6, horizon=15.0, seed=9)
        b = draining_time(tandem, samples=6, horizon=15.0, seed=9)
        assert a.status == b.status
        assert a.tau == b.tau
        assert a.evidence == b.evidence

    def test_evidence_recorded(self, tandem):
        verdict = draining_time(tandem, samples=5, horizon=15.0, seed=3)
        assert verdict.evidence["starts"] == tandem.K + 5
        assert verdict.evidence["seed"] == 3


class TestInstabilityWitness:
    def test_overloaded_found(self, overloaded_queue):
        witness = instability_witness(overloaded_queue, horizon=10.0)
        assert witness is not None
        assert mass(witness).min() >= 1.0 - 1e-6

    def test_stable_not_found(self, single_queue):
        assert instability_witness(single_queue, horizon=15.0) is None

    def test_lu_kumar_cycle(self, lu_kumar):
        witness = instability_witness(lu_kumar, horizon=50.0, h=0.01, samples=0,
                                      multistarts=0)
        assert witness is not None
        m = mass(witness)
        assert m.min() >= 1.0 - 1e-6
        assert m[-1] >= 5.0

    def test_lu_kumar_loads_below_one(self, lu_kumar):
        assert np.all(lu_kumar.traffic_intensity() < 1.0)


class TestScaleInvariance:
    def test_drain_time_scales(self, single_queue):
        verdict = draining_time(single_queue, samples=2, horizon=10.0)
        report = scale_invariance_check(verdict, single_queue, [1.0, 2.0])
        assert report["ok"]
        doubled = [r for r in report["rows"] if r["r"] == 2.0][0]
        assert doubled["tau_scaled"] == pytest.approx(2 * doubled["tau"], abs=0.02)

    def test_tandem_halving(self, tandem):
        verdict = draining_time(tandem, samples=2, horizon=15.0)
        report = scale_invariance_check(verdict, tandem, [0.5, 1.0])
        assert report["ok"]

    def test_requires_stable(self, overloaded_queue):
        verdict = draining_time(overloaded_queue, samples=2, horizon=5.0)
        with pytest.raises(ValueError):
            scale_invariance_check(verdict, overloaded_queue, [2.0])


def test_unit_sphere_states():
    states = unit_sphere_states(3, 10, seed=0)
    assert states.shape == (13, 3)
    assert np.allclose(states.sum(axis=1), 1.0)
    assert states.min() >= 0.0


def test_verdict_report_shape(single_queue):
    verdict = draining_time(single_queue, samples=2, horizon=10.0)
    report = verdict.to_report()
    assert report["status"] == "stable"
    assert isinstance(report["tau"], float)


def test_negative_samples_rejected(tandem):
    with pytest.raises(BadCount, match="samples must be nonnegative"):
        draining_time(tandem, samples=-1, horizon=5.0, h=0.05, seed=1)
    with pytest.raises(BadCount):
        instability_witness(tandem, samples=-1, horizon=5.0, h=0.05)


def test_negative_seed_rejected(tandem):
    with pytest.raises(BadSeed, match="seed must be nonnegative"):
        draining_time(tandem, samples=2, horizon=5.0, h=0.05, seed=-1)
    with pytest.raises(BadSeed):
        rng_from(-1)
    with pytest.raises(BadSeed):
        child_seeds(-1, 2)
    with pytest.raises(BadCount):
        child_seeds(1, -1)


@pytest.mark.parametrize("name", ["samples", "multistarts"])
def test_instability_witness_names_its_bad_count(tandem, name):
    with pytest.raises(BadCount, match=f"{name} must be nonnegative"):
        instability_witness(tandem, **{name: -1}, horizon=5.0, h=0.05)
