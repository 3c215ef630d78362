import numpy as np
import pytest
from hypothesis import settings

from fluidnet import fixtures

# Every property test draws the same examples on every run, so tier-1 is as
# reproducible as the reports it checks.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def single_queue():
    return fixtures.single_queue()


@pytest.fixture
def draining_queue():
    return fixtures.single_queue(0.0, 1.0)


@pytest.fixture
def overloaded_queue():
    return fixtures.overloaded_queue()


@pytest.fixture
def tandem():
    return fixtures.tandem()


@pytest.fixture
def two_class_priority():
    return fixtures.two_class_priority()


@pytest.fixture
def lu_kumar():
    return fixtures.lu_kumar()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
