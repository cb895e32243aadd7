import numpy as np
import pytest
from hypothesis import settings

from rissim import ArrayGeometry, GainProfile, Pose, default_element_table

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

CARRIER_HZ = 27.0e9


@pytest.fixture
def panel16():
    return ArrayGeometry(16, 16)


@pytest.fixture
def table():
    return default_element_table()


@pytest.fixture
def desk_gains():
    return GainProfile(22.7, 9.2, 5.0, 5.0)


@pytest.fixture
def tx_far():
    return Pose.from_spherical(2.6, 0.0, 0.0)


@pytest.fixture
def rx_near():
    return Pose.from_spherical(0.05, 0.0, 0.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
