import numpy as np
import pytest

import latdir as ld
from latdir.diophantine import CBRT2, CBRT4


@pytest.fixture
def regular8():
    # eight exactly dyadic directions: the T=1.5 unit-lattice annulus set
    return ld.DirectionSet(np.arange(8) / 8.0, 1.5, ld.Annulus(0.0))


@pytest.fixture(scope="session")
def cbrt_lat():
    return ld.AffineLatticeSpec(ld.Mat2.identity(), (CBRT4, CBRT2))


@pytest.fixture(scope="session")
def dirs_500(cbrt_lat):
    return ld.direction_set(cbrt_lat, ld.Annulus(0.0), 500.0)


@pytest.fixture(scope="session")
def dirs_1000(cbrt_lat):
    return ld.direction_set(cbrt_lat, ld.Annulus(0.0), 1000.0)


@pytest.fixture(scope="session")
def dirs_2000(cbrt_lat):
    return ld.direction_set(cbrt_lat, ld.Annulus(0.0), 2000.0)


@pytest.fixture(scope="session")
def dirs_square_1000(cbrt_lat):
    return ld.direction_set(cbrt_lat, ld.Square(), 1000.0)


@pytest.fixture(scope="session")
def irr_million():
    rng = np.random.default_rng(1)
    return ld.sample_count_distribution(0.0, "irrational", [(0.0, 1.0)], 10**6, rng)


@pytest.fixture(scope="session")
def int_million():
    rng = np.random.default_rng(500001)
    return ld.sample_count_distribution(0.0, "integer", [(0.0, 1.0)], 10**6, rng)
