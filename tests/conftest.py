import numpy as np
import pytest
from hypothesis import settings

from stratacast.dataset import GridSpec
from stratacast.synthetic import SyntheticConfig, generate

# Property tests draw the same examples on every run.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def small_grid():
    return GridSpec(np.linspace(-60, 60, 4), np.linspace(0, 315, 8))


@pytest.fixture(scope="session")
def toy_config(small_grid):
    return SyntheticConfig(
        grid=small_grid,
        n_years=2,
        stride_hours=6,
        seasonal_amplitude=2.0,
        regime_amplitude=1.5,
        ar1_coefficient=0.5,
        noise_std=0.5,
        seed=42,
        n_variables=2,
        start_year=2000,
    )


@pytest.fixture(scope="session")
def toy_dataset(toy_config):
    return generate(toy_config)
