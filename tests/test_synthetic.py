import dataclasses
import math
import tracemalloc
from datetime import datetime

import numpy as np
import pytest

from stratacast import synthetic
from stratacast.dataset import DatasetError, GridSpec
from stratacast.synthetic import (
    SyntheticConfig,
    cell_phases,
    day_of_year,
    generate,
    regime_patterns,
)


def cfg_with(base, **kw):
    return dataclasses.replace(base, **kw)


def test_determinism_same_seed(toy_config):
    a = generate(toy_config)
    b = generate(toy_config)
    assert a.data.tobytes() == b.data.tobytes()


def test_different_seeds_differ(toy_config):
    a = generate(toy_config)
    b = generate(cfg_with(toy_config, seed=toy_config.seed + 1))
    assert a.data.tobytes() != b.data.tobytes()


def test_noise_free_pure_sinusoid(small_grid):
    cfg = SyntheticConfig(
        grid=small_grid, n_years=1, stride_hours=24, seasonal_amplitude=3.0,
        regime_amplitude=0.0, ar1_coefficient=0.0, noise_std=0.0, seed=5,
    )
    ds = generate(cfg)
    phases = cell_phases(cfg, 0)
    for ti in (0, 100, 300):
        angle = 2 * math.pi * day_of_year(ds.timestamps[ti]) / 365.25
        expected = 3.0 * np.sin(angle + phases)
        np.testing.assert_allclose(ds.data[ti, 0].ravel(), expected, atol=1e-5)


def test_regime_patterns_orthogonal(toy_config):
    p = regime_patterns(toy_config, 0)
    gram = p @ p.T
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() < 1e-8


def test_monthly_climatology_recovers_regimes(small_grid):
    cfg = SyntheticConfig(
        grid=small_grid, n_years=20, stride_hours=24, seasonal_amplitude=1.0,
        regime_amplitude=2.0, ar1_coefficient=0.0, noise_std=0.5, seed=11,
    )
    ds = generate(cfg)
    phases = cell_phases(cfg, 0)
    patterns = regime_patterns(cfg, 0)
    months = ds.months()
    for month in (1, 4, 8, 12):
        sel = np.nonzero(months == month)[0]
        est = ds.data[sel, 0].astype(np.float64).reshape(sel.size, -1).mean(axis=0)
        angles = np.array(
            [2 * math.pi * day_of_year(ds.timestamps[i]) / 365.25 for i in sel]
        )
        seasonal = (cfg.seasonal_amplitude * np.sin(angles[:, None] + phases)).mean(axis=0)
        expected = seasonal + cfg.regime_amplitude * patterns[month - 1]
        se = cfg.noise_std / math.sqrt(sel.size)
        assert np.abs(est - expected).max() < 3 * se + 1e-3


@pytest.mark.parametrize("ar1", [0.0, 0.9])
def test_anomaly_lag1_autocorrelation(small_grid, ar1):
    cfg = SyntheticConfig(
        grid=small_grid, n_years=8, stride_hours=6, seasonal_amplitude=0.0,
        regime_amplitude=0.0, ar1_coefficient=ar1, noise_std=1.0, seed=21,
    )
    ds = generate(cfg)
    x = ds.data[:, 0].astype(np.float64).reshape(ds.n_times, -1)
    assert x.shape[0] >= 10_000
    a = x[:-1] - x[:-1].mean(axis=0)
    b = x[1:] - x[1:].mean(axis=0)
    corr = (a * b).sum(axis=0) / np.sqrt((a * a).sum(axis=0) * (b * b).sum(axis=0))
    assert abs(corr.mean() - ar1) < 0.05


def test_config_validation(small_grid):
    with pytest.raises(DatasetError):
        SyntheticConfig(
            grid=small_grid, n_years=1, stride_hours=6, seasonal_amplitude=1.0,
            regime_amplitude=1.0, ar1_coefficient=1.0, noise_std=1.0, seed=0,
        )
    with pytest.raises(DatasetError):
        SyntheticConfig(
            grid=small_grid, n_years=0, stride_hours=6, seasonal_amplitude=1.0,
            regime_amplitude=1.0, ar1_coefficient=0.5, noise_std=1.0, seed=0,
        )
    with pytest.raises(DatasetError, match="stride_hours"):
        SyntheticConfig(
            grid=small_grid, n_years=1, stride_hours=0, seasonal_amplitude=1.0,
            regime_amplitude=1.0, ar1_coefficient=0.5, noise_std=1.0, seed=0,
        )


@pytest.mark.parametrize("key, value, what", [
    ("n_years", "2", "an integer"),
    ("n_years", 1.5, "an integer"),
    ("seed", True, "an integer"),
    ("noise_std", "0.4", "a finite number"),
    ("regime_amplitude", float("nan"), "a finite number"),
])
def test_field_types_checked(toy_config, key, value, what):
    with pytest.raises(DatasetError, match=f"synthetic config key {key!r} must be {what}"):
        dataclasses.replace(toy_config, **{key: value})


def test_grid_needs_a_cell_per_regime():
    grid = GridSpec(np.array([0.0]), np.linspace(0.0, 300.0, synthetic.N_REGIMES - 1))
    with pytest.raises(DatasetError, match="grid too small"):
        SyntheticConfig(grid=grid, n_years=1, stride_hours=24, seasonal_amplitude=1.0,
                        regime_amplitude=1.0, ar1_coefficient=0.5, noise_std=1.0, seed=0)


def _reference_fields(cfg):
    """The generator's fields built over the whole series at once: the loop
    of the unchunked ``generate``, kept verbatim as the oracle, with its
    ``datetime`` month and day-of-year arithmetic."""
    timestamps = synthetic._timestamps(cfg).tolist()
    n_t = len(timestamps)
    n_cells = cfg.grid.n_cells
    months = np.array([t.month for t in timestamps]) - 1
    data = np.empty((n_t, cfg.n_variables, cfg.grid.n_lat, cfg.grid.n_lon), dtype=np.float32)

    for var in range(cfg.n_variables):
        phases = cell_phases(cfg, var)
        patterns = regime_patterns(cfg, var)
        days = [(t - datetime(t.year, 1, 1)).total_seconds() / 86400.0 for t in timestamps]
        angles = 2.0 * math.pi * np.array(days) / 365.25
        seasonal = cfg.seasonal_amplitude * np.sin(angles[:, None] + phases[None, :])
        regime = cfg.regime_amplitude * patterns[months]

        noise_rng = np.random.default_rng([cfg.seed, var, 2])
        anom = np.zeros((n_t, n_cells))
        prev = np.zeros(n_cells)
        for ti in range(n_t):
            eps = noise_rng.standard_normal(n_cells) * cfg.noise_std
            prev = cfg.ar1_coefficient * prev + eps
            anom[ti] = prev

        fields = seasonal + regime + anom
        data[:, var] = fields.reshape(n_t, cfg.grid.n_lat, cfg.grid.n_lon).astype(np.float32)
    return data


class TestChunkedGenerate:
    # (stride hours, chunk steps or None for the default, variables) on a
    # one-year (366-step daily) archive of the 32-cell small grid
    @pytest.mark.parametrize("stride, chunk_steps, n_var", [
        (24, None, 1),    # fewer steps than one chunk
        (24, 61, 1),      # exactly 6 chunks
        (24, 365, 1),     # one chunk and one step
        (1, None, 1),     # hourly: two full default chunks and a partial one
        (24, 100, 2),     # 2 variables, partial last chunk
    ])
    def test_bitwise_equal_to_whole_series(self, small_grid, monkeypatch,
                                           stride, chunk_steps, n_var):
        if chunk_steps is not None:
            monkeypatch.setattr(synthetic, "_CHUNK_VALUES", chunk_steps * small_grid.n_cells)
        cfg = SyntheticConfig(
            grid=small_grid, n_years=1, stride_hours=stride, seasonal_amplitude=2.0,
            regime_amplitude=1.5, ar1_coefficient=0.7, noise_std=0.5, seed=3,
            n_variables=n_var,
        )
        data = generate(cfg).data
        assert data.shape[0] == 366 * 24 // stride
        assert data.tobytes() == _reference_fields(cfg).tobytes()

    def test_desk_archive_peak_under_two_archives(self):
        # 8 years of a 16 x 32 x 2 grid: 12 MB of float32; whole-series
        # float64 temporaries would trace about 7 archives
        grid = GridSpec(np.linspace(-75, 75, 16), np.linspace(0, 348.75, 32))
        cfg = SyntheticConfig(
            grid=grid, n_years=8, stride_hours=24, seasonal_amplitude=2.0,
            regime_amplitude=2.5, ar1_coefficient=0.3, noise_std=0.4, seed=0,
            n_variables=2,
        )
        tracemalloc.start()
        try:
            ds = generate(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * ds.data.nbytes
