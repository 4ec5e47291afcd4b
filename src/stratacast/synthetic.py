"""Deterministic seasonal toy-climate generator.

Each cell carries a phase-shifted seasonal sinusoid, a monthly regime pattern
(12 orthogonalized spatial patterns, one per calendar month) and an AR(1)
anomaly process. Everything is reproducible from the config seed, and the
monthly regime structure makes month-uniform subset coverage measurably
informative at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import (INTEGER, NUMBER, NUMBERS, DatasetError, GriddedDataset, GridSpec, Rule,
                      at_least, check_object, hours_delta, month_index)

N_REGIMES = 12  # one regime pattern per calendar month


@dataclass(frozen=True)
class SyntheticConfig:
    grid: GridSpec
    n_years: int
    stride_hours: int
    seasonal_amplitude: float
    regime_amplitude: float
    ar1_coefficient: float
    noise_std: float
    seed: int
    n_variables: int = 1
    start_year: int = 2000

    def __post_init__(self):
        fields = {key: getattr(self, key) for key in _FIELD_KEYS}
        check_object(fields, _FIELD_KEYS, "synthetic config", DatasetError)
        if self.start_year + self.n_years - 1 > _LAST_YEAR:
            raise DatasetError(f"synthetic config key 'start_year' {self.start_year} with n_years "
                               f"{self.n_years} runs past year {_LAST_YEAR}")
        if self.grid.n_cells < N_REGIMES:
            raise DatasetError(f"grid too small to orthogonalize {N_REGIMES} regime patterns")

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticConfig":
        """A config from JSON keys: ``lats`` and ``lons`` give the grid, and
        every other key is a field. A missing or unknown key, or one of the
        wrong type or out of range, raises DatasetError naming it."""
        s = check_object(d, _KEYS, "synthetic config", DatasetError)
        grid = GridSpec(np.asarray(s.pop("lats")), np.asarray(s.pop("lons")))
        return cls(grid=grid, **s)


# The years that ``datetime`` holds.
_LAST_YEAR = 9999
_YEAR = Rule(lambda v: INTEGER.ok(v) and 1 <= v <= _LAST_YEAR, f"an integer in 1..{_LAST_YEAR}")
# Every field but the grid, with the rule its value must pass and whether it
# is required. Integer fields are JSON integers: ``2.0`` is refused.
_FIELD_KEYS = {
    "n_years": (at_least(INTEGER, 1), True), "stride_hours": (at_least(INTEGER, 1), True),
    "seasonal_amplitude": (NUMBER, True), "regime_amplitude": (NUMBER, True),
    "ar1_coefficient": (Rule(lambda v: NUMBER.ok(v) and 0 <= v < 1, "a number in [0, 1)"), True),
    "noise_std": (at_least(NUMBER, 0), True), "seed": (at_least(INTEGER, 0), True),
    "n_variables": (at_least(INTEGER, 1), False), "start_year": (_YEAR, False)}
_KEYS = {"lats": (NUMBERS, True), "lons": (NUMBERS, True), **_FIELD_KEYS}


def _timestamps(cfg: SyntheticConfig) -> np.ndarray:
    """Every stride from 1 January of ``start_year`` up to, excluding, 1 January
    ``n_years`` later."""
    start = np.datetime64(cfg.start_year - 1970, "Y")
    return np.arange(start, start + cfg.n_years, hours_delta(cfg.stride_hours))


def cell_phases(cfg: SyntheticConfig, var: int) -> np.ndarray:
    """Fixed per-cell seasonal phase in [0, 2pi), flat over the grid."""
    rng = np.random.default_rng([cfg.seed, var, 0])
    return rng.uniform(0.0, 2.0 * math.pi, size=cfg.grid.n_cells)

def regime_patterns(cfg: SyntheticConfig, var: int) -> np.ndarray:
    """12 x n_cells monthly patterns, Gram-Schmidt orthogonal, unit RMS per cell."""
    rng = np.random.default_rng([cfg.seed, var, 1])
    raw = rng.standard_normal((N_REGIMES, cfg.grid.n_cells))
    out = np.empty_like(raw)
    for i in range(N_REGIMES):
        p = raw[i]
        for j in range(i):
            p = p - (p @ out[j]) / (out[j] @ out[j]) * out[j]
        norm = np.linalg.norm(p)
        if norm == 0.0:
            raise DatasetError("degenerate regime pattern draw")
        # scale so per-cell mean square is 1, keeping regime_amplitude meaningful
        out[i] = p / norm * math.sqrt(cfg.grid.n_cells)
    return out


def day_of_year(ts) -> np.ndarray:
    """Fractional days since the start of each timestamp's year."""
    ts = np.asarray(ts, dtype="datetime64[us]")
    return (ts - ts.astype("datetime64[Y]")) / np.timedelta64(1, "s") / 86400.0


# Float64 values per variable that one time chunk of ``generate`` holds in
# each of its temporaries.
_CHUNK_VALUES = 1 << 17


def generate(cfg: SyntheticConfig) -> GriddedDataset:
    """Generate the toy-climate dataset; bitwise reproducible from cfg.seed.

    Each variable is built in fixed-size time chunks (seasonal term, regime
    term and AR(1) anomaly, with the AR state carried from chunk to chunk)
    and written to the float32 array as it goes, so the float64 temporaries
    are chunk-sized. The values are bit for bit those of building each term
    over the whole series: the random draws and every floating-point
    operation keep their order.
    """
    timestamps = _timestamps(cfg)
    n_t = len(timestamps)
    n_cells = cfg.grid.n_cells
    months = month_index(timestamps)
    angles = 2.0 * math.pi * day_of_year(timestamps) / 365.25
    data = np.empty((n_t, cfg.n_variables, cfg.grid.n_lat, cfg.grid.n_lon), dtype=np.float32)
    chunk = max(_CHUNK_VALUES // n_cells, 1)

    for var in range(cfg.n_variables):
        phases = cell_phases(cfg, var)
        patterns = regime_patterns(cfg, var)
        noise_rng = np.random.default_rng([cfg.seed, var, 2])
        prev = np.zeros(n_cells)
        for start in range(0, n_t, chunk):
            stop = min(start + chunk, n_t)
            fields = cfg.seasonal_amplitude * np.sin(angles[start:stop, None] + phases)
            fields += cfg.regime_amplitude * patterns[months[start:stop]]
            anom = noise_rng.standard_normal((stop - start, n_cells))
            anom *= cfg.noise_std
            for row in anom:  # row = ar1 * prev + eps
                row += cfg.ar1_coefficient * prev
                prev = row
            fields += anom
            data[start:stop, var] = fields.reshape(stop - start, cfg.grid.n_lat, cfg.grid.n_lon)

    return GriddedDataset(
        grid=cfg.grid,
        variables=[f"synthetic_{k}" for k in range(cfg.n_variables)],
        timestamps=timestamps,
        data=data,
    )
