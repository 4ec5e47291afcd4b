"""Gridded spatiotemporal data model: file format, preprocessing, splits.

The on-disk container is a minimal binary tensor file ("FTEN"): magic bytes,
a version word, four little-endian u32 dims (time, var, lat, lon) and a flat
little-endian f32 payload in [time][var][lat][lon] order. A JSON sidecar
``<name>.meta.json`` carries timestamps, variable names, grid coordinates
and paths to static fields.
"""

from __future__ import annotations

import json
import re
import struct
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

MAGIC = b"FTEN"
FORMAT_VERSION = 1

KNOWN_VARIABLES = {"z500", "t850", "t2m", "u10", "v10", "ws10"}
_SYNTH_RE = re.compile(r"^synthetic_\d+$")


class DatasetError(ValueError):
    """Raised for malformed files, invalid dimensions or invariant violations."""


def validate_variable_name(name: str) -> str:
    if name in KNOWN_VARIABLES or _SYNTH_RE.match(name):
        return name
    raise DatasetError(f"unknown variable name: {name!r}")


@dataclass(frozen=True)
class GridSpec:
    """Lat-lon grid axes in degrees; both must be strictly monotone."""

    lats: np.ndarray
    lons: np.ndarray

    def __post_init__(self):
        lats = np.asarray(self.lats, dtype=np.float64)
        lons = np.asarray(self.lons, dtype=np.float64)
        object.__setattr__(self, "lats", lats)
        object.__setattr__(self, "lons", lons)
        if lats.ndim != 1 or lats.size < 1 or lons.ndim != 1 or lons.size < 1:
            raise DatasetError("grid axes must be non-empty 1-D arrays")
        if np.any(np.abs(lats) > 90.0):
            raise DatasetError("latitudes must lie in [-90, 90]")
        if np.any(lons >= 360.0) or np.any(lons < -180.0):
            raise DatasetError("longitudes must lie in [0, 360) or [-180, 180)")
        for ax, name in ((lats, "lats"), (lons, "lons")):
            d = np.diff(ax)
            if ax.size > 1 and not (np.all(d > 0) or np.all(d < 0)):
                raise DatasetError(f"{name} must be strictly monotone")

    @property
    def n_lat(self) -> int:
        return self.lats.size

    @property
    def n_lon(self) -> int:
        return self.lons.size

    @property
    def n_cells(self) -> int:
        return self.n_lat * self.n_lon


@dataclass
class GriddedDataset:
    """Time-indexed multi-variable fields on a lat-lon grid plus static fields.

    ``data`` has shape [time, variable, lat, lon]; timestamps are strictly
    increasing at a constant stride. Instances are treated as immutable after
    construction and may be shared across workers.
    """

    grid: GridSpec
    variables: list[str]
    timestamps: list[datetime]
    data: np.ndarray
    static_fields: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.shape != (
            len(self.timestamps),
            len(self.variables),
            self.grid.n_lat,
            self.grid.n_lon,
        ):
            raise DatasetError(
                f"data shape {self.data.shape} does not match "
                f"(time={len(self.timestamps)}, var={len(self.variables)}, "
                f"lat={self.grid.n_lat}, lon={self.grid.n_lon})"
            )
        for name in self.variables:
            validate_variable_name(name)
        if len(self.timestamps) > 1:
            deltas = {
                (b - a).total_seconds()
                for a, b in zip(self.timestamps[:-1], self.timestamps[1:])
            }
            if len(deltas) != 1 or min(deltas) <= 0:
                raise DatasetError("timestamps must strictly increase at a constant stride")
        bad = ~np.isfinite(self.data)
        if bad.any():
            t, v = np.argwhere(bad)[0][:2]
            raise DatasetError(
                f"non-finite value at time index {t} ({self.timestamps[t]}), "
                f"variable {self.variables[v]!r}"
            )
        for name, f in self.static_fields.items():
            f = np.asarray(f, dtype=np.float32)
            if f.shape != (self.grid.n_lat, self.grid.n_lon):
                raise DatasetError(f"static field {name!r} shape mismatch")
            if not np.isfinite(f).all() or f.min() < 0.0 or f.max() > 1.0:
                raise DatasetError(f"static field {name!r} must lie in [0, 1]")
            self.static_fields[name] = f

    @property
    def n_times(self) -> int:
        return len(self.timestamps)

    @property
    def stride_hours(self) -> float:
        if len(self.timestamps) < 2:
            raise DatasetError("stride undefined for a single-timestep dataset")
        return (self.timestamps[1] - self.timestamps[0]).total_seconds() / 3600.0

    def variable_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise DatasetError(f"variable {name!r} not in dataset") from None

    def slice_time(self, start: int, stop: int) -> "GriddedDataset":
        """View of a contiguous time range [start, stop). Data is not copied."""
        return GriddedDataset(
            grid=self.grid,
            variables=list(self.variables),
            timestamps=self.timestamps[start:stop],
            data=self.data[start:stop],
            static_fields=dict(self.static_fields),
        )

    def months(self) -> np.ndarray:
        """Calendar month (1..12) of every timestamp."""
        return np.array([t.month for t in self.timestamps], dtype=np.int64)


@dataclass(frozen=True)
class StandardizationStats:
    """Per-variable training-split mean and population standard deviation."""

    means: dict[str, float]
    stds: dict[str, float]

    def __post_init__(self):
        for v, s in self.stds.items():
            if not s > 0:
                raise DatasetError(f"non-positive std for variable {v!r}")


@dataclass(frozen=True)
class SplitSpec:
    """Inclusive year ranges for train/val/test; ranges must be disjoint."""

    train_years: tuple[int, int]
    val_years: tuple[int, int] | None = None
    test_years: tuple[int, int] | None = None

    def __post_init__(self):
        ranges = [r for r in (self.train_years, self.val_years, self.test_years) if r]
        for lo, hi in ranges:
            if lo > hi:
                raise DatasetError(f"invalid year range {lo}-{hi}")
        for i, a in enumerate(ranges):
            for b in ranges[i + 1 :]:
                if a[0] <= b[1] and b[0] <= a[1]:
                    raise DatasetError(f"overlapping year ranges {a} and {b}")

    def years_of(self, which: str) -> tuple[int, int]:
        r = getattr(self, f"{which}_years")
        if r is None:
            raise DatasetError(f"split has no {which} years")
        return r


def split_time_indices(ds: GriddedDataset, years: tuple[int, int]) -> np.ndarray:
    lo, hi = years
    return np.array(
        [i for i, t in enumerate(ds.timestamps) if lo <= t.year <= hi], dtype=np.int64
    )


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def save_dataset(ds: GriddedDataset, path: str | Path) -> Path:
    """Write the field-tensor file plus its JSON sidecar; returns the data path."""
    path = Path(path)
    if "ws10" in ds.variables:
        raise DatasetError("ws10 is a derived variable and is never stored raw")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<5I", FORMAT_VERSION, *ds.data.shape))
        f.write(ds.data.astype("<f4").tobytes())
    static = {}
    for name, fld in ds.static_fields.items():
        sp = path.with_name(f"{path.stem}.static.{name}{path.suffix or '.ften'}")
        _write_raw_tensor(sp, fld[np.newaxis, np.newaxis])
        static[name] = sp.name
    meta = {
        "timestamps": [t.isoformat() for t in ds.timestamps],
        "variables": ds.variables,
        "lats": ds.grid.lats.tolist(),
        "lons": ds.grid.lons.tolist(),
        "static": static,
    }
    sidecar = path.with_name(path.name + ".meta.json")
    sidecar.write_text(json.dumps(meta, indent=2))
    return path


def _write_raw_tensor(path: Path, arr: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<5I", FORMAT_VERSION, *arr.shape))
        f.write(np.asarray(arr, dtype="<f4").tobytes())


def _read_raw_tensor(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    if raw[:4] != MAGIC:
        raise DatasetError(f"{path}: bad magic bytes")
    version, nt, nv, nlat, nlon = struct.unpack_from("<5I", raw, 4)
    if version != FORMAT_VERSION:
        raise DatasetError(f"{path}: unsupported format version {version}")
    payload = raw[24:]
    expected = nt * nv * nlat * nlon * 4
    if len(payload) != expected:
        raise DatasetError(
            f"{path}: payload of {len(payload)} bytes does not match header "
            f"dims ({nt}, {nv}, {nlat}, {nlon})"
        )
    return np.frombuffer(payload, dtype="<f4").reshape(nt, nv, nlat, nlon).copy()


def load_dataset(path: str | Path) -> GriddedDataset:
    """Load a field-tensor file and its sidecar into a validated dataset."""
    path = Path(path)
    sidecar = path.with_name(path.name + ".meta.json")
    if not sidecar.exists():
        raise DatasetError(f"missing sidecar {sidecar}")
    meta = json.loads(sidecar.read_text())
    data = _read_raw_tensor(path)
    timestamps = [datetime.fromisoformat(s) for s in meta["timestamps"]]
    variables = list(meta["variables"])
    bad = ~np.isfinite(data)
    if bad.any():
        t, v = np.argwhere(bad)[0][:2]
        raise DatasetError(
            f"{path}: non-finite value at time index {t}, variable {variables[v]!r}"
        )
    static = {}
    for name, rel in meta.get("static", {}).items():
        arr = _read_raw_tensor(path.with_name(rel))
        static[name] = arr[0, 0]
    return GriddedDataset(
        grid=GridSpec(np.asarray(meta["lats"]), np.asarray(meta["lons"])),
        variables=variables,
        timestamps=timestamps,
        data=data,
        static_fields=static,
    )


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

def fit_standardization(ds: GriddedDataset, split: SplitSpec) -> StandardizationStats:
    """Per-variable mean and population std over the training split only."""
    idx = split_time_indices(ds, split.train_years)
    if idx.size == 0:
        raise DatasetError("training split is empty")
    means, stds = {}, {}
    for v, name in enumerate(ds.variables):
        vals = ds.data[idx, v].astype(np.float64)
        mu = float(vals.mean())
        sigma = float(vals.std())  # population (divide-by-N)
        if sigma == 0.0:
            raise DatasetError(f"variable {name!r} has zero std over the training split")
        means[name], stds[name] = mu, sigma
    return StandardizationStats(means=means, stds=stds)


def standardize(ds: GriddedDataset, stats: StandardizationStats) -> GriddedDataset:
    """(x - mean) / std per variable; static fields pass through untouched."""
    out = np.empty_like(ds.data)
    for v, name in enumerate(ds.variables):
        if name not in stats.means:
            raise DatasetError(f"no standardization stats for variable {name!r}")
        out[:, v] = (ds.data[:, v] - stats.means[name]) / stats.stds[name]
    return GriddedDataset(
        grid=ds.grid,
        variables=list(ds.variables),
        timestamps=list(ds.timestamps),
        data=out,
        static_fields=dict(ds.static_fields),
    )


def normalize_static(fld: np.ndarray) -> np.ndarray:
    """Affine rescale of a 2-D field to [0, 1]."""
    fld = np.asarray(fld, dtype=np.float64)
    if not np.isfinite(fld).all():
        raise DatasetError("static field contains non-finite values")
    lo, hi = fld.min(), fld.max()
    if hi <= lo:
        raise DatasetError("cannot normalize a constant static field")
    return ((fld - lo) / (hi - lo)).astype(np.float32)


def day_offset(ds: GriddedDataset) -> int:
    """Index offset of each time step's 24 h successor (the stride must divide 24 h)."""
    off = 24.0 / ds.stride_hours
    if abs(off - round(off)) > 1e-9:
        raise DatasetError("dataset stride does not divide 24 hours")
    return int(round(off))


def valid_init_times(
    ds: GriddedDataset,
    split: SplitSpec,
    which: str = "train",
    max_lead_hours: float = 240.0,
    history_hours: float = 24.0,
) -> list[int]:
    """Forecast init time indices inside a split.

    Excludes the first ``history_hours`` hours and the final ``max_lead_hours``
    hours of the split. Returns an empty list when the split is too short.
    """
    idx = split_time_indices(ds, split.years_of(which))
    if idx.size == 0:
        return []
    t0 = ds.timestamps[idx[0]]
    t1 = ds.timestamps[idx[-1]]
    lo = t0 + timedelta(hours=history_hours)
    hi = t1 - timedelta(hours=max_lead_hours)
    return [int(i) for i in idx if lo <= ds.timestamps[i] <= hi]


def derive_wind_speed(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Elementwise wind speed sqrt(u^2 + v^2)."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise DatasetError(f"shape mismatch {u.shape} vs {v.shape}")
    return np.sqrt(u * u + v * v)
