"""Gridded spatiotemporal data model: file format, preprocessing, splits.

A dataset's time axis is one ``datetime64[us]`` array: calendar months,
years, the stride and forecast init windows are array arithmetic on it. Its
invariants (shape, variable names, constant stride, finite values) are
checked once, when a ``GriddedDataset`` is built; ``load_dataset``,
``synthetic.generate`` and ``standardize`` build one.

The on-disk container is a minimal binary tensor file ("FTEN"): magic bytes,
a version word, four little-endian u32 dims (time, var, lat, lon) and a flat
little-endian f32 payload in [time][var][lat][lon] order. A JSON sidecar
``<name>.meta.json`` carries the timestamps as ISO 8601 strings
(``2000-01-01T06:00:00``), the variable names and the grid coordinates
(``lats``, ``lons``). A ``static`` key, written by older versions of the
format, is ignored on read.

Every JSON document the package reads is parsed by ``read_json`` and its
keys, value types and ranges are checked by ``check_object``, so each
refusal names the file or the key in one form.
"""

from __future__ import annotations

import json
import math
import re
import reprlib
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

MAGIC = b"FTEN"
FORMAT_VERSION = 1

KNOWN_VARIABLES = {"z500", "t850", "t2m", "u10", "v10", "ws10"}
_SYNTH_RE = re.compile(r"^synthetic_\d+$")
# One forecast step: training pairs, rollout steps and leads are this far apart.
STEP_HOURS = 24.0


class DatasetError(ValueError):
    """Raised for malformed files, invalid dimensions or invariant violations."""


# ---------------------------------------------------------------------------
# JSON input
# ---------------------------------------------------------------------------

def read_json(path: str | Path, error: type[Exception]):
    """The JSON document in the file at ``path``; raises ``error`` naming the
    file when it does not parse."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as e:  # JSONDecodeError, or bytes that are not UTF-8
        raise error(f"{path} is not a JSON file: {e}") from None


class Rule(NamedTuple):
    """What a value must be (``ok``), its ``desc`` for messages and the value ``store`` keeps."""

    ok: Callable[[object], bool]
    desc: str
    store: Callable[[object], object] = lambda v: v


ANY = Rule(lambda v: True, "anything")
BOOLEAN = Rule(lambda v: isinstance(v, bool), "true or false")
STRING = Rule(lambda v: isinstance(v, str), "a string")
OBJECT = Rule(lambda v: isinstance(v, dict), "an object")
INTEGER = Rule(lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
NUMBER = Rule(lambda v: INTEGER.ok(v) or (isinstance(v, float) and math.isfinite(v)),
              "a finite number")
# an integral number, stored as an int: ``8.0`` is read as 8, ``8.5`` refused
_WHOLE = Rule(lambda v: NUMBER.ok(v) and v == int(v), "an integer", int)


def at_least(rule: Rule, least) -> Rule:
    """``rule``, refusing values below ``least``."""
    return Rule(lambda v: rule.ok(v) and v >= least, f"{rule.desc} >= {least}", rule.store)


def list_of(item: Rule, desc: str, n: int | None = None, store=ANY.store) -> Rule:
    """A list (or tuple) of ``n`` (or any number of) values that pass ``item``."""
    return Rule(lambda v: isinstance(v, (list, tuple)) and n in (None, len(v))
                and all(map(item.ok, v)), desc, store)


def or_null(rule: Rule) -> Rule:
    return Rule(lambda v: v is None or rule.ok(v), f"null or {rule.desc}",
                lambda v: None if v is None else rule.store(v))


STRINGS = list_of(STRING, "a list of strings")
NUMBERS = list_of(NUMBER, "a list of numbers")
INTEGERS = list_of(INTEGER, "a list of integers")
# The ranges the key tables share.
COUNT = at_least(_WHOLE, 1)
SEED = at_least(_WHOLE, 0)
POSITIVE = Rule(lambda v: NUMBER.ok(v) and v > 0, "a positive finite number")
FRACTION = Rule(lambda v: NUMBER.ok(v) and 0 < v <= 1, "a number in (0, 1]", float)


def check_object(obj, keys: dict, what: str, error: type[Exception], _prefix: str = "") -> dict:
    """Raise ``error`` unless ``obj`` is a JSON object whose keys are keys of
    ``keys`` and whose values pass their rules; returns the keys of ``obj``
    with each value as its rule stores it.

    ``keys`` maps each key to ``(rule, required)``; a rule that is a dict is
    such a table for a nested object, whose keys are named ``outer.inner``.
    Unknown keys are found first, then each key in table order is checked.
    The message names the key: ``missing <what> key 'k'``, ``unknown <what>
    key 'k'`` or ``<what> key 'k' must be <desc>, not <value>``.
    """
    if not isinstance(obj, dict):
        raise error(f"{what} must be an object")
    for key in obj:
        if key not in keys:
            raise error(f"unknown {what} key {_prefix + str(key)!r}")
    stored = {}
    for key, (rule, required) in keys.items():
        name = _prefix + key
        if key not in obj:
            if required:
                raise error(f"missing {what} key {name!r}")
            continue
        check = OBJECT if isinstance(rule, dict) else rule
        if not check.ok(obj[key]):
            raise error(f"{what} key {name!r} must be {check.desc}, not {reprlib.repr(obj[key])}")
        stored[key] = (check_object(obj[key], rule, what, error, name + ".")
                       if isinstance(rule, dict) else rule.store(obj[key]))
    return stored


def _hours_us(hours: float) -> int:
    """``hours`` in whole microseconds; raises DatasetError past the int64
    microseconds of ``datetime64[us]`` (or for a NaN)."""
    us = hours * 3.6e9
    if not abs(us) < 2**63:
        raise DatasetError(f"{hours:g} h is past the datetime64[us] range")
    return round(us)


def hours_delta(hours: float) -> np.timedelta64:
    """``hours`` as a ``timedelta64``, rounded to the microsecond."""
    return np.timedelta64(_hours_us(hours), "us")


def month_index(times) -> np.ndarray:
    """Calendar month of each of ``times``, 0 for January."""
    return np.asarray(times, dtype="datetime64[M]").astype(np.int64) % 12


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
    """Time-indexed multi-variable fields on a lat-lon grid.

    ``data`` has shape [time, variable, lat, lon] and finite float32 values.
    ``timestamps`` is stored as a ``datetime64[us]`` array (any sequence of
    datetimes is accepted) and strictly increases at a constant stride. Both
    are checked here, once; instances are treated as immutable after
    construction.
    """

    grid: GridSpec
    variables: list[str]
    timestamps: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype="datetime64[us]")
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.shape != self.timestamps.shape + (
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
        if np.isnat(self.timestamps).any():
            raise DatasetError("timestamps must not be NaT")
        d = np.diff(self.timestamps)
        if d.size and (d[0] <= np.timedelta64(0) or (d != d[0]).any()):
            raise DatasetError("timestamps must strictly increase at a constant stride")
        bad = ~np.isfinite(self.data)
        if bad.any():
            t, v = np.argwhere(bad)[0][:2]
            raise DatasetError(
                f"non-finite value at time index {t} ({self.timestamps[t].item()}), "
                f"variable {self.variables[v]!r}"
            )

    @property
    def n_times(self) -> int:
        return len(self.timestamps)

    @property
    def stride(self) -> np.timedelta64:
        if len(self.timestamps) < 2:
            raise DatasetError("stride undefined for a single-timestep dataset")
        return self.timestamps[1] - self.timestamps[0]

    @property
    def stride_hours(self) -> float:
        return float(self.stride / np.timedelta64(1, "s") / 3600.0)

    def steps(self, hours: float, what: str) -> int:
        """``hours`` (to the microsecond, as ``hours_delta`` rounds) in strides;
        raises DatasetError naming ``what`` unless that is a whole number >= 1."""
        n, rest = divmod(_hours_us(hours), int(self.stride.astype(np.int64)))
        if n < 1 or rest:
            raise DatasetError(f"{what} is not a whole number of the dataset's "
                               f"{self.stride_hours:g} h strides")
        return n

    def months(self) -> np.ndarray:
        """Calendar month (1..12) of every timestamp."""
        return month_index(self.timestamps) + 1


@dataclass(frozen=True)
class StandardizationStats:
    """Per-variable training-split mean and population standard deviation."""

    means: dict[str, float]
    stds: dict[str, float]

    def __post_init__(self):
        for v, s in self.stds.items():
            if not s > 0:
                raise DatasetError(f"non-positive std for variable {v!r}")


# Split keys: each year range is stored as a tuple, so a split from JSON is hashable.
_YEARS = list_of(INTEGER, "a list of two integers", 2, tuple)
SPLIT_KEYS = {"train_years": (_YEARS, True), "val_years": (or_null(_YEARS), False),
              "test_years": (or_null(_YEARS), False)}


@dataclass(frozen=True)
class SplitSpec:
    """Inclusive, disjoint train/val/test year ranges, each checked by its ``SPLIT_KEYS`` row."""

    train_years: tuple[int, int]
    val_years: tuple[int, int] | None = None
    test_years: tuple[int, int] | None = None

    def __post_init__(self):
        vars(self).update(check_object(vars(self), SPLIT_KEYS, "split", DatasetError))
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
    """Indices of the time steps whose calendar year lies in ``years`` (inclusive)."""
    lo, hi = years
    year = ds.timestamps.astype("datetime64[Y]").astype(np.int64) + 1970
    return np.flatnonzero((year >= lo) & (year <= hi))


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def save_dataset(ds: GriddedDataset, path: str | Path) -> Path:
    """Write the field-tensor file plus its JSON sidecar; returns the data path."""
    path = Path(path)
    if "ws10" in ds.variables:
        raise DatasetError("ws10 is a derived variable and is never stored raw")
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_raw_tensor(path, ds.data)
    # whole seconds print as isoformat() does; finer timestamps keep their microseconds
    ts = ds.timestamps
    unit = "s" if (ts == ts.astype("datetime64[s]")).all() else "us"
    meta = {
        "timestamps": np.datetime_as_string(ts, unit=unit).tolist(),
        "variables": ds.variables,
        "lats": ds.grid.lats.tolist(),
        "lons": ds.grid.lons.tolist(),
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


_SIDECAR_KEYS = {"timestamps": (STRINGS, True), "variables": (STRINGS, True),
                 "lats": (NUMBERS, True), "lons": (NUMBERS, True),
                 "static": (ANY, False)}  # written by older versions; ignored


def load_dataset(path: str | Path) -> GriddedDataset:
    """Load a field-tensor file and its sidecar into a validated dataset.

    Errors name the sidecar or the data file. The sidecar's keys and their
    types are checked before anything else is read.
    """
    path = Path(path)
    sidecar = path.with_name(path.name + ".meta.json")
    if not sidecar.exists():
        raise DatasetError(f"missing sidecar {sidecar}")
    meta = read_json(sidecar, DatasetError)
    check_object(meta, _SIDECAR_KEYS, f"sidecar {sidecar}", DatasetError)
    try:
        timestamps = np.array(meta["timestamps"], dtype="datetime64[us]")
    except ValueError as e:
        raise DatasetError(f"{sidecar}: bad timestamp: {e}") from None
    data = _read_raw_tensor(path)
    try:
        return GriddedDataset(
            grid=GridSpec(np.asarray(meta["lats"]), np.asarray(meta["lons"])),
            variables=list(meta["variables"]),
            timestamps=timestamps,
            data=data,
        )
    except DatasetError as e:
        raise DatasetError(f"{path}: {e}") from None


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
    """(x - mean) / std per variable.

    The result is re-checked: a finite value far from a tiny training std
    can overflow to inf here.
    """
    out = np.empty_like(ds.data)
    for v, name in enumerate(ds.variables):
        if name not in stats.means:
            raise DatasetError(f"no standardization stats for variable {name!r}")
        out[:, v] = (ds.data[:, v] - stats.means[name]) / stats.stds[name]
    return GriddedDataset(
        grid=ds.grid,
        variables=list(ds.variables),
        timestamps=ds.timestamps,
        data=out,
    )


def valid_init_times(
    ds: GriddedDataset,
    split: SplitSpec,
    which: str = "train",
    max_lead_hours: float = 10 * STEP_HOURS,
) -> list[int]:
    """Forecast init time indices inside a split: past its first forecast
    step (an init's history) and ``max_lead_hours`` before its end, spans
    compared as int64 microsecond differences of its times, which cannot
    leave the ``datetime64[us]`` range as a time shifted by the lead can."""
    idx = split_time_indices(ds, split.years_of(which))
    if idx.size == 0:
        return []
    us = ds.timestamps[idx].astype(np.int64)
    ok = (us - us[0] >= _hours_us(STEP_HOURS)) & (us[-1] - us >= _hours_us(max_lead_hours))
    return idx[ok].tolist()
