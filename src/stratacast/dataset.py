"""Gridded spatiotemporal data model: array files, preprocessing, splits.

A dataset's time axis is one ``datetime64[us]`` array: calendar months,
years, the stride and forecast init windows are array arithmetic on it. Its
invariants (shape, variable names, constant stride, finite values) are
checked once, when a ``GriddedDataset`` is built; ``load_dataset``,
``synthetic.generate`` and ``standardize`` build one.

Every array file the package writes is an npz archive, written by
``write_npz`` and read back, without pickles, by ``read_npz``. Each holder
of arrays declares one entry table, and ``check_entries`` checks arrays
against it, in a file or in memory. A dataset file (conventionally named
``.ften``) holds the entries of ``DATASET_ENTRIES``.

Every JSON document the package reads is parsed by ``parse_json`` (a file's
by ``read_json``) and its keys, value types and ranges are checked by
``check_object``, so each refusal names the file or the key in one form.
"""

from __future__ import annotations

import json
import math
import re
import reprlib
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

KNOWN_VARIABLES = {"z500", "t850", "t2m", "u10", "v10", "ws10"}
_SYNTH_RE = re.compile(r"^synthetic_\d+$")
# One forecast step: training pairs, rollout steps and leads are this far apart.
STEP_HOURS = 24.0
# The dimensions of a state: (variable, lat, lon).
STATE_DIMS = ("var", "lat", "lon")


class DatasetError(ValueError):
    """Raised for malformed files, invalid dimensions or invariant violations."""


# ---------------------------------------------------------------------------
# JSON input
# ---------------------------------------------------------------------------

def parse_json(text: str | bytes, refusal: str, error: type[Exception]):
    """The JSON document ``text`` (bytes are read as UTF-8); raises ``error`` as
    ``<refusal>: <reason>`` when it is not UTF-8, does not parse or nests past
    the recursion limit."""
    try:
        return json.loads(text.decode() if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as e:
        raise error(f"{refusal}: {e}") from None


def read_json(path: str | Path, error: type[Exception]):
    """The JSON document in the file at ``path``; raises ``error`` naming the
    file when it does not parse."""
    return parse_json(Path(path).read_bytes(), f"{path} is not a JSON file", error)


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


def check_integer(value, what: str, error: type[Exception], least: int = 0) -> int:
    """``value`` as an int; raises ``error`` naming ``what`` unless it is a
    Python or numpy int (not a bool) of at least ``least``: ``seed 2.5 is not
    an integer``, ``seed -1 is negative``, ``n_steps 0 is below 1``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise error(f"{what} {value!r} is not an integer")
    if value < least:
        raise error(f"{what} {value} is " + ("negative" if least == 0 else f"below {least}"))
    return int(value)


def integer_array(values, what: str, error: type[Exception]) -> np.ndarray:
    """``values`` as an int64 array; raises ``error`` naming the first list (or 1-D array) item,
    typed one by one, that is not a Python or numpy int (a float, a bool, a string) or past int64."""
    items = values.tolist() if isinstance(values, np.ndarray) else values
    bad = [t for t in set(map(type, items)) if not issubclass(t, (int, np.integer)) or t is bool]
    if bad:
        raise error(f"{what} {next(v for v in items if type(v) in bad)!r} is not an integer")
    if len(items) and not (-2**63 <= min(items) and max(items) < 2**63):
        wide = next(v for v in items if not -2**63 <= v < 2**63)
        raise error(f"{what} {wide} is outside the 64-bit integer range")
    return np.asarray(values, dtype=np.int64)


def first_repeat(items):
    """The first item of ``items`` equal to an earlier one, or None."""
    seen = set()
    return next((item for item in items if item in seen or seen.add(item)), None)


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
        if not np.all(np.abs(lats) <= 90.0):  # written so that a NaN fails them
            raise DatasetError("latitudes must lie in [-90, 90]")
        if not np.all((lons >= -180.0) & (lons < 360.0)):
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

    ``data`` has shape [time, variable, lat, lon], at least one variable and
    finite float32 values. ``timestamps`` is stored as a ``datetime64[us]``
    array (any sequence of datetimes is accepted) and strictly increases at a
    constant stride. Both are checked here, once, the shapes against
    ``DATASET_ENTRIES``; instances are treated as immutable after construction.
    """

    grid: GridSpec
    variables: list[str]
    timestamps: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype="datetime64[us]")
        self.data = np.asarray(self.data, dtype=np.float32)
        check_entries(DATASET_ENTRIES, {"timestamps": self.timestamps,
                                        "variables": np.array(self.variables, dtype=str),
                                        "lats": self.grid.lats, "lons": self.grid.lons,
                                        "data": self.data}, "dataset", DatasetError)
        if not self.variables:
            raise DatasetError("dataset has no variables")
        for name in self.variables:
            validate_variable_name(name)
        repeat = first_repeat(self.variables)
        if repeat is not None:
            raise DatasetError(f"variable {repeat!r} is listed more than once")
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

    def check_indices(self, indices, what: str, error: type[Exception]) -> np.ndarray:
        """``indices`` as ``integer_array`` checks them, the int64 array every
        stage reads; raises ``error`` naming the first one outside this
        dataset's times: ``init index -1 is outside the dataset's 10 times``.
        An empty list passes."""
        idx = integer_array(indices, what, error)
        outside = idx[(idx < 0) | (idx >= self.n_times)]
        if outside.size:
            raise error(f"{what} {outside[0]} is outside the dataset's {self.n_times} times")
        return idx

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
# Array files
# ---------------------------------------------------------------------------

def write_npz(path: str | Path, **arrays) -> None:
    """Write ``arrays`` by name to an npz archive at exactly ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:  # given a name, np.savez would append ".npz"
        np.savez(f, **arrays)


_KINDS = {"f": "float", "i": "integer", "U": "string", "M": "datetime64"}


def check_entries(table: dict, arrays, where: str, error: type[Exception],
                  sizes: dict | None = None) -> None:
    """Raise ``error`` naming ``where`` and the entry unless ``arrays`` holds every
    entry of ``table`` with its dtype kind, ndim and sizes; no values are read.
    ``table`` maps a name to ``(kind, dims)``: a ``_KINDS`` kind and, per dimension,
    a fixed int, a name for a size that every entry having it shares (the one in
    ``sizes``, else the first entry's in table order) or a function of the named sizes."""
    sizes, shapes = dict(sizes or {}), {}
    for name, (kind, dims) in table.items():
        if name not in arrays:
            raise error(f"{where} has no entry {name!r}")
        a = np.asarray(arrays[name])
        if a.dtype.kind != kind or a.ndim != len(dims):
            raise error(f"{where} entry {name!r} must be a {len(dims)}-D {_KINDS[kind]} array, "
                        f"not a {a.ndim}-D {a.dtype} array")
        shapes[name] = a.shape
        for d, n in zip(dims, a.shape):
            if isinstance(d, str):
                sizes.setdefault(d, n)
    for name, (_, dims) in table.items():
        want = tuple(sizes[d] if isinstance(d, str) else d(sizes) if callable(d) else d
                     for d in dims)
        if shapes[name] != want:
            listing = ", ".join(f"{n} {shape}" for n, shape in shapes.items())
            raise error(f"{where} entry {name!r} has shape {shapes[name]}, not {want} "
                        f"(entry shapes: {listing})")


def read_npz(path: str | Path, error: type[Exception], table: dict) -> dict:
    """The arrays of the npz archive at exactly ``path``, read without pickles and
    checked against ``table``; raises ``error`` naming the file when it is not such
    an archive (a bare ``.npy`` array, other bytes, an object entry) or an entry does not fit."""
    path = Path(path)
    try:  # np.load leaves a file it opened unclosed when the zip does not parse
        with open(path, "rb") as f:
            z = np.load(f, allow_pickle=False)
            if isinstance(z, np.ndarray):
                raise ValueError("a bare .npy array")
            with z:
                arrays = dict(z)
    except (ValueError, EOFError, zipfile.BadZipFile):
        raise error(f"{path} is not an npz archive of pickle-free arrays") from None
    check_entries(table, arrays, str(path), error)
    return arrays


# A dataset's entries: the axes first, so that ``data`` is named when it does not fit them.
DATASET_ENTRIES = {"timestamps": ("M", ("time",)), "variables": ("U", ("var",)),
                   "lats": ("f", ("lat",)), "lons": ("f", ("lon",)),
                   "data": ("f", ("time", *STATE_DIMS))}


def save_dataset(ds: GriddedDataset, path: str | Path) -> Path:
    """Write ``ds`` as one npz archive at ``path``; returns ``path``."""
    path = Path(path)
    if "ws10" in ds.variables:
        raise DatasetError("ws10 is a derived variable and is never stored raw")
    write_npz(path, data=ds.data, timestamps=ds.timestamps,
              variables=np.array(ds.variables, dtype=str), lats=ds.grid.lats, lons=ds.grid.lons)
    return path


def load_dataset(path: str | Path) -> GriddedDataset:
    """The dataset in the archive at ``path``; errors name the file."""
    z = read_npz(path, DatasetError, DATASET_ENTRIES)
    try:
        return GriddedDataset(GridSpec(z["lats"], z["lons"]), z["variables"].tolist(),
                              z["timestamps"], z["data"])
    except DatasetError as e:
        raise DatasetError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

def fit_standardization(ds: GriddedDataset, split: SplitSpec) -> tuple[list[float], list[float]]:
    """Each variable's mean and population std over the training split only,
    as two lists in variable order."""
    idx = split_time_indices(ds, split.train_years)
    if idx.size == 0:
        raise DatasetError("training split is empty")
    means, stds = [], []
    for v, name in enumerate(ds.variables):
        vals = ds.data[idx, v].astype(np.float64)
        sigma = float(vals.std())  # population (divide-by-N)
        if sigma == 0.0:
            raise DatasetError(f"variable {name!r} has zero std over the training split")
        means.append(float(vals.mean()))
        stds.append(sigma)
    return means, stds


def standardize(ds: GriddedDataset, split: SplitSpec) -> GriddedDataset:
    """``ds`` with each variable as (x - mean) / std, in float32, by the
    split's training-year moments that ``fit_standardization`` finds.

    The result is re-checked: a finite value far from a tiny training std
    can overflow to inf here.
    """
    means, stds = fit_standardization(ds, split)
    out = np.empty_like(ds.data)
    for v, (mean, std) in enumerate(zip(means, stds)):
        out[:, v] = (ds.data[:, v] - mean) / std
    return GriddedDataset(ds.grid, list(ds.variables), ds.timestamps, out)


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
