import re
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stratacast import dataset as dsmod
from stratacast.dataset import (
    DatasetError,
    GriddedDataset,
    GridSpec,
    SplitSpec,
    fit_standardization,
    load_dataset,
    save_dataset,
    split_time_indices,
    standardize,
    valid_init_times,
)
from stratacast.forecast import ForecastError, load_forecast, load_forecaster


def make_ds(values, start=datetime(2000, 1, 1), stride_hours=1, variables=None):
    data = np.asarray(values, dtype=np.float32)
    nt, nv, nlat, nlon = data.shape
    grid = GridSpec(np.linspace(-30, 30, nlat), np.linspace(0, 300, nlon))
    ts = [start + timedelta(hours=stride_hours * i) for i in range(nt)]
    return GriddedDataset(
        grid=grid,
        variables=variables or [f"synthetic_{k}" for k in range(nv)],
        timestamps=ts,
        data=data,
    )


def _rewrite_entries(path, drop=None, **put):
    """Rewrite the archive at ``path`` without entry ``drop`` and with ``put``."""
    with np.load(path) as z:
        entries = {k: z[k] for k in z.files if k != drop}
    with open(path, "wb") as f:
        np.savez(f, **{**entries, **put})


class TestFileFormat:
    def test_round_trip_small(self, tmp_path):
        ds = make_ds(np.arange(8, dtype=np.float32).reshape(2, 1, 2, 2))
        path = save_dataset(ds, tmp_path / "d.ften")
        back = load_dataset(path)
        assert back.data.shape == (2, 1, 2, 2)
        assert np.array_equal(back.timestamps, ds.timestamps)
        assert back.variables == ds.variables

    def test_round_trip_bitwise(self, tmp_path, toy_dataset):
        path = save_dataset(toy_dataset, tmp_path / "toy.ften")
        back = load_dataset(path)
        assert back.data.tobytes() == toy_dataset.data.tobytes()

    def test_nan_payload_rejected_with_index(self, tmp_path):
        ds = make_ds(np.zeros((2, 1, 2, 2), dtype=np.float32))
        path = save_dataset(ds, tmp_path / "d.ften")
        data = ds.data.copy()
        data[1, 0, 0, 1] = np.nan
        _rewrite_entries(path, data=data)
        with pytest.raises(DatasetError, match="time index 1"):
            load_dataset(path)

    def test_old_layout_file_is_refused_naming_it(self, tmp_path):
        # the FTEN magic and header words of the former layout, without a sidecar
        (tmp_path / "x.ften").write_bytes(b"FTEN" + b"\0" * 20)
        with pytest.raises(DatasetError, match=re.escape(f"{tmp_path / 'x.ften'} is not an npz")):
            load_dataset(tmp_path / "x.ften")

    def test_dimension_mismatch(self, tmp_path):
        ds = make_ds(np.zeros((2, 1, 2, 2), dtype=np.float32))
        path = save_dataset(ds, tmp_path / "d.ften")
        _rewrite_entries(path, data=ds.data[:, :, :, :1])
        with pytest.raises(DatasetError, match=re.escape(
                "d.ften entry 'data' has shape (2, 1, 2, 1), not (2, 1, 2, 2) (entry shapes: "
                "timestamps (2,), variables (1,), lats (2,), lons (2,), data (2, 1, 2, 1))")):
            load_dataset(path)

    def test_sub_second_timestamps_round_trip(self, tmp_path):
        start = datetime(2000, 1, 1, 0, 0, 0, 500000)
        ds = make_ds(np.zeros((3, 1, 1, 1)), start=start, stride_hours=1.5)
        back = load_dataset(save_dataset(ds, tmp_path / "d.ften"))
        assert back.timestamps.tolist() == [start + timedelta(hours=1.5 * i) for i in range(3)]

    @settings(max_examples=60, deadline=None)
    @given(n_times=st.integers(1, 4),
           start_us=st.integers(0, 40 * 366 * 86_400 * 10**6),
           stride_us=st.one_of(st.integers(1, 10**6), st.integers(1, 10**11)),
           variables=st.lists(st.sampled_from(["z500", "t2m", "u10", "synthetic_0",
                                               "synthetic_12"]), min_size=1, max_size=3,
                              unique=True),
           lats=st.lists(st.floats(-90, 90), min_size=1, max_size=3, unique=True),
           lons=st.lists(st.floats(-180, 359.9), min_size=1, max_size=3, unique=True),
           descending=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_save_load_round_trip(self, tmp_path_factory, n_times, start_us, stride_us,
                                  variables, lats, lons, descending, seed):
        """What ``save_dataset`` writes, ``load_dataset`` accepts and reads back
        equal: microsecond timestamps, negative longitudes and several
        variables. The archive holds the float32 data and the
        ``datetime64[us]`` timestamps as they are."""
        start = np.datetime64("1990-01-01", "us") + np.timedelta64(start_us, "us")
        ts = start + np.timedelta64(stride_us, "us") * np.arange(n_times)
        grid = GridSpec(sorted(lats, reverse=descending), sorted(lons))
        data = np.random.default_rng(seed).standard_normal(
            (n_times, len(variables), grid.n_lat, grid.n_lon)).astype(np.float32)
        ds = GriddedDataset(grid, variables, ts, data)
        path = save_dataset(ds, tmp_path_factory.mktemp("rt") / "d.ften")
        back = load_dataset(path)
        assert back.data.tobytes() == ds.data.tobytes()
        assert np.array_equal(back.timestamps, ds.timestamps)
        assert back.variables == ds.variables
        assert np.array_equal(back.grid.lats, grid.lats)
        assert np.array_equal(back.grid.lons, grid.lons)
        with np.load(path) as z:
            assert (z["data"].dtype, z["timestamps"].dtype) == (
                np.float32, np.dtype("datetime64[us]"))

    def test_ws10_never_stored(self, tmp_path):
        ds = make_ds(np.zeros((2, 2, 2, 2), dtype=np.float32), variables=["u10", "v10"])
        ds.variables[1] = "ws10"
        with pytest.raises(DatasetError, match="ws10"):
            save_dataset(ds, tmp_path / "d.ften")


class TestStandardization:
    def test_hand_mean_std(self):
        vals = np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1, 1)
        ds = make_ds(vals)
        means, stds = fit_standardization(ds, SplitSpec((2000, 2000)))
        assert means == [pytest.approx(2.0)]
        assert stds == [pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-6)]

    def test_constant_field_rejected(self):
        ds = make_ds(np.full((3, 1, 1, 1), 5.0))
        with pytest.raises(DatasetError, match="synthetic_0"):
            fit_standardization(ds, SplitSpec((2000, 2000)))

    def test_stats_ignore_test_years(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(48, 1, 2, 2))
        ds1 = make_ds(base, stride_hours=24 * 30)  # spans multiple years
        mutated = base.copy()
        test_times = [i for i, t in enumerate(ds1.timestamps.tolist()) if t.year > 2000]
        mutated[test_times] += 100.0
        ds2 = make_ds(mutated, stride_hours=24 * 30)
        split = SplitSpec((2000, 2000), None, (2001, 2003))
        assert fit_standardization(ds1, split) == fit_standardization(ds2, split)
        train = split_time_indices(ds1, split.train_years)
        np.testing.assert_array_equal(standardize(ds1, split).data[train],
                                      standardize(ds2, split).data[train])

    def test_standardize_hand_values(self):
        ds = make_ds(np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1, 1))
        out = standardize(ds, SplitSpec((2000, 2000)))
        np.testing.assert_allclose(
            out.data.ravel(), [-1.2247449, 0.0, 1.2247449], atol=1e-5
        )

    def test_round_trip_invert(self, toy_dataset):
        split = SplitSpec((2000, 2001))
        means, stds = fit_standardization(toy_dataset, split)
        out = standardize(toy_dataset, split)
        for v in range(len(toy_dataset.variables)):
            back = out.data[:, v].astype(np.float64) * stds[v] + means[v]
            np.testing.assert_allclose(
                back, toy_dataset.data[:, v], rtol=1e-5, atol=1e-4
            )

    def test_standardized_train_moments(self, toy_dataset):
        out = standardize(toy_dataset, SplitSpec((2000, 2001)))
        for v in range(len(out.variables)):
            vals = out.data[:, v].astype(np.float64)
            assert abs(vals.mean()) < 1e-5
            assert abs(vals.std() - 1.0) < 1e-5

    def test_overflow_to_inf_rejected_with_index(self):
        # a training std of ~6e-8 maps the finite 3e38 at time index 5 (2001)
        # past the float32 range: the one place checked data turns non-finite
        vals = np.array([1.0, 1.0000001, 1.0, 1.0000001, 1.0, 3e38]).reshape(6, 1, 1, 1)
        ds = make_ds(vals, stride_hours=24 * 100)
        split = SplitSpec((2000, 2000))
        assert fit_standardization(ds, split)[1][0] < 1e-7
        with np.errstate(over="ignore"), pytest.raises(DatasetError, match="time index 5"):
            standardize(ds, split)


class TestValidInitTimes:
    def test_hourly_year_count(self):
        ds = make_ds(np.random.default_rng(0).normal(size=(8760, 1, 1, 1)))
        idx = valid_init_times(ds, SplitSpec((2000, 2000)), "train", 240.0)
        assert len(idx) == 8496
        # contiguous range
        assert idx == list(range(idx[0], idx[-1] + 1))

    def test_no_exclusion(self):
        """With no lead span, only the first forecast step, an init's history, is excluded."""
        ds = make_ds(np.random.default_rng(0).normal(size=(100, 1, 1, 1)))
        idx = valid_init_times(ds, SplitSpec((2000, 2000)), "train", 0.0)
        assert idx == list(range(24, 100))

    def test_too_short_split_empty(self):
        ds = make_ds(np.random.default_rng(0).normal(size=(100, 1, 1, 1)))
        idx = valid_init_times(ds, SplitSpec((2000, 2000)), "train", 240.0)
        assert idx == []


# datetime-loop oracles for the array arithmetic on the time axis

def _oracle_split(ts, years):
    lo, hi = years
    return [i for i, t in enumerate(ts) if lo <= t.year <= hi]


def _oracle_valid_inits(ts, years, max_lead_hours):
    idx = _oracle_split(ts, years)
    return [i for i in idx if ts[i] - ts[idx[0]] >= timedelta(hours=24)
            and ts[idx[-1]] - ts[i] >= timedelta(hours=max_lead_hours)]


def _oracle_rejects(ts):
    deltas = {(b - a).total_seconds() for a, b in zip(ts[:-1], ts[1:])}
    return len(ts) > 1 and (len(deltas) != 1 or min(deltas) <= 0)


def _series(ts):
    return GriddedDataset(GridSpec([0.0], [0.0]), ["synthetic_0"], ts, np.zeros((len(ts), 1, 1, 1)))


# strides that divide 24 h and strides that do not
STRIDES = [1, 2, 3, 4, 6, 8, 12, 24, 48, 5, 7, 10, 25, 36, 100, 720]


@st.composite
def time_axes(draw, max_steps=600):
    # 1999-2005 holds the leap years 2000 and 2004; year 1 lies within a lead
    # span of the datetime64[us] minimum; starts fall anywhere in a year
    start = datetime(draw(st.sampled_from([1, *range(1999, 2006)])), 1, 1) + timedelta(
        hours=draw(st.integers(0, 366 * 24 - 1))
    )
    stride = draw(st.sampled_from(STRIDES))
    n = draw(st.integers(1, max_steps))
    return [start + timedelta(hours=stride * i) for i in range(n)]


class TestTimeAxisOracles:
    @settings(max_examples=150, deadline=None)
    # leads up to the last whole hour inside the datetime64[us] range (2**63 us)
    @given(ts=time_axes(), first=st.integers(-1, 3), span=st.integers(0, 3),
           max_lead=st.integers(0, 3000) | st.integers(2_540_000_000, 2_562_047_788))
    @example(ts=[datetime(2000, 6, 1)], first=1, span=0, max_lead=0)  # one step
    @example(ts=[datetime(2000, 12, 31, 22), datetime(2000, 12, 31, 23)],  # split too short
             first=1, span=0, max_lead=24)
    @example(ts=[datetime(1, 1, 1) + timedelta(days=i) for i in range(10)],  # lead span wraps
             first=0, span=0, max_lead=106_500_000 * 24)
    def test_matches_datetime_loops(self, ts, first, span, max_lead):
        ds = _series(ts)
        years = (ts[0].year + first, ts[0].year + first + span)
        assert split_time_indices(ds, years).tolist() == _oracle_split(ts, years)
        assert ds.months().tolist() == [t.month for t in ts]
        inits = valid_init_times(ds, SplitSpec(years), "train", float(max_lead))
        assert inits == _oracle_valid_inits(ts, years, max_lead)
        if len(ts) > 1:
            assert ds.stride_hours == (ts[1] - ts[0]).total_seconds() / 3600.0
        else:
            with pytest.raises(DatasetError, match="stride undefined"):
                ds.stride_hours

    @settings(max_examples=150, deadline=None)
    @given(ts=time_axes(max_steps=40), data=st.data())
    def test_stride_rejection_matches_oracle(self, ts, data):
        ts = list(ts)
        j = data.draw(st.integers(0, len(ts) - 1))
        ts[j] += timedelta(minutes=data.draw(st.integers(-3000, 3000)))
        if data.draw(st.booleans()):
            ts.reverse()
        if _oracle_rejects(ts):
            with pytest.raises(DatasetError, match="constant stride"):
                _series(ts)
        else:
            assert _series(ts).timestamps.tolist() == ts


class TestTimeAxisRules:
    @settings(max_examples=300, deadline=None)
    @given(stride=st.sampled_from([1, 1.5, 6, 24, 48]), minutes=st.integers(-3000, 6000))
    @example(stride=1.5, minutes=36 * 60)  # 24 strides
    @example(stride=48, minutes=24 * 60)   # half a stride
    @example(stride=6, minutes=0)
    def test_steps_is_the_whole_timedelta_ratio(self, stride, minutes):
        """``steps`` is the exact ratio of the two ``timedelta``s when that is
        a whole number >= 1, and refuses otherwise, naming what it converts."""
        ds = _series([datetime(2000, 1, 1) + timedelta(hours=stride * i) for i in range(3)])
        count, rest = divmod(timedelta(minutes=minutes), timedelta(hours=stride))
        if count >= 1 and not rest:
            assert ds.steps(minutes / 60, "span") == count
        else:
            with pytest.raises(DatasetError, match=f"^span is not a whole number of the "
                                                   f"dataset's {stride:g} h strides$"):
                ds.steps(minutes / 60, "span")

    def test_steps_of_a_single_timestep_dataset_is_refused(self):
        with pytest.raises(DatasetError, match="stride undefined for a single-timestep dataset"):
            _series([datetime(2000, 1, 1)]).steps(dsmod.STEP_HOURS, "step")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31)), max_size=20))
    def test_month_index_is_the_calendar_month_from_0(self, times):
        assert dsmod.month_index(times).tolist() == [t.month - 1 for t in times]


def _file_of(tmp_path, raw):
    """The path of a file ``d.ften`` holding the bytes ``raw``."""
    path = tmp_path / "d.ften"
    path.write_bytes(raw)
    return path


def _saved_with(tmp_path, drop=None, **put):
    """The path of a saved dataset archive without entry ``drop`` and with ``put``."""
    path = save_dataset(make_ds(np.zeros((2, 1, 2, 2))), tmp_path / "d.ften")
    _rewrite_entries(path, drop, **put)
    return path


_POINT = GridSpec(np.array([0.0]), np.array([0.0]))


@pytest.mark.parametrize("build, message", [
    (lambda tmp: load_dataset(_file_of(tmp, b"PK\3\4 not a zip")),
     "d.ften is not an npz archive of pickle-free arrays"),
    (lambda tmp: load_dataset(_saved_with(tmp, drop="lons")), "d.ften has no entry 'lons'"),
    (lambda tmp: load_dataset(_saved_with(tmp, timestamps=np.array([0, 6], dtype=np.int64))),
     "d.ften entry 'timestamps' must be a 1-D datetime64 array, not a 1-D int64 array"),
    (lambda tmp: load_dataset(_saved_with(tmp, data=np.zeros((2, 4), dtype=np.float32))),
     "d.ften entry 'data' must be a 4-D float array, not a 2-D float32 array"),
    (lambda tmp: GridSpec(np.array([]), np.array([0.0])), "grid axes must be non-empty 1-D arrays"),
    (lambda tmp: GridSpec(np.array([90.5]), np.array([0.0])), "latitudes must lie in [-90, 90]"),
    (lambda tmp: GridSpec(np.array([0.0]), np.array([360.0])),
     "longitudes must lie in [0, 360) or [-180, 180)"),
    (lambda tmp: GridSpec(np.array([np.nan]), np.array([0.0])), "latitudes must lie in [-90, 90]"),
    (lambda tmp: GridSpec(np.array([0.0]), np.array([np.nan])),
     "longitudes must lie in [0, 360) or [-180, 180)"),
    (lambda tmp: GridSpec(np.array([0.0, 10.0, 5.0]), np.array([0.0])),
     "lats must be strictly monotone"),
    (lambda tmp: GridSpec(np.array([0.0]), np.array([0.0, 0.0])), "lons must be strictly monotone"),
    (lambda tmp: GriddedDataset(_POINT, ["synthetic_0"], [datetime(2000, 1, 1)],
                                np.zeros((1, 1, 1, 2))),
     "dataset entry 'data' has shape (1, 1, 1, 2), not (1, 1, 1, 1) (entry shapes: "
     "timestamps (1,), variables (1,), lats (1,), lons (1,), data (1, 1, 1, 2))"),
    (lambda tmp: GriddedDataset(_POINT, ["synthetic_0"], np.array(["NaT"], "datetime64[us]"),
                                np.zeros((1, 1, 1, 1))),
     "timestamps must not be NaT"),
    (lambda tmp: make_ds(np.zeros((1, 1, 1, 1)), variables=["z501"]),
     "unknown variable name: 'z501'"),
    (lambda tmp: make_ds(np.zeros((1, 2, 1, 1)), variables=["synthetic_0", "synthetic_0"]),
     "variable 'synthetic_0' is listed more than once"),
    (lambda tmp: load_dataset(_saved_with(tmp, variables=np.array(["synthetic_0", "synthetic_0"]),
                                          data=np.zeros((2, 2, 2, 2), np.float32))),
     "d.ften: variable 'synthetic_0' is listed more than once"),
    (lambda tmp: GriddedDataset(_POINT, [], [datetime(2000, 1, 1)], np.zeros((1, 0, 1, 1))),
     "dataset has no variables"),
    (lambda tmp: load_dataset(_saved_with(tmp, variables=np.array([], dtype=str),
                                          data=np.zeros((2, 0, 2, 2), np.float32))),
     "d.ften: dataset has no variables"),
    (lambda tmp: fit_standardization(make_ds(np.zeros((2, 1, 1, 1))), SplitSpec((2001, 2001))),
     "training split is empty"),
    (lambda tmp: dsmod.hours_delta(10**15), "1e+15 h is past the datetime64[us] range"),
    (lambda tmp: make_ds(np.zeros((2, 1, 1, 1))).steps(1e300, "span"),
     "1e+300 h is past the datetime64[us] range"),
    (lambda tmp: dsmod.hours_delta(float("nan")), "nan h is past the datetime64[us] range"),
], ids=["not_an_archive", "missing_entry", "wrong_dtype", "wrong_ndim", "empty_axis", "latitude",
        "longitude", "nan_latitude", "nan_longitude", "lats_order",
        "lons_order", "data_shape", "nat_timestamp", "unknown_variable", "repeated_variable",
        "repeated_variable_in_file", "no_variables", "no_variables_in_file",
        "empty_training_split", "delta_past_int64", "steps_past_int64", "nan_hours"])
def test_refusals(tmp_path, build, message):
    with pytest.raises(DatasetError, match=re.escape(message) + "$"):
        build(tmp_path)


def _bare_npy(f):
    np.save(f, np.zeros(3))


def _object_entry(f):
    np.savez(f, kind=np.array([{"kind": "persistence"}], dtype=object))


@pytest.mark.parametrize("load, error", [(load_dataset, DatasetError),
                                         (load_forecast, ForecastError),
                                         (load_forecaster, ForecastError)],
                         ids=["dataset", "forecast", "forecaster"])
@pytest.mark.parametrize("write", [_bare_npy, lambda f: f.write(b"junk bytes"), _object_entry],
                         ids=["bare_npy", "junk_bytes", "object_entry"])
def test_a_file_that_is_not_an_npz_archive_is_refused_naming_it(tmp_path, load, error, write):
    path = tmp_path / "m.npz"
    with open(path, "wb") as f:
        write(f)
    message = f"{path} is not an npz archive of pickle-free arrays"
    with pytest.raises(error, match=re.escape(message) + "$"):
        load(path)


class TestSplitSpec:
    def test_overlap_rejected(self):
        with pytest.raises(DatasetError):
            SplitSpec((2000, 2005), (2005, 2006), None)

    def test_disjoint_ok(self):
        SplitSpec((2000, 2004), (2005, 2006), (2007, 2007))

    @pytest.mark.parametrize("fields, key, value", [
        (((2000.5, 2001),), "train_years", "(2000.5, 2001)"),
        ((("2000", 2001),), "train_years", "('2000', 2001)"),
        (((2000,),), "train_years", "(2000,)"),
        (((2000, 2001), None, (True, 2003)), "test_years", "(True, 2003)"),
        (((2000, 2001), [2002, 2003, 2004]), "val_years", "[2002, 2003, 2004]"),
    ], ids=["float_year", "string_year", "one_year", "bool_year", "three_years"])
    def test_year_range_that_is_not_two_integers_is_refused(self, fields, key, value):
        with pytest.raises(DatasetError, match=re.escape(
                f"split key {key!r} must be {'' if key == 'train_years' else 'null or '}"
                f"a list of two integers, not {value}") + "$"):
            SplitSpec(*fields)

    def test_lists_are_stored_as_tuples(self):
        split = SplitSpec([2000, 2001], test_years=[2003, 2003])
        assert split == SplitSpec((2000, 2001), test_years=(2003, 2003))
        assert hash(split) == hash(SplitSpec((2000, 2001), test_years=(2003, 2003)))
        assert split.train_years == (2000, 2001) and split.val_years is None


class TestSharedRules:
    @pytest.mark.parametrize("name", ["INTEGER", "NUMBER", "COUNT", "SEED", "POSITIVE",
                                      "FRACTION"])
    @pytest.mark.parametrize("value", [True, None, float("nan"), float("inf"), float("-inf"),
                                       "1"], ids=["true", "none", "nan", "inf", "-inf", "string"])
    def test_refuses_what_is_not_a_finite_number(self, name, value):
        rule = getattr(dsmod, name)
        assert rule.ok(1)
        assert not rule.ok(value)
