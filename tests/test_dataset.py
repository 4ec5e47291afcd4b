import json
import struct
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
        raw = bytearray(path.read_bytes())
        raw[24 + 4 * 5 : 24 + 4 * 6] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetError, match="time index 1"):
            load_dataset(path)

    def test_missing_sidecar(self, tmp_path):
        (tmp_path / "x.ften").write_bytes(b"FTEN" + b"\0" * 20)
        with pytest.raises(DatasetError, match="sidecar"):
            load_dataset(tmp_path / "x.ften")

    def test_dimension_mismatch(self, tmp_path):
        ds = make_ds(np.zeros((2, 1, 2, 2), dtype=np.float32))
        path = save_dataset(ds, tmp_path / "d.ften")
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DatasetError, match="does not match header"):
            load_dataset(path)

    def test_sub_second_timestamps_round_trip(self, tmp_path):
        start = datetime(2000, 1, 1, 0, 0, 0, 500000)
        ds = make_ds(np.zeros((3, 1, 1, 1)), start=start, stride_hours=1.5)
        back = load_dataset(save_dataset(ds, tmp_path / "d.ften"))
        assert back.timestamps.tolist() == [start + timedelta(hours=1.5 * i) for i in range(3)]

    def test_sidecar_timestamps_are_isoformat(self, tmp_path):
        ds = make_ds(np.zeros((3, 1, 1, 1)), start=datetime(2000, 2, 28, 18), stride_hours=6)
        path = save_dataset(ds, tmp_path / "d.ften")
        meta = json.loads((tmp_path / "d.ften.meta.json").read_text())
        assert meta["timestamps"] == [t.isoformat() for t in ds.timestamps.tolist()]
        assert set(meta) == {"timestamps", "variables", "lats", "lons"}
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name, "d.ften.meta.json"]

    def test_older_layout_with_static_key_loads(self, tmp_path):
        # written byte for byte as the format's writer did when it still
        # stored static fields: a "static" sidecar key naming an extra file
        data = np.arange(24, dtype=np.float32).reshape(3, 2, 2, 2)
        path = tmp_path / "old.ften"
        path.write_bytes(b"FTEN" + struct.pack("<5I", 1, 3, 2, 2, 2) + data.astype("<f4").tobytes())
        static = tmp_path / "old.static.orography.ften"
        static.write_bytes(
            b"FTEN" + struct.pack("<5I", 1, 1, 1, 2, 2) + np.full(4, 0.5, "<f4").tobytes()
        )
        meta = {
            "timestamps": ["2000-01-01T00:00:00", "2000-01-01T06:00:00", "2000-01-01T12:00:00"],
            "variables": ["synthetic_0", "synthetic_1"],
            "lats": [-30.0, 30.0],
            "lons": [0.0, 300.0],
            "static": {"orography": static.name},
        }
        (tmp_path / "old.ften.meta.json").write_text(json.dumps(meta, indent=2))
        back = load_dataset(path)
        assert back.data.tobytes() == data.tobytes()
        assert back.timestamps.tolist() == [datetime(2000, 1, 1, h) for h in (0, 6, 12)]
        assert back.variables == ["synthetic_0", "synthetic_1"]

    @settings(max_examples=60, deadline=None)
    @given(n_times=st.integers(1, 4),
           start_us=st.integers(0, 40 * 366 * 86_400 * 10**6),
           stride_us=st.one_of(st.integers(1, 10**6), st.integers(1, 10**11)),
           variables=st.lists(st.sampled_from(["z500", "t2m", "u10", "synthetic_0",
                                               "synthetic_12"]), min_size=1, max_size=3,
                              unique=True),
           lats=st.lists(st.floats(-90, 90), min_size=1, max_size=3, unique=True),
           lons=st.lists(st.floats(-180, 359.9), min_size=1, max_size=3, unique=True),
           descending=st.booleans(), static=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_save_load_round_trip(self, tmp_path_factory, n_times, start_us, stride_us,
                                  variables, lats, lons, descending, static, seed):
        """What ``save_dataset`` writes, ``load_dataset`` accepts and reads back
        equal: microsecond timestamps, negative longitudes, several variables,
        and a sidecar with an old-style ``static`` key."""
        start = np.datetime64("1990-01-01", "us") + np.timedelta64(start_us, "us")
        ts = start + np.timedelta64(stride_us, "us") * np.arange(n_times)
        grid = GridSpec(sorted(lats, reverse=descending), sorted(lons))
        data = np.random.default_rng(seed).standard_normal(
            (n_times, len(variables), grid.n_lat, grid.n_lon)).astype(np.float32)
        ds = GriddedDataset(grid, variables, ts, data)
        path = save_dataset(ds, tmp_path_factory.mktemp("rt") / "d.ften")
        if static:
            sidecar = path.with_name(path.name + ".meta.json")
            sidecar.write_text(json.dumps(dict(json.loads(sidecar.read_text()),
                                               static={"orography": "d.static.ften"})))
        back = load_dataset(path)
        assert back.data.tobytes() == ds.data.tobytes()
        assert np.array_equal(back.timestamps, ds.timestamps)
        assert back.variables == ds.variables
        assert np.array_equal(back.grid.lats, grid.lats)
        assert np.array_equal(back.grid.lons, grid.lons)

    def test_unparseable_timestamp_names_sidecar(self, tmp_path):
        ds = make_ds(np.zeros((2, 1, 2, 2), dtype=np.float32))
        path = save_dataset(ds, tmp_path / "d.ften")
        sidecar = tmp_path / "d.ften.meta.json"
        meta = json.loads(sidecar.read_text())
        meta["timestamps"][1] = "2000-01-01T25:00:00"
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(DatasetError, match="d.ften.meta.json"):
            load_dataset(path)

    def test_ws10_never_stored(self, tmp_path):
        ds = make_ds(np.zeros((2, 2, 2, 2), dtype=np.float32), variables=["u10", "v10"])
        ds.variables[1] = "ws10"
        with pytest.raises(DatasetError, match="ws10"):
            save_dataset(ds, tmp_path / "d.ften")


class TestStandardization:
    def test_hand_mean_std(self):
        vals = np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1, 1)
        ds = make_ds(vals)
        stats = fit_standardization(ds, SplitSpec((2000, 2000)))
        assert stats.means["synthetic_0"] == pytest.approx(2.0)
        assert stats.stds["synthetic_0"] == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-6)

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
        s1 = fit_standardization(ds1, split)
        s2 = fit_standardization(ds2, split)
        assert s1 == s2

    def test_standardize_hand_values(self):
        ds = make_ds(np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1, 1))
        stats = fit_standardization(ds, SplitSpec((2000, 2000)))
        out = standardize(ds, stats)
        np.testing.assert_allclose(
            out.data.ravel(), [-1.2247449, 0.0, 1.2247449], atol=1e-5
        )

    def test_identity_stats(self):
        from stratacast.dataset import StandardizationStats

        ds = make_ds(np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1, 1))
        out = standardize(ds, StandardizationStats({"synthetic_0": 0.0}, {"synthetic_0": 1.0}))
        np.testing.assert_array_equal(out.data, ds.data)

    def test_round_trip_invert(self, toy_dataset):
        split = SplitSpec((2000, 2001))
        stats = fit_standardization(toy_dataset, split)
        out = standardize(toy_dataset, stats)
        for v, name in enumerate(toy_dataset.variables):
            back = out.data[:, v].astype(np.float64) * stats.stds[name] + stats.means[name]
            np.testing.assert_allclose(
                back, toy_dataset.data[:, v], rtol=1e-5, atol=1e-4
            )

    def test_standardized_train_moments(self, toy_dataset):
        split = SplitSpec((2000, 2001))
        stats = fit_standardization(toy_dataset, split)
        out = standardize(toy_dataset, stats)
        for v in range(len(out.variables)):
            vals = out.data[:, v].astype(np.float64)
            assert abs(vals.mean()) < 1e-5
            assert abs(vals.std() - 1.0) < 1e-5

    def test_overflow_to_inf_rejected_with_index(self):
        # a training std of ~6e-8 maps the finite 3e38 at time index 5 (2001)
        # past the float32 range: the one place checked data turns non-finite
        vals = np.array([1.0, 1.0000001, 1.0, 1.0000001, 1.0, 3e38]).reshape(6, 1, 1, 1)
        ds = make_ds(vals, stride_hours=24 * 100)
        stats = fit_standardization(ds, SplitSpec((2000, 2000)))
        assert stats.stds["synthetic_0"] < 1e-7
        with np.errstate(over="ignore"), pytest.raises(DatasetError, match="time index 5"):
            standardize(ds, stats)

    def test_missing_variable_in_stats(self, toy_dataset):
        from stratacast.dataset import StandardizationStats

        stats = StandardizationStats({"synthetic_0": 0.0}, {"synthetic_0": 1.0})
        with pytest.raises(DatasetError, match="synthetic_1"):
            standardize(toy_dataset, stats)


class TestValidInitTimes:
    def test_hourly_year_count(self):
        ds = make_ds(np.random.default_rng(0).normal(size=(8760, 1, 1, 1)))
        idx = valid_init_times(ds, SplitSpec((2000, 2000)), "train", 240.0, 24.0)
        assert len(idx) == 8496
        # contiguous range
        assert idx == list(range(idx[0], idx[-1] + 1))

    def test_no_exclusion(self):
        ds = make_ds(np.random.default_rng(0).normal(size=(100, 1, 1, 1)))
        idx = valid_init_times(ds, SplitSpec((2000, 2000)), "train", 0.0, 0.0)
        assert idx == list(range(100))

    def test_too_short_split_empty(self):
        ds = make_ds(np.random.default_rng(0).normal(size=(100, 1, 1, 1)))
        idx = valid_init_times(ds, SplitSpec((2000, 2000)), "train", 240.0, 24.0)
        assert idx == []


# datetime-loop oracles for the array arithmetic on the time axis

def _oracle_split(ts, years):
    lo, hi = years
    return [i for i, t in enumerate(ts) if lo <= t.year <= hi]


def _oracle_valid_inits(ts, years, max_lead_hours, history_hours):
    idx = _oracle_split(ts, years)
    if not idx:
        return []
    lo = ts[idx[0]] + timedelta(hours=history_hours)
    hi = ts[idx[-1]] - timedelta(hours=max_lead_hours)
    return [i for i in idx if lo <= ts[i] <= hi]


def _oracle_rejects(ts):
    deltas = {(b - a).total_seconds() for a, b in zip(ts[:-1], ts[1:])}
    return len(ts) > 1 and (len(deltas) != 1 or min(deltas) <= 0)


def _series(ts):
    return GriddedDataset(GridSpec([0.0], [0.0]), ["synthetic_0"], ts, np.zeros((len(ts), 1, 1, 1)))


# strides that divide 24 h and strides that do not
STRIDES = [1, 2, 3, 4, 6, 8, 12, 24, 48, 5, 7, 10, 25, 36, 100, 720]


@st.composite
def time_axes(draw, max_steps=600):
    # 1999-2005 holds the leap years 2000 and 2004; starts fall anywhere in a year
    start = datetime(draw(st.integers(1999, 2005)), 1, 1) + timedelta(
        hours=draw(st.integers(0, 366 * 24 - 1))
    )
    stride = draw(st.sampled_from(STRIDES))
    n = draw(st.integers(1, max_steps))
    return [start + timedelta(hours=stride * i) for i in range(n)]


class TestTimeAxisOracles:
    @settings(max_examples=150, deadline=None)
    @given(ts=time_axes(), first=st.integers(-1, 3), span=st.integers(0, 3),
           max_lead=st.integers(0, 3000), history=st.integers(0, 500))
    @example(ts=[datetime(2000, 6, 1)], first=1, span=0, max_lead=0, history=0)  # one step
    @example(ts=[datetime(2000, 12, 31, 22), datetime(2000, 12, 31, 23)],  # split too short
             first=1, span=0, max_lead=24, history=0)
    def test_matches_datetime_loops(self, ts, first, span, max_lead, history):
        ds = _series(ts)
        years = (ts[0].year + first, ts[0].year + first + span)
        assert split_time_indices(ds, years).tolist() == _oracle_split(ts, years)
        assert ds.months().tolist() == [t.month for t in ts]
        inits = valid_init_times(ds, SplitSpec(years), "train", float(max_lead), float(history))
        assert inits == _oracle_valid_inits(ts, years, max_lead, history)
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


class TestSplitSpec:
    def test_overlap_rejected(self):
        with pytest.raises(DatasetError):
            SplitSpec((2000, 2005), (2005, 2006), None)

    def test_disjoint_ok(self):
        SplitSpec((2000, 2004), (2005, 2006), (2007, 2007))


class TestSharedRules:
    @pytest.mark.parametrize("name", ["INTEGER", "NUMBER", "COUNT", "SEED", "POSITIVE",
                                      "FRACTION"])
    @pytest.mark.parametrize("value", [True, None, float("nan"), float("inf"), float("-inf"),
                                       "1"], ids=["true", "none", "nan", "inf", "-inf", "string"])
    def test_refuses_what_is_not_a_finite_number(self, name, value):
        rule = getattr(dsmod, name)
        assert rule.ok(1)
        assert not rule.ok(value)
