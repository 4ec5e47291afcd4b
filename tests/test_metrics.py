import math
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratacast.dataset import DatasetError, GriddedDataset, GridSpec
from stratacast.forecast import EnsembleForecast
from stratacast.metrics import (
    MetricError,
    MetricRecord,
    area_weights,
    crps_ensemble,
    ensemble_spread,
    evaluate_forecast,
    records_to_csv,
    rmse,
    ssr,
)


class TestAreaWeights:
    def test_flat_all_ones(self, small_grid):
        np.testing.assert_array_equal(area_weights(small_grid, flat=True), 1.0)

    def test_hand_two_latitudes(self):
        grid = GridSpec(np.array([0.0, 60.0]), np.array([0.0, 90.0, 180.0]))
        w = area_weights(grid)
        np.testing.assert_allclose(w[0], 4.0 / 3.0, rtol=1e-6)
        np.testing.assert_allclose(w[1], 2.0 / 3.0, rtol=1e-6)

    def test_mean_one_random_grids(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            lats = np.sort(rng.uniform(-89, 89, size=rng.integers(2, 12)))
            if np.unique(lats).size != lats.size:
                continue
            grid = GridSpec(lats, np.array([0.0, 120.0, 240.0]))
            assert area_weights(grid).mean() == pytest.approx(1.0, abs=1e-9)

    def test_pole_floor_positive(self):
        grid = GridSpec(np.array([-90.0, 0.0, 90.0]), np.array([0.0]))
        assert (area_weights(grid) > 0).all()


class TestRmse:
    def test_zero_for_perfect(self):
        x = np.random.default_rng(1).normal(size=(3, 2, 2))
        assert rmse(x, x, np.ones((2, 2))) == 0.0

    def test_hand_two_cells(self):
        ens_mean = np.array([[[0.0, 2.0]]])
        truth = np.zeros((1, 1, 2))
        assert rmse(ens_mean, truth, np.ones((1, 2))) == pytest.approx(math.sqrt(2.0))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(4, 3, 5))
        b = rng.normal(size=(4, 3, 5))
        w = rng.uniform(0.5, 2.0, size=(3, 5))
        w = w / w.mean()
        acc = 0.0
        count = 0
        for c in range(4):
            for i in range(3):
                for j in range(5):
                    acc += w[i, j] * (a[c, i, j] - b[c, i, j]) ** 2
                    count += 1
        assert rmse(a, b, w) == pytest.approx(math.sqrt(acc / count), abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(MetricError):
            rmse(np.zeros((2, 2)), np.zeros((3, 2)), np.ones((2, 2)))


class TestCrps:
    def test_perfect_deterministic(self):
        assert crps_ensemble(np.array([1.0, 1.0]), 1.0) == pytest.approx(0.0)

    def test_hand_case_inside(self):
        # members {0,2}, y=1: term1 = 1, pairwise term = 1 -> 0
        assert crps_ensemble(np.array([0.0, 2.0]), 1.0) == pytest.approx(0.0)

    def test_hand_case_outside(self):
        # members {0,2}, y=3: term1 = 2, pairwise term = 1 -> 1
        assert crps_ensemble(np.array([0.0, 2.0]), 3.0) == pytest.approx(1.0)

    def test_single_member_absolute_error(self):
        assert crps_ensemble(np.array([2.5]), 1.0) == pytest.approx(1.5)

    def test_gaussian_closed_form(self):
        # CRPS of N(0,1) at y=0 is 2*phi(0) - 1/sqrt(pi) ~ 0.23373
        rng = np.random.default_rng(3)
        members = rng.standard_normal(1000)
        expected = 2.0 / math.sqrt(2 * math.pi) - 1.0 / math.sqrt(math.pi)
        assert crps_ensemble(members, 0.0) == pytest.approx(expected, abs=0.01)

    def test_nonnegative_and_degenerate_zero(self):
        # fair CRPS can legitimately hit 0 with spread (e.g. {0,2}, y=1),
        # so only the forward direction of the zero condition is assertable
        rng = np.random.default_rng(4)
        for _ in range(200):
            m = int(rng.integers(1, 9))
            members = rng.normal(size=m)
            y = rng.normal()
            assert float(crps_ensemble(members, y)) >= -1e-12
        assert crps_ensemble(np.full(5, 2.0), 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(5)
        members = rng.normal(size=7)
        y = rng.normal()
        base = float(crps_ensemble(members, y))
        for c in (0.5, 3.0, 100.0):
            assert float(crps_ensemble(c * members, c * y)) == pytest.approx(
                c * base, abs=1e-9 * max(1, c)
            )

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 50])
    def test_sorted_identity_matches_pairwise_form(self, m):
        rng = np.random.default_rng(m)
        members = rng.normal(size=(m, 3, 5))
        y = rng.normal(size=(3, 5))
        pair = np.zeros((3, 5))
        for i in range(m):
            for j in range(i + 1, m):
                pair += np.abs(members[i] - members[j])
        expected = np.mean(np.abs(members - y), axis=0)
        if m > 1:
            expected = expected - pair / (m * (m - 1))
        np.testing.assert_allclose(crps_ensemble(members, y), expected, rtol=0, atol=1e-12)

    def test_field_shape(self):
        rng = np.random.default_rng(6)
        members = rng.normal(size=(4, 3, 5))
        y = rng.normal(size=(3, 5))
        out = crps_ensemble(members, y)
        assert out.shape == (3, 5)
        for i in range(3):
            for j in range(5):
                assert out[i, j] == pytest.approx(
                    float(crps_ensemble(members[:, i, j], y[i, j])), abs=1e-12
                )


class TestSsr:
    def test_identical_members_zero_spread(self):
        members = np.ones((3, 2, 1, 1))
        truth = np.zeros((2, 1, 1))
        assert ssr(members, truth, np.ones((1, 1))) == pytest.approx(0.0)

    def test_calibrated_ensemble_near_one(self):
        rng = np.random.default_rng(7)
        m, cases = 20, 10_000
        members = rng.standard_normal((m, cases, 1, 1))
        truth = rng.standard_normal((cases, 1, 1))
        val = ssr(members, truth, np.ones((1, 1)))
        assert val == pytest.approx(1.0, abs=0.05)

    def test_spread_component_scales_linearly(self):
        rng = np.random.default_rng(8)
        members = rng.normal(size=(6, 10, 2, 2))
        w = np.ones((2, 2))
        base = ensemble_spread(members, w)
        mean = members.mean(axis=0, keepdims=True)
        doubled = mean + 2.0 * (members - mean)
        assert ensemble_spread(doubled, w) == pytest.approx(2.0 * base, rel=1e-9)

    def test_errors(self):
        w = np.ones((1, 1))
        with pytest.raises(MetricError):
            ssr(np.zeros((1, 2, 1, 1)), np.zeros((2, 1, 1)), w)
        with pytest.raises(MetricError):
            ssr(np.zeros((3, 2, 1, 1)), np.zeros((2, 1, 1)), w)  # zero skill

    def test_rmse_equals_crps_single_member_single_cell(self):
        x = np.array([[[1.7]]])
        y = np.array([[[0.5]]])
        w = np.ones((1, 1))
        assert rmse(x, y, w) == pytest.approx(1.2)
        assert float(crps_ensemble(x[None, 0, 0, 0], y[0, 0, 0])) == pytest.approx(1.2)


class TestMetricRecord:
    def test_csv_schema(self):
        rec = MetricRecord("random", "z500", 5, 267.02, 571.24, 0.85)
        csv = records_to_csv([rec])
        lines = csv.strip().split("\n")
        assert lines[0] == "method,variable,lead_days,crps,rmse,ssr"
        assert lines[1] == "random,z500,5,267.02,571.24,0.85"
        rec.seed = 3  # per-seed rows carry a seed column
        assert records_to_csv([rec]).split("\n")[:2] == [
            "method,seed,variable,lead_days,crps,rmse,ssr", "random,3,z500,5,267.02,571.24,0.85"]

    def test_lead_bounds(self):
        # any integer lead >= 1: rollouts may run past 10 days
        assert MetricRecord("x", "z500", 12, 1.0, 1.0, 1.0).lead_days == 12
        for lead in (0, -1, "5", 5.0, True):
            with pytest.raises(MetricError, match="lead_days"):
                MetricRecord("x", "z500", lead, 1.0, 1.0, 1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(MetricError):
            MetricRecord("x", "z500", 5, float("nan"), 1.0, 1.0)


# ---------------------------------------------------------------------------
# evaluate_forecast against the per-metric casts it replaced
# ---------------------------------------------------------------------------

def _reference_crps(members, y):
    """Fair CRPS with its own float64 cast and fresh temporaries (the oracle)."""
    members = np.asarray(members, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m = members.shape[0]
    term1 = np.mean(np.abs(members - y), axis=0)
    if m == 1:
        return term1
    coef = (2.0 * np.arange(1, m + 1) - m - 1).reshape((m,) + (1,) * (members.ndim - 1))
    pair = (coef * np.sort(members, axis=0)).sum(axis=0)
    return term1 - pair / (m * (m - 1))


def _reference_evaluate(fc, truth, leads_days, w):
    """``evaluate_forecast`` with one float64 cast per metric, as the oracle:
    [(crps, rmse, ssr)] per (lead, variable)."""
    out = []
    for lead in leads_days:
        step = int(round(lead * 24 / fc.lead_stride_hours)) - 1
        idx = np.asarray(fc.init_indices) + int(round(lead * 24 / truth.stride_hours))
        for v in range(len(truth.variables)):
            members = fc.trajectories[:, :, step, v].transpose(1, 0, 2, 3)
            obs = truth.data[idx, v].astype(np.float64)
            crps_val = float(np.mean(_reference_crps(members, obs) * w))
            rmse_val = rmse(members.mean(axis=0), obs, w)
            try:
                ssr_val = ssr(members, obs, w)
            except MetricError:
                ssr_val = 0.0
            out.append((crps_val, rmse_val, ssr_val))
    return out


@st.composite
def forecast_cases(draw):
    """(forecast, truth, weights): random float32 members on 1x1 to 4x8 grids."""
    m = draw(st.sampled_from([1, 2, 3, 8, 9]))
    n_lat, n_lon = draw(st.sampled_from([(1, 1), (2, 3), (4, 8)]))
    n_var = draw(st.integers(1, 2))
    n_init = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n_times = n_init + 3
    truth = GriddedDataset(
        grid=GridSpec(np.linspace(-40, 40, n_lat), np.linspace(0, 300, n_lon)),
        variables=[f"synthetic_{v}" for v in range(n_var)],
        timestamps=[datetime(2000, 1, 1) + timedelta(days=i) for i in range(n_times)],
        data=rng.standard_normal((n_times, n_var, n_lat, n_lon)),
    )
    traj = rng.standard_normal((n_init, m, 2, n_var, n_lat, n_lon)).astype(np.float32)
    if draw(st.booleans()):
        traj[:, :, :, :, 0, 0] = 0.5  # ties among the members, zero spread
    fc = EnsembleForecast(init_indices=list(range(n_init)), trajectories=traj)
    w = area_weights(truth.grid, flat=draw(st.booleans()))
    return fc, truth, w


class TestEvaluateOracle:
    @settings(max_examples=80, deadline=None)
    @given(case=forecast_cases())
    def test_records_equal_per_metric_casts(self, case):
        fc, truth, w = case
        got = [(r.crps, r.rmse, r.ssr) for r in evaluate_forecast(fc, truth, (1, 2), w)]
        assert np.array(got).tobytes() == np.array(_reference_evaluate(fc, truth, (1, 2), w)).tobytes()

    @pytest.mark.parametrize("m", [1, 2, 8])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_crps_equals_fresh_temporaries(self, m, dtype):
        rng = np.random.default_rng(m)
        # a transposed view, as evaluate_forecast passes it
        members = rng.standard_normal((5, m, 3, 4)).astype(dtype).transpose(1, 0, 2, 3)
        y = rng.standard_normal((5, 3, 4))
        assert crps_ensemble(members, y).tobytes() == _reference_crps(members, y).tobytes()


class TestOneStepTruth:
    def test_names_the_missing_target(self):
        truth = GriddedDataset(
            grid=GridSpec(np.array([0.0, 10.0]), np.array([0.0])),
            variables=["synthetic_0"],
            timestamps=[datetime(2001, 3, 1)],
            data=np.array([[[[1.0], [2.0]]]]),
        )
        fc = EnsembleForecast(
            init_indices=[0], trajectories=np.zeros((1, 2, 5, 1, 2, 1), dtype=np.float32)
        )
        with pytest.raises(DatasetError, match="stride undefined for a single-timestep dataset"):
            evaluate_forecast(fc, truth, leads_days=(5,))
