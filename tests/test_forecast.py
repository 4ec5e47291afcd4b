import math
import re
import subprocess
import sys
import threading
import tracemalloc
from datetime import datetime, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stratacast import forecast as forecast_mod
from stratacast.dataset import DatasetError, GriddedDataset, GridSpec, SplitSpec
from stratacast.features import FeatureError, spatial_mean_matrix
from stratacast.forecast import (
    ClimatologyForecaster,
    EnsembleForecast,
    ForecastError,
    ForecasterSpec,
    PersistenceForecaster,
    StochasticLinearForecaster,
    ToyDiffusionForecaster,
    load_forecast,
    load_forecaster,
    rollout,
    rollout_leads,
    save_forecast,
    save_forecaster,
    train,
)
from stratacast.metrics import MetricError, crps_ensemble, evaluate_forecast
from stratacast.selection import SelectionBudget, SelectionError, SubsetSelection, run_strategy
from stratacast.synthetic import SyntheticConfig, generate


def series_ds(values, stride_hours=24, start=datetime(2000, 1, 1), nvar=1):
    values = np.asarray(values, dtype=np.float32)
    if values.ndim == 1:
        values = values.reshape(-1, 1, 1, 1)
    ts = [start + timedelta(hours=stride_hours * i) for i in range(values.shape[0])]
    nlat, nlon = values.shape[2], values.shape[3]
    return GriddedDataset(
        grid=GridSpec(np.linspace(-10, 10, nlat) if nlat > 1 else np.array([0.0]),
                      np.linspace(0, 300, nlon) if nlon > 1 else np.array([0.0])),
        variables=[f"synthetic_{k}" for k in range(values.shape[1])],
        timestamps=ts,
        data=values,
    )


def full_selection(ds):
    return run_strategy("full", ds, range(ds.n_times), SelectionBudget(1.0), 0)


class TestStochasticLinear:
    def test_exact_persistence_dynamics(self):
        # 12h stride, period-24h series: x_{t+24h} = x_t with varying values
        vals = np.tile([1.0, 5.0], 50)
        ds = series_ds(vals, stride_hours=12)
        spec = ForecasterSpec("stochastic_linear", {"ridge_lambda": 1e-9})
        model = train(spec, ds, full_selection(ds), seed=0)
        assert model.a.ravel()[0] == pytest.approx(1.0, abs=1e-3)
        assert model.b.ravel()[0] == pytest.approx(0.0, abs=1e-3)
        assert model.resid_std.ravel()[0] == pytest.approx(0.0, abs=1e-6)

    def test_recovers_planted_ar1(self):
        rng = np.random.default_rng(0)
        a_true, noise = 0.7, 0.3
        x = np.zeros(2000)
        for i in range(1, 2000):
            x[i] = a_true * x[i - 1] + noise * rng.standard_normal()
        ds = series_ds(x, stride_hours=24)
        spec = ForecasterSpec("stochastic_linear", {"ridge_lambda": 1e-6})
        model = train(spec, ds, full_selection(ds), seed=0)
        assert model.a.ravel()[0] == pytest.approx(a_true, abs=0.05)
        assert model.resid_std.ravel()[0] == pytest.approx(noise, abs=0.05)

    def test_too_few_pairs(self):
        ds = series_ds([1.0, 2.0])
        sel = SubsetSelection("full", [1], 1.0, 0)  # index 1 has no successor
        with pytest.raises(ForecastError, match="pairs"):
            train(ForecasterSpec("stochastic_linear"), ds, sel, seed=0)

    @pytest.mark.parametrize("kind", ["stochastic_linear", "toy_diffusion"])
    @pytest.mark.parametrize("indices, repeat", [([40] * 73, 40), ([3, 5, 7, 9, 7, 3, 5], 7)])
    def test_subset_whose_indices_repeat_is_refused(self, kind, indices, repeat):
        """Duplicated pairs would fit a model with too little spread (a
        ``resid_std`` of 0 for one pair 73 times), so the subset is refused
        when it is built, naming the first index listed again, and no kind
        is ever fitted on it."""
        ds = series_ds(np.arange(100.0))
        with pytest.raises(SelectionError,
                           match=f"^index {repeat} is listed more than once in the random subset$"):
            train(ForecasterSpec(kind), ds, SubsetSelection("random", indices, 0.2, 0), seed=0)

    def test_json_round_trip(self, tmp_path):
        ds = series_ds(np.random.default_rng(1).normal(size=50))
        model = train(ForecasterSpec("stochastic_linear"), ds, full_selection(ds), seed=0)
        save_forecaster(model, tmp_path / "m")
        back = load_forecaster(tmp_path / "m")
        np.testing.assert_allclose(back.a, model.a)
        np.testing.assert_allclose(back.resid_std, model.resid_std)


def _reference_fit(ds, pair_idx, off, ridge_lambda):
    """The stochastic_linear fit on whole-set float64 pair copies, kept as the
    oracle. Returns ``(a, b, resid_std)``."""
    x = ds.data[pair_idx].astype(np.float64)
    y = ds.data[pair_idx + off].astype(np.float64)
    xm = x.mean(axis=0)
    ym = y.mean(axis=0)
    sxx = ((x - xm) ** 2).sum(axis=0)
    sxy = ((x - xm) * (y - ym)).sum(axis=0)
    a = sxy / (sxx + ridge_lambda)
    b = ym - a * xm
    resid = y - (a * x + b)
    return a, b, resid.std(axis=0)


class TestStochasticLinearOracle:
    """The column-chunked fit and the in-place step equal the whole-array
    code bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from([(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 1, 5), (2, 3, 5),
                               (1, 4, 8)]),
        n_pairs=st.integers(2, 60),
        chunk_values=st.sampled_from([2, 7, 40, 1 << 17]),
        seed=st.integers(0, 2**16),
    )
    def test_chunked_fit_equals_whole_array_fit(self, shape, n_pairs, chunk_values, seed):
        # chunk_values / n_pairs columns per chunk: from the 2-column floor to
        # one chunk, with and without a lone last column to merge
        rng = np.random.default_rng(seed)
        ds = series_ds(rng.standard_normal((n_pairs + 5,) + shape) * 3.0)
        pair_idx = np.sort(rng.choice(n_pairs + 4, size=n_pairs, replace=False))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forecast_mod, "_FIT_CHUNK_VALUES", chunk_values)
            model = forecast_mod._fit_stochastic_linear(ds, pair_idx, 1, 1e-3)
        for got, want in zip((model.a, model.b, model.resid_std),
                             _reference_fit(ds, pair_idx, 1, 1e-3)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 9), shape=st.sampled_from([(1, 1, 1), (2, 3, 4)]),
           seed=st.integers(0, 2**16))
    def test_step_equals_three_operation_form(self, rows, shape, seed):
        rng = np.random.default_rng(seed)
        a, b, std = rng.standard_normal((3,) + shape)
        model = forecast_mod.StochasticLinearForecaster(a, b, np.abs(std))
        states = rng.standard_normal((rows,) + shape) * 10.0
        got = model.step(states, np.random.default_rng(seed), None)
        noise = np.random.default_rng(seed).standard_normal(states.shape)
        assert got.tobytes() == (a * states + b + np.abs(std) * noise).tobytes()

    def test_step_leaves_the_array_its_rng_returned_unchanged(self):
        rng = np.random.default_rng(3)
        a, b, std = rng.standard_normal((3, 2, 3, 4))
        model = StochasticLinearForecaster(a, b, np.abs(std))
        drawn = []

        class Recorded:
            def standard_normal(self, shape):
                drawn.append(np.random.default_rng(4).standard_normal(shape))
                return drawn[-1]

        model.step(rng.standard_normal((5, 2, 3, 4)), Recorded(), None)
        assert drawn[0].tobytes() == np.random.default_rng(4).standard_normal((5, 2, 3, 4)).tobytes()

    @pytest.mark.parametrize("chunk_values", [1 << 17, 900])
    def test_two_variable_fit_through_train(self, two_var_grid, monkeypatch, chunk_values):
        # 64 columns and 300 pairs: one chunk, or 3-column chunks whose lone
        # last column joins the chunk before it
        monkeypatch.setattr(forecast_mod, "_FIT_CHUNK_VALUES", chunk_values)
        sel = SubsetSelection("full", list(range(300)), 1.0, 0)
        model = train(ForecasterSpec("stochastic_linear"), two_var_grid, sel)
        pair_idx, off = forecast_mod._pairs_from_subset(two_var_grid, sel)
        want = _reference_fit(two_var_grid, pair_idx, off, 1e-3)
        for got, ref in zip((model.a, model.b, model.resid_std), want):
            assert got.tobytes() == ref.tobytes()


class TestPersistence:
    def test_train_noop_and_identity_step(self):
        model = train(ForecasterSpec("persistence"), None, None)
        states = np.random.default_rng(2).normal(size=(3, 1, 2, 2))
        times = np.full(3, np.datetime64("2000-01-02"), dtype="datetime64[us]")
        out = model.step(states, np.random.default_rng(0), times)
        np.testing.assert_array_equal(out, states)


@pytest.fixture(scope="module")
def noisefree(small_grid):
    cfg = SyntheticConfig(
        grid=small_grid, n_years=2, stride_hours=24, seasonal_amplitude=2.0,
        regime_amplitude=1.0, ar1_coefficient=0.0, noise_std=0.0, seed=3,
    )
    return generate(cfg)


class TestClimatology:
    def test_matches_training_monthly_means(self, noisefree):
        split = SplitSpec((2000, 2000))
        model = ClimatologyForecaster.fit(noisefree, None, split, {}, 0)
        months = noisefree.months()
        train_years = np.array([t.year for t in noisefree.timestamps.tolist()]) == 2000
        times = np.array([datetime(2001, m, 15) for m in (1, 6, 12)], dtype="datetime64[us]")
        got = model.step(None, None, times)
        for row, month in enumerate((1, 6, 12)):
            sel = np.nonzero((months == month) & train_years)[0]
            expected = noisefree.data[sel].astype(np.float64).mean(axis=0)
            np.testing.assert_allclose(got[row], expected, atol=1e-4)

    def test_deterministic_zero_spread(self, noisefree):
        split = SplitSpec((2000, 2000))
        model = ClimatologyForecaster.fit(noisefree, None, split, {}, 0)
        fc = rollout(model, noisefree, [400], n_members=4, n_steps=3, seed=0)
        for m in range(1, 4):
            np.testing.assert_array_equal(fc.trajectories[0, m], fc.trajectories[0, 0])

    def test_missing_month_rejected(self):
        ds = series_ds(np.random.default_rng(4).normal(size=40))  # ~6 weeks only
        with pytest.raises(ForecastError, match="months"):
            ClimatologyForecaster.fit(ds, None, SplitSpec((2000, 2000)), {}, 0)

    @pytest.mark.parametrize("start, n_days, missing", [
        (datetime(2000, 3, 1), 400, [1, 2]),              # training year from March
        (datetime(2000, 1, 1), 60, list(range(3, 13))),  # January and February only
    ])
    def test_missing_months_listed(self, start, n_days, missing):
        ds = series_ds(np.random.default_rng(4).normal(size=n_days), start=start)
        with pytest.raises(ForecastError) as e:
            ClimatologyForecaster.fit(ds, None, SplitSpec((2000, 2000)), {}, 0)
        assert str(e.value) == f"training split has no data for months {missing}"


class TestRollout:
    def test_persistence_fixed_point(self):
        ds = series_ds(np.random.default_rng(5).normal(size=400))
        fc = rollout(PersistenceForecaster(), ds, [10, 20], n_members=3, n_steps=10, seed=1)
        for ii, t0 in enumerate([10, 20]):
            for m in range(3):
                for k in range(10):
                    np.testing.assert_array_equal(
                        fc.trajectories[ii, m, k], ds.data[t0]
                    )

    def test_lead_axis_reaches_240h(self):
        ds = series_ds(np.random.default_rng(6).normal(size=400))
        fc = rollout(PersistenceForecaster(), ds, [0], n_members=1, n_steps=10, seed=0)
        assert fc.trajectories.shape[2] == 10
        assert fc.n_steps * fc.lead_stride_hours == 240.0

    def test_bitwise_determinism(self):
        ds = series_ds(np.random.default_rng(7).normal(size=300))
        model = train(ForecasterSpec("stochastic_linear"), ds, full_selection(ds), seed=0)
        a = rollout(model, ds, [5, 50], n_members=4, n_steps=10, seed=3)
        b = rollout(model, ds, [5, 50], n_members=4, n_steps=10, seed=3)
        assert a.trajectories.tobytes() == b.trajectories.tobytes()

    def test_same_seed_same_member_stream(self):
        ds = series_ds(np.random.default_rng(8).normal(size=300))
        model = train(ForecasterSpec("stochastic_linear"), ds, full_selection(ds), seed=0)
        a = rollout(model, ds, [5], n_members=1, n_steps=5, seed=11)
        b = rollout(model, ds, [5], n_members=1, n_steps=5, seed=11)
        np.testing.assert_array_equal(a.trajectories, b.trajectories)

    def test_members_differ(self):
        ds = series_ds(np.random.default_rng(9).normal(size=300))
        model = train(ForecasterSpec("stochastic_linear"), ds, full_selection(ds), seed=0)
        fc = rollout(model, ds, [5], n_members=2, n_steps=5, seed=0)
        assert not np.array_equal(fc.trajectories[0, 0], fc.trajectories[0, 1])

    def test_spread_grows_with_lead(self):
        rng = np.random.default_rng(10)
        x = np.zeros(800)
        for i in range(1, 800):
            x[i] = 0.8 * x[i - 1] + 0.3 * rng.standard_normal()
        ds = series_ds(x)
        model = train(ForecasterSpec("stochastic_linear"), ds, full_selection(ds), seed=0)
        inits = list(range(100, 400, 5))  # 60 inits
        fc = rollout(model, ds, inits, n_members=8, n_steps=10, seed=2)
        spread_1d = fc.trajectories[:, :, 0].std(axis=1).mean()
        spread_10d = fc.trajectories[:, :, 9].std(axis=1).mean()
        assert spread_10d > spread_1d

    def test_forecast_file_round_trip(self, tmp_path):
        ds = series_ds(np.random.default_rng(11).normal(size=300))
        fc = rollout(PersistenceForecaster(), ds, [3, 9], n_members=2, n_steps=4, seed=5)
        save_forecast(fc, tmp_path / "f")
        assert [p.name for p in tmp_path.iterdir()] == ["f.npz"]
        back = load_forecast(tmp_path / "f")
        assert back.trajectories.tobytes() == fc.trajectories.tobytes()
        assert (back.init_indices, back.n_members, back.lead_stride_hours, back.n_steps) == (
            fc.init_indices, fc.n_members, fc.lead_stride_hours, fc.n_steps
        )

    @pytest.mark.parametrize("entry", ["init_indices", "trajectories"])
    def test_load_names_missing_entry(self, tmp_path, entry):
        ds = series_ds(np.random.default_rng(11).normal(size=300))
        save_forecast(rollout(PersistenceForecaster(), ds, [3, 9], 2, 4, seed=5), tmp_path / "f")
        _drop_entry(tmp_path / "f.npz", entry)
        with pytest.raises(ForecastError, match=f"has no entry {entry!r}"):
            load_forecast(tmp_path / "f")

    @pytest.mark.parametrize("inits", [[3], [3, 9, 12]])
    def test_load_rejects_init_count_mismatch(self, tmp_path, inits):
        ds = series_ds(np.random.default_rng(11).normal(size=300))
        fc = rollout(PersistenceForecaster(), ds, [3, 9], n_members=2, n_steps=4, seed=5)
        np.savez(tmp_path / "f.npz", trajectories=fc.trajectories, init_indices=np.array(inits))
        with pytest.raises(ForecastError, match=r"f\.npz entry 'trajectories' has shape \(2, "):
            load_forecast(tmp_path / "f")
        with pytest.raises(ForecastError, match="6-D"):
            EnsembleForecast([3, 9], fc.trajectories[:, 0])

    def test_shape_gives_members_and_steps(self):
        fc = EnsembleForecast([4, 8], np.zeros((2, 3, 5, 1, 2, 2), dtype=np.float32))
        assert (fc.n_members, fc.n_steps, fc.lead_stride_hours) == (3, 5, 24.0)

    @pytest.mark.parametrize("size", [0, 100])
    def test_load_rejects_truncated_file(self, tmp_path, size):
        ds = series_ds(np.random.default_rng(11).normal(size=300))
        save_forecast(rollout(PersistenceForecaster(), ds, [3, 9], 2, 4, seed=5), tmp_path / "f")
        path = tmp_path / "f.npz"
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(ForecastError, match="not an npz archive"):
            load_forecast(tmp_path / "f")

    def test_load_rejects_non_finite_trajectory(self, tmp_path):
        ds = series_ds(np.random.default_rng(11).normal(size=300))
        fc = rollout(PersistenceForecaster(), ds, [3, 9], n_members=2, n_steps=4, seed=5)
        fc.trajectories[1, 0, 2] = np.nan
        save_forecast(fc, tmp_path / "f")
        with pytest.raises(ForecastError, match="non-finite"):
            load_forecast(tmp_path / "f")


class TestToyDiffusion:
    def test_training_loss_decreases(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(300)
        y = 0.5 * x + 0.3 * rng.standard_normal(300)
        data = np.empty(600, dtype=np.float64)
        data[0::2] = x
        data[1::2] = y
        ds = series_ds(data, stride_hours=12)
        sel = SubsetSelection("full", list(range(0, 600, 2)), 1.0, 0)
        spec = ForecasterSpec(
            "toy_diffusion",
            {"n_epochs": 30, "hidden_width": 32, "batch_size": 64},
        )
        model = train(spec, ds, sel, seed=0)
        assert model.training_losses[-1] < model.training_losses[0]

    def test_rollout_finite_and_deterministic(self):
        rng = np.random.default_rng(13)
        ds = series_ds(rng.standard_normal(200))
        spec = ForecasterSpec("toy_diffusion", {"n_epochs": 5, "hidden_width": 16})
        model = train(spec, ds, full_selection(ds), seed=0)
        a = rollout(model, ds, [10], n_members=2, n_steps=3, seed=7)
        b = rollout(model, ds, [10], n_members=2, n_steps=3, seed=7)
        assert a.trajectories.tobytes() == b.trajectories.tobytes()

    def test_weights_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        ds = series_ds(rng.standard_normal(100))
        spec = ForecasterSpec("toy_diffusion", {"n_epochs": 2, "hidden_width": 8})
        model = train(spec, ds, full_selection(ds), seed=0)
        save_forecaster(model, tmp_path / "d")
        back = load_forecaster(tmp_path / "d")
        cond = np.zeros((2, 1))
        out_a = back.sample(cond, np.random.default_rng(0))
        out_b = back.sample(cond, np.random.default_rng(0))
        np.testing.assert_array_equal(out_a, out_b)
        np.testing.assert_array_equal(back.w1, model.w1)


def _reference_train(ds, pair_idx, off, hyper, seed):
    """The toy_diffusion training loop with whole-set float64 pair copies and
    fresh per-batch arrays, kept verbatim as the oracle. Returns
    ``(w1, b1, w2, b2, training_losses)``."""
    table = forecast_mod.ToyDiffusionForecaster.hyperparameters
    hp = {k: default for k, (_, default) in table.items()}
    hp.update(hyper)
    rng = np.random.default_rng([seed, 7])
    cond = ds.data[pair_idx].astype(np.float64).reshape(pair_idx.size, -1)
    target = ds.data[pair_idx + off].astype(np.float64).reshape(pair_idx.size, -1)
    d = cond.shape[1]
    h = int(hp["hidden_width"])
    in_dim = 2 * d + 1

    w1 = rng.standard_normal((in_dim, h)) / math.sqrt(in_dim)
    b1 = np.zeros(h)
    w2 = rng.standard_normal((h, d)) / math.sqrt(h)
    b2 = np.zeros(d)

    sigmas = forecast_mod._log_linear_sigmas(
        hp["sigma_max"], hp["sigma_min"], int(hp["n_noise_levels"]))
    lr = float(hp["learning_rate"])
    n_epochs = int(hp["n_epochs"])
    batch = int(hp["batch_size"])
    params = [w1, b1, w2, b2]
    adam_m = [np.zeros_like(p) for p in params]
    adam_v = [np.zeros_like(p) for p in params]
    beta1, beta2, eps_adam = 0.9, 0.999, 1e-8
    t_adam = 0
    losses = []

    for epoch in range(n_epochs):
        order = rng.permutation(pair_idx.size)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, order.size, batch):
            rows = order[start : start + batch]
            c = cond[rows]
            y = target[rows]
            level = rng.integers(0, sigmas.size, size=rows.size)
            sigma = sigmas[level][:, None]
            eps = rng.standard_normal(y.shape)
            noisy = y + sigma * eps
            inp = np.concatenate([c, noisy, np.log(sigma)], axis=1)

            z1 = inp @ params[0] + params[1]
            hact = np.tanh(z1)
            pred = hact @ params[2] + params[3]
            diff = pred - eps
            loss = float(np.mean(diff ** 2))
            epoch_loss += loss
            n_batches += 1

            gout = 2.0 * diff / diff.size
            g_w2 = hact.T @ gout
            g_b2 = gout.sum(axis=0)
            gh = (gout @ params[2].T) * (1.0 - hact ** 2)
            g_w1 = inp.T @ gh
            g_b1 = gh.sum(axis=0)

            t_adam += 1
            for p, g, m_, v_ in zip(params, [g_w1, g_b1, g_w2, g_b2], adam_m, adam_v):
                m_ *= beta1
                m_ += (1 - beta1) * g
                v_ *= beta2
                v_ += (1 - beta2) * g * g
                mhat = m_ / (1 - beta1 ** t_adam)
                vhat = v_ / (1 - beta2 ** t_adam)
                p -= lr * mhat / (np.sqrt(vhat) + eps_adam)
        losses.append(epoch_loss / max(n_batches, 1))
    return (*params, losses)


def _reference_sample(model, cond_flat, rng):
    """The toy_diffusion ancestral sampler with every draw made in the loop,
    kept verbatim as the oracle."""
    sig = model.sample_sigmas
    d = cond_flat.shape[1]
    w_noisy, w_sigma = model.w1[d : 2 * d], model.w1[2 * d]
    cond_h = cond_flat @ model.w1[:d] + model.b1

    def predict_noise(noisy, sigma):
        h = np.tanh(cond_h + noisy @ w_noisy + math.log(sigma) * w_sigma)
        return h @ model.w2 + model.b2

    y = rng.standard_normal(cond_flat.shape) * sig[0]
    for i in range(len(sig) - 1):
        eps_hat = predict_noise(y, sig[i])
        score = -eps_hat / sig[i]
        dv = sig[i] ** 2 - sig[i + 1] ** 2
        y = y + dv * score + np.sqrt(dv * sig[i + 1] ** 2 / sig[i] ** 2) * rng.standard_normal(
            cond_flat.shape
        )
    eps_hat = predict_noise(y, sig[-1])
    return y - sig[-1] * eps_hat


def _adam_step(p, g, m, v, bc1=0.1, bc2=0.001, lr=1e-3):
    """One in-place Adam update with the trainer's operation order."""
    m *= 0.9
    m += g * (1 - 0.9)
    v *= 0.999
    v += g * (1 - 0.999) * g
    p -= (m / bc1) * lr / (np.sqrt(v / bc2) + 1e-8)


@pytest.fixture(scope="module")
def two_var_grid(small_grid):
    cfg = SyntheticConfig(
        grid=small_grid, n_years=2, stride_hours=24, seasonal_amplitude=2.0,
        regime_amplitude=1.0, ar1_coefficient=0.5, noise_std=0.3, seed=5,
        n_variables=2,
    )
    return generate(cfg)


class TestDiffusionTrainingOracle:
    """Training on batches read from the float32 archive equals the
    whole-set loop bit for bit."""

    def check(self, ds, sel, hyper, seed=0):
        spec = ForecasterSpec("toy_diffusion", hyper)
        model = train(spec, ds, sel, seed=seed)
        pair_idx, off = forecast_mod._pairs_from_subset(ds, sel)
        *weights, losses = _reference_train(ds, pair_idx, off, spec.hyperparameters, seed)
        for got, want in zip((model.w1, model.b1, model.w2, model.b2), weights):
            assert np.array_equal(got, want)
        assert model.training_losses == losses
        return model

    @pytest.mark.parametrize("batch_size", [64, 37, 1, 500])
    def test_two_variables_batch_sizes(self, two_var_grid, batch_size):
        # 300 pairs: full batches with a partial last one (64, 37), single
        # rows (1) and one batch holding every pair (500)
        sel = SubsetSelection("full", list(range(300)), 1.0, 0)
        hyper = {"n_epochs": 2 if batch_size > 1 else 1, "hidden_width": 16,
                 "batch_size": batch_size}
        self.check(two_var_grid, sel, hyper)

    @pytest.mark.parametrize("adam_chunk", [1000, 16384])
    def test_hidden_width_7_and_adam_chunks(self, two_var_grid, adam_chunk):
        sel = SubsetSelection("random", list(range(0, 700, 3)), 0.3, 0)
        model = self.check(two_var_grid, sel, {"n_epochs": 3, "hidden_width": 7}, seed=4)
        # Adam is elementwise, so the trainer's update of each parameter array
        # equals the update of one flat vector of the 1,422 parameters in
        # adam_chunk-element chunks (1000 gives a full and a partial chunk)
        rng = np.random.default_rng(11)
        params = [model.w1, model.b1, model.w2, model.b2]
        grads = [rng.standard_normal(p.shape) for p in params]
        moments = [(rng.standard_normal(p.shape), rng.random(p.shape)) for p in params]
        flat = [np.concatenate([a.ravel() for a in arrays])
                for arrays in (params, grads, *zip(*moments))]
        assert flat[0].size == 1422
        for p, g, (m, v) in zip(params, grads, moments):
            _adam_step(p, g, m, v)
        for start in range(0, flat[0].size, adam_chunk):
            _adam_step(*(a[start : start + adam_chunk] for a in flat))
        assert np.array_equal(np.concatenate([p.ravel() for p in params]), flat[0])

    def test_one_cell_series(self):
        rng = np.random.default_rng(2024)
        ds = series_ds(rng.standard_normal(400))
        hyper = {"n_epochs": 4, "hidden_width": 64, "n_noise_levels": 5,
                 "sigma_min": 0.1, "sigma_max": 2.0, "learning_rate": 0.01}
        self.check(ds, full_selection(ds), hyper)

    def test_peak_memory_does_not_grow_with_pair_copies(self, two_var_grid):
        # D = 64; quadrupling the pairs adds 450 x D float64 values per copy,
        # and whole-set cond and target copies would add two such arrays
        def peak(n_pairs):
            sel = SubsetSelection("random", list(range(n_pairs)), 0.5, 0)
            spec = ForecasterSpec("toy_diffusion", {"n_epochs": 1, "hidden_width": 8})
            tracemalloc.start()
            try:
                train(spec, two_var_grid, sel, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        d = two_var_grid.data[0].size
        assert peak(600) - peak(150) < (600 - 150) * d * 8


def _random_diffusion_model(d, hidden, n_sample_steps):
    rng = np.random.default_rng(0)
    return ToyDiffusionForecaster(
        rng.standard_normal((2 * d + 1, hidden)) / 4, rng.standard_normal(hidden),
        rng.standard_normal((hidden, d)) / 4, rng.standard_normal(d),
        forecast_mod._log_linear_sigmas(3.0, 0.02, n_sample_steps))


class TestSamplerOracle:
    """``sample``, whose draws are made on a helper thread, equals the loop
    that draws in place bit for bit, from a plain Generator and from a
    block's row streams, over two consecutive calls."""

    @pytest.mark.parametrize("n_sample_steps", [1, 2, 24])
    @pytest.mark.parametrize("source", ["generator", "row_streams"])
    def test_sample_equals_the_in_loop_draws(self, n_sample_steps, source):
        model = _random_diffusion_model(8, 5, n_sample_steps)
        cond = np.random.default_rng(1).standard_normal((6, 8))

        def rng():
            if source == "generator":
                return np.random.default_rng([4, 2])
            return forecast_mod._RowStreams(forecast_mod._row_seed_states(3, 2, [4, 9, 11]), 3)

        got_rng, want_rng = rng(), rng()
        for _ in range(2):
            got = model.sample(cond, got_rng)
            want = _reference_sample(model, cond, want_rng)
            assert got.tobytes() == want.tobytes()


class TestDrawsAhead:
    """``_ahead`` and its two callers leave no helper thread running, and an
    error raised on the helper reaches the caller unchanged."""

    def test_no_thread_outlives_train_or_rollout(self, trained_models):
        ds, models = trained_models
        before = threading.active_count()
        train(ForecasterSpec("toy_diffusion", {"n_epochs": 2, "hidden_width": 4}), ds,
              SubsetSelection("full", list(range(100)), 1.0, 0), seed=0)
        assert threading.active_count() == before
        rollout(models["toy_diffusion"], ds, [30, 40], n_members=2, n_steps=2, seed=0)
        assert threading.active_count() == before

    def test_no_thread_outlives_a_rollout_that_fails(self, trained_models):
        ds, models = trained_models
        model = models["toy_diffusion"]
        broken = ToyDiffusionForecaster(model.w1, model.b1, model.w2, model.b2 + np.nan,
                                        model.sample_sigmas)
        before = threading.active_count()
        with pytest.raises(ForecastError, match="non-finite state at init 30, member 0, step 0"):
            rollout(broken, ds, [30, 40], n_members=2, n_steps=2, seed=0)
        assert threading.active_count() == before

    def test_a_sampler_that_fails_between_draws_closes_the_helper(self):
        # the traceback pytest keeps holds the sampler's frame, so only an
        # explicit close, not garbage collection, can have joined the helper
        class FailsWhenAdded:
            __array_ufunc__ = None

            def __radd__(self, other):
                raise RuntimeError("network failed")

        model = _random_diffusion_model(8, 5, 24)
        model.b2 = FailsWhenAdded()
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="network failed") as failed:
            model.sample(np.zeros((3, 8)), np.random.default_rng(0))
        assert threading.active_count() == before
        assert failed.traceback

    def test_a_consumer_that_stops_early_closes_the_helper(self):
        made = []

        def items():
            for k in range(10):
                made.append(k)
                yield k

        before = threading.active_count()
        draws = forecast_mod._ahead(items())
        assert [next(draws), next(draws)] == [0, 1]
        draws.close()
        assert threading.active_count() == before
        assert made == [0, 1, 2]  # at most one item ahead of the caller

    def test_an_error_while_drawing_reaches_the_caller(self):
        def items():
            yield 0
            raise KeyError("drawn too far")

        before = threading.active_count()
        draws = forecast_mod._ahead(items())
        assert next(draws) == 0
        with pytest.raises(KeyError, match="drawn too far"):
            next(draws)
        assert threading.active_count() == before

    def test_noise_too_short_for_the_sampler_is_refused(self, trained_models):
        # one step of 24 sub-steps draws 24 x 64 values per row
        ds, models = trained_models
        before = threading.active_count()
        with pytest.raises(ForecastError, match=re.escape(
                "the noise holds 1535 values per row, fewer than the rollout draws")):
            rollout(models["toy_diffusion"], ds, [30], 2, 1, 0, noise=np.zeros((2, 1535)))
        assert threading.active_count() == before


def _loop_rollout(model, ds, init_indices, n_members, n_steps, seed):
    """Reference: one member at a time, each drawing from its own Generator."""
    out = np.empty((len(init_indices), n_members, n_steps) + ds.data.shape[1:])
    for ii, t0 in enumerate(init_indices):
        for m in range(n_members):
            rng = np.random.default_rng([seed, m, t0])
            state = ds.data[t0][None].astype(np.float64)
            t = ds.timestamps[t0]
            for k in range(n_steps):
                t = t + timedelta(hours=24)
                state = model.step(state, rng, np.array([t], dtype="datetime64[us]"))
                out[ii, m, k] = state[0]
    return out.astype(np.float32)


@pytest.fixture(scope="module")
def trained_models(small_grid):
    cfg = SyntheticConfig(
        grid=small_grid, n_years=2, stride_hours=24, seasonal_amplitude=2.0,
        regime_amplitude=1.0, ar1_coefficient=0.5, noise_std=0.3, seed=5,
        n_variables=2,
    )
    ds = generate(cfg)
    split = SplitSpec((2000, 2000))
    sel = SubsetSelection("full", list(range(300)), 1.0, 0)
    hyper = {"toy_diffusion": {"n_epochs": 3, "hidden_width": 16}}
    models = {
        kind: train(ForecasterSpec(kind, hyper.get(kind, {})), ds, sel, seed=0, split=split)
        for kind in ("persistence", "climatology", "stochastic_linear", "toy_diffusion")
    }
    return ds, models


def _drop_entry(path, entry):
    """Rewrite the npz file at ``path`` without ``entry``."""
    with np.load(path) as z:
        entries = {k: z[k] for k in z.files if k != entry}
    np.savez(path, **entries)


# every entry of every forecaster file, the kind included
FORECASTER_ENTRIES = [(kind, entry) for kind, cls in forecast_mod.FORECASTERS.items()
                      for entry in ("kind", *cls.arrays)]


class CountingSteps:
    """Delegates to a forecaster and counts its step calls."""

    def __init__(self, model):
        self.model = model
        self.kind = model.kind
        self.calls = 0

    def step(self, states, rng, valid_times):
        self.calls += 1
        return self.model.step(states, rng, valid_times)


class TestBatchedRollout:
    INITS = [370, 400, 371, 450, 500, 600]

    @pytest.mark.parametrize("kind", ["persistence", "climatology", "stochastic_linear"])
    def test_equals_member_loop_bitwise(self, trained_models, kind):
        ds, models = trained_models
        fc = rollout(models[kind], ds, self.INITS, n_members=3, n_steps=4, seed=9)
        ref = _loop_rollout(models[kind], ds, self.INITS, 3, 4, 9)
        assert fc.trajectories.tobytes() == ref.tobytes()

    def test_diffusion_equals_member_loop(self, trained_models):
        ds, models = trained_models
        fc = rollout(models["toy_diffusion"], ds, self.INITS, n_members=3, n_steps=4, seed=9)
        ref = _loop_rollout(models["toy_diffusion"], ds, self.INITS, 3, 4, 9)
        np.testing.assert_allclose(fc.trajectories, ref, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("kind", ["stochastic_linear", "toy_diffusion"])
    def test_subset_of_inits_matches_full_rows(self, trained_models, kind):
        ds, models = trained_models
        full = rollout(models[kind], ds, self.INITS, n_members=2, n_steps=3, seed=4)
        part = rollout(models[kind], ds, self.INITS[2:4], n_members=2, n_steps=3, seed=4)
        if kind == "toy_diffusion":
            np.testing.assert_allclose(part.trajectories, full.trajectories[2:4],
                                       rtol=1e-6, atol=1e-6)
        else:
            assert part.trajectories.tobytes() == full.trajectories[2:4].tobytes()

    @pytest.mark.parametrize("kind", ["climatology", "stochastic_linear", "toy_diffusion"])
    def test_many_blocks_equal_one_block(self, trained_models, kind, monkeypatch):
        ds, models = trained_models
        counted = CountingSteps(models[kind])
        one = rollout(counted, ds, self.INITS, n_members=3, n_steps=3, seed=1)
        assert counted.calls == 3  # 18 rows of 64 values: one block
        # 7 rows of 64 values per block -> 2 inits (6 rows) per block, 3 blocks
        monkeypatch.setattr(forecast_mod, "_BLOCK_VALUES", 7 * ds.data[0].size)
        counted = CountingSteps(models[kind])
        many = rollout(counted, ds, self.INITS, n_members=3, n_steps=3, seed=1)
        assert counted.calls == 3 * 3
        if kind == "toy_diffusion":
            np.testing.assert_allclose(many.trajectories, one.trajectories,
                                       rtol=1e-6, atol=1e-6)
        else:
            assert many.trajectories.tobytes() == one.trajectories.tobytes()

    def test_non_finite_state_names_init_member_step(self, trained_models):
        ds, _ = trained_models

        class NanAtRow3Step2:
            kind = "persistence"
            calls = 0

            def step(self, states, rng, valid_times):
                out = states.copy()
                if self.calls == 2:
                    out[3, 0, 1, 1] = np.nan
                self.calls += 1
                return out

        # rows are init-major: row 3 is init 20, member 1
        with pytest.raises(ForecastError, match="init 20, member 1, step 2"):
            rollout(NanAtRow3Step2(), ds, [10, 20, 30], n_members=2, n_steps=4, seed=0)

    def test_load_forecaster_rejects_forecast_file(self, tmp_path):
        ds = series_ds(np.random.default_rng(11).normal(size=300))
        fc = rollout(PersistenceForecaster(), ds, [3, 9], n_members=2, n_steps=4, seed=5)
        save_forecast(fc, tmp_path / "f")
        with pytest.raises(ForecastError, match="f.npz has no entry 'kind'"):
            load_forecaster(tmp_path / "f")

    @pytest.mark.parametrize("kind, entry", FORECASTER_ENTRIES)
    def test_load_forecaster_names_missing_entry(self, trained_models, kind, entry, tmp_path):
        save_forecaster(trained_models[1][kind], tmp_path / kind)
        _drop_entry(tmp_path / f"{kind}.npz", entry)
        with pytest.raises(ForecastError, match=f"has no entry {entry!r}"):
            load_forecaster(tmp_path / kind)

    def test_prefixes_that_differ_after_a_dot_name_two_files(self, trained_models, tmp_path):
        """``<prefix>.npz`` keeps the whole prefix, and a prefix that ends in
        ``.npz`` is the file name itself."""
        models = trained_models[1]
        save_forecaster(models["climatology"], tmp_path / "model.a")
        save_forecaster(models["stochastic_linear"], tmp_path / "model.b")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.a.npz", "model.b.npz"]
        assert type(load_forecaster(tmp_path / "model.a")) is type(models["climatology"])
        assert type(load_forecaster(tmp_path / "model.b.npz")) is type(models["stochastic_linear"])

    @pytest.mark.parametrize(
        "kind", ["persistence", "climatology", "stochastic_linear", "toy_diffusion"]
    )
    def test_save_load_rollout_bitwise(self, trained_models, kind, tmp_path):
        ds, models = trained_models
        save_forecaster(models[kind], tmp_path / kind)
        assert [p.name for p in tmp_path.iterdir()] == [f"{kind}.npz"]
        back = load_forecaster(tmp_path / kind)
        a = rollout(models[kind], ds, self.INITS[:3], n_members=2, n_steps=3, seed=6)
        b = rollout(back, ds, self.INITS[:3], n_members=2, n_steps=3, seed=6)
        assert a.trajectories.tobytes() == b.trajectories.tobytes()


def _reshape_entry(path, entry, change):
    """Rewrite the npz file at ``path`` with ``change`` applied to ``entry``."""
    with np.load(path) as z:
        entries = {k: z[k] for k in z.files}
    entries[entry] = change(entries[entry])
    np.savez(path, **entries)


# (kind, entry, change): each leaves one entry of a trained forecaster's file
# the wrong shape for the others (states are 2 x 4 x 8)
SHAPE_DAMAGE = [
    ("climatology", "monthly_means", lambda a: a[:11]),
    ("climatology", "monthly_means", lambda a: a[0]),
    ("stochastic_linear", "b", lambda a: a[:, :3]),
    ("stochastic_linear", "resid_std", lambda a: a[None]),
    ("toy_diffusion", "w1", lambda a: a[:-1]),
    ("toy_diffusion", "b1", lambda a: a[:-1]),
    ("toy_diffusion", "w2", lambda a: a[:, :-1]),
    ("toy_diffusion", "b2", lambda a: a[:-1]),
    ("toy_diffusion", "sample_sigmas", lambda a: a[None]),
]


class TestForecasterShapes:
    @pytest.mark.parametrize("kind, entry, change", SHAPE_DAMAGE,
                             ids=[f"{k}-{e}-{i}" for i, (k, e, _) in enumerate(SHAPE_DAMAGE)])
    def test_load_refuses_an_entry_of_the_wrong_shape(self, trained_models, tmp_path,
                                                      kind, entry, change):
        model = trained_models[1][kind]
        save_forecaster(model, tmp_path / kind)
        _reshape_entry(tmp_path / f"{kind}.npz", entry, change)
        ndim, damaged = getattr(model, entry).ndim, change(getattr(model, entry))
        with pytest.raises(ForecastError) as err:
            load_forecaster(tmp_path / kind)
        if damaged.ndim == ndim:
            # the message lists the damaged entry with its shape
            assert "has shape" in str(err.value)
            assert f"{entry} {damaged.shape}" in str(err.value)
        else:
            assert f"entry {entry!r} must be a {ndim}-D float array" in str(err.value)

    @pytest.mark.parametrize("kind", ["climatology", "stochastic_linear", "toy_diffusion"])
    def test_load_accepts_every_trained_file(self, trained_models, tmp_path, kind):
        save_forecaster(trained_models[1][kind], tmp_path / kind)
        assert type(load_forecaster(tmp_path / kind)) is type(trained_models[1][kind])

    @pytest.mark.parametrize("kind, entry", [
        ("climatology", "monthly_means"), ("stochastic_linear", "a"), ("toy_diffusion", "w1"),
    ])
    def test_rollout_refuses_states_of_another_shape(self, trained_models, kind, entry):
        ds, models = trained_models
        one_var = GriddedDataset(ds.grid, ds.variables[:1], ds.timestamps, ds.data[:, :1])
        with pytest.raises(ForecastError, match=f"forecaster entry {entry!r} has shape"):
            rollout(models[kind], one_var, [10], n_members=2, n_steps=2, seed=0)

    def test_persistence_rolls_out_any_state(self, trained_models):
        ds, models = trained_models
        one_var = GriddedDataset(ds.grid, ds.variables[:1], ds.timestamps, ds.data[:, :1])
        fc = rollout(models["persistence"], one_var, [10], n_members=2, n_steps=2, seed=0)
        assert fc.trajectories.shape == (1, 2, 2, 1, 4, 8)


class TestBlockPlan:
    @pytest.mark.parametrize("values, n_members, rows", [
        (32, 8, 512),          # reference state: the row cap
        (1024, 8, 64),         # desk state: 2**16 values
        (1024, 3, 63),         # whole inits only
        (10**6, 8, 8),         # very large state: one init
        (32, 600, 600),        # more members than the row cap: one init
        (1, 1, 512),
    ])
    def test_rows_per_block(self, values, n_members, rows):
        assert forecast_mod._inits_per_block(values, n_members) * n_members == rows

    @staticmethod
    def forecaster(kind, shape, rng):
        if kind == "persistence":
            return PersistenceForecaster()
        if kind == "climatology":
            return ClimatologyForecaster(rng.normal(size=(12,) + shape))
        a, b, resid = rng.normal(size=(3,) + shape)
        return StochasticLinearForecaster(a, b, np.abs(resid))

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["persistence", "climatology", "stochastic_linear"]),
        values=st.integers(1, 4096),
        n_members=st.integers(1, 9),
        inits=st.lists(st.integers(0, 29), min_size=1, max_size=24),
        seed=st.integers(0, 2**32),
    )
    def test_property_planned_layout_equals_one_init_blocks(
        self, kind, values, n_members, inits, seed
    ):
        rng = np.random.default_rng(seed)
        ds = series_ds(rng.normal(size=(30, 1, 1, values)))
        model = self.forecaster(kind, ds.data.shape[1:], rng)
        planned = rollout(model, ds, inits, n_members=n_members, n_steps=3, seed=seed)
        with mock.patch.object(forecast_mod, "_BLOCK_VALUES", 0):
            counted = CountingSteps(model)
            single = rollout(counted, ds, inits, n_members=n_members, n_steps=3, seed=seed)
        assert counted.calls == 3 * len(inits)
        assert planned.trajectories.tobytes() == single.trajectories.tobytes()


def _variant(model):
    """A second forecaster of the model's kind that steps differently."""
    if isinstance(model, ClimatologyForecaster):
        return ClimatologyForecaster(model.monthly_means * 0.5)
    if isinstance(model, StochasticLinearForecaster):
        return StochasticLinearForecaster(model.a * 0.5, model.b + 0.1, model.resid_std * 2.0)
    if isinstance(model, ToyDiffusionForecaster):
        return ToyDiffusionForecaster(model.w1, model.b1, model.w2 * 0.5, model.b2,
                                      model.sample_sigmas)
    return PersistenceForecaster()


class TestRolloutLeads:
    """``rollout_leads`` against one ``rollout`` per model over all inits."""

    @settings(max_examples=15, deadline=None)
    @given(
        rows_per_block=st.integers(1, 12),
        n_members=st.integers(1, 3),
        inits=st.lists(st.integers(0, 700), min_size=1, max_size=9),
        leads=st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True),
        seed=st.integers(0, 2**32),
    )
    def test_property_each_forecast_is_its_own_rollouts_leads_bitwise(
        self, trained_models, rows_per_block, n_members, inits, leads, seed
    ):
        ds, trained = trained_models
        models = {(kind, i): m for kind, model in trained.items()
                  for i, m in enumerate((model, _variant(model)))}
        # blocks of rows_per_block // n_members inits (at least one), so most
        # examples step several blocks
        with mock.patch.object(forecast_mod, "_BLOCK_VALUES", rows_per_block * ds.data[0].size):
            kept = rollout_leads(models, ds, inits, n_members, 4, seed, leads)
            for key, model in models.items():
                full = rollout(model, ds, inits, n_members, n_steps=4, seed=seed)
                want = full.trajectories[:, :, [lead - 1 for lead in leads]]
                assert kept[key].lead_days == tuple(leads)
                assert kept[key].init_indices == full.init_indices
                assert kept[key].trajectories.tobytes() == want.tobytes(), key

    def test_one_draw_per_block_is_shared_by_a_kinds_models(self, trained_models,
                                                            monkeypatch):
        ds, trained = trained_models
        noises, roll = [], forecast_mod.rollout

        def spy(model, *a, noise=None):
            noises.append((model.kind, noise))
            return roll(model, *a, noise=noise)

        monkeypatch.setattr(forecast_mod, "_BLOCK_VALUES", 6 * ds.data[0].size)
        monkeypatch.setattr(forecast_mod, "rollout", spy)
        models = {kind: trained[kind] for kind in ("stochastic_linear", "toy_diffusion")}
        models["linear 2"] = _variant(trained["stochastic_linear"])
        rollout_leads(models, ds, [30, 11, 52, 90], 3, 2, 5, [2])
        # 2 inits of 3 members per block; one [6, 2 steps x 64 values] draw per
        # block for both linear models, none for toy_diffusion
        assert [kind for kind, _ in noises] == [
            "stochastic_linear", "toy_diffusion", "stochastic_linear"] * 2
        for block in (noises[:3], noises[3:]):
            assert block[0][1].shape == (6, 2 * 64) and block[2][1] is block[0][1]
            assert block[1][1] is None

    def test_a_failed_rollout_names_its_key(self, trained_models):
        ds, trained = trained_models
        bad = StochasticLinearForecaster(trained["stochastic_linear"].a,
                                         trained["stochastic_linear"].b + np.inf,
                                         trained["stochastic_linear"].resid_std)
        with pytest.raises(forecast_mod.RolloutError,
                           match="^non-finite state at init 30, member 0, step 0$") as info:
            rollout_leads({"ok": trained["stochastic_linear"], "bad": bad}, ds, [30, 11], 2,
                          3, 0, [1])
        assert info.value.key == "bad"

    def test_leads_only_forecast_scores_as_its_full_rollout(self, trained_models):
        ds, trained = trained_models
        kept = rollout_leads(trained, ds, [30, 11, 52], 3, 4, 2, [4, 2])
        for kind, model in trained.items():
            full = rollout(model, ds, [30, 11, 52], 3, n_steps=4, seed=2)
            assert (evaluate_forecast(kept[kind], ds, leads_days=(2, 4))
                    == evaluate_forecast(full, ds, leads_days=(2, 4)))
        with pytest.raises(MetricError, match=r"^lead 3d is not among the forecast's leads "
                                              r"\[4, 2\]$"):
            evaluate_forecast(kept["persistence"], ds, leads_days=(2, 3))
        no_leads = EnsembleForecast([30], np.zeros((1, 3, 0, *ds.data.shape[1:]), np.float32), ())
        with pytest.raises(MetricError, match=r"^lead 2d outside 1\.\.0 rollout steps$"):
            evaluate_forecast(no_leads, ds, leads_days=(2,))

    @pytest.mark.parametrize("leads", [[0], [4], [2, 5]])
    def test_leads_past_the_steps_are_refused(self, trained_models, leads):
        ds, trained = trained_models
        with pytest.raises(ForecastError, match=r"must lie within 1\.\.3 rollout steps$"):
            rollout_leads(trained, ds, [30], 2, 3, 0, leads)

    def test_a_shared_draw_is_read_only_to_the_forecaster(self, trained_models):
        ds, _ = trained_models

        class ScalesItsDraw:
            kind = "persistence"

            def step(self, states, rng, valid_times):
                z = rng.standard_normal(states.shape)
                z *= 2.0
                return states + z

        with pytest.raises(ValueError, match="read-only"):
            rollout(ScalesItsDraw(), ds, [30], 2, 1, 0, noise=np.zeros((2, 64)))

    @pytest.mark.parametrize("noise, message", [
        (np.zeros((3, 64)), "rollout entry 'noise' has shape (3, 64), not (2, 64)"),
        (np.zeros(128), "rollout entry 'noise' must be a 2-D float array"),
        (np.zeros((2, 63)), "the noise holds 63 values per row, fewer than the rollout draws"),
    ], ids=["rows", "1d", "too_few_draws"])
    def test_noise_that_does_not_fit_is_refused(self, trained_models, noise, message):
        ds, trained = trained_models
        with pytest.raises(ForecastError, match=re.escape(message)):
            rollout(trained["stochastic_linear"], ds, [30], 2, 1, 0, noise=noise)


class TestRowSeeds:
    """``_row_seed_states`` against numpy's own SeedSequence."""

    @staticmethod
    def reference(seed, n_members, inits):
        return np.array(
            [np.random.SeedSequence([seed, m, t0]).generate_state(4, np.uint64)
             for t0 in inits for m in range(n_members)],
            dtype=np.uint64,
        ).reshape(-1, 4)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
    def test_words_equal_seed_sequence(self, seed):
        inits = [0, 1, 370, 2**32 - 1]
        words = forecast_mod._row_seed_states(seed, 8, inits)
        assert words.dtype == np.uint64
        np.testing.assert_array_equal(words, self.reference(seed, 8, inits))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**96),
        n_members=st.integers(1, 4),
        inits=st.lists(st.integers(0, 2**32 - 1), max_size=6),
    )
    def test_property_words_equal_seed_sequence(self, seed, n_members, inits):
        words = forecast_mod._row_seed_states(seed, n_members, inits)
        np.testing.assert_array_equal(words, self.reference(seed, n_members, inits))

    def test_generator_equals_default_rng(self):
        words = forecast_mod._row_seed_states(100, 3, [4, 9])
        row = forecast_mod._RowStreams(words, 50).standard_normal((6, 50))[5]
        ref = np.random.default_rng([100, 2, 9])
        assert row.tobytes() == ref.standard_normal(50).tobytes()

    def test_state_words_type_is_a_real_subclass(self):
        # a class registered with the ABC misses its isinstance cache, and
        # PCG64 makes that check once per row Generator
        state_words = forecast_mod._state_words_type()
        assert np.random.bit_generator.ISeedSequence in state_words.__mro__
        assert forecast_mod._state_words_type() is state_words

    def test_import_does_not_load_numpy_random(self):
        code = "import sys, stratacast; sys.exit('numpy.random' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0

    def test_import_does_not_load_concurrent_futures(self):
        # the sampler's and the trainer's helper thread is set up on first use
        code = "import sys, stratacast; sys.exit('concurrent.futures' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0

    @pytest.mark.parametrize("seed, inits", [(-1, [0, 1]), (0, [3, -1]), (0, [2**32])])
    def test_negative_seed_or_out_of_range_init_raises(self, seed, inits):
        """``_row_seed_states`` hashes what ``rollout`` checked: a seed or an
        init that one uint32 word cannot hold is refused before it is reached."""
        ds = series_ds(np.zeros(20))
        with mock.patch.object(forecast_mod, "_row_seed_states") as row_seeds, \
                pytest.raises(ForecastError):
            rollout(PersistenceForecaster(), ds, inits, n_members=2, n_steps=2, seed=seed)
        row_seeds.assert_not_called()


# Every stage entry reads its indices through ``GriddedDataset.check_indices``.
_N_TIMES = 30
_INDEX_DS = series_ds(np.random.default_rng(3).normal(size=_N_TIMES))
_INDEX_MODEL = train(ForecasterSpec("stochastic_linear"), _INDEX_DS, full_selection(_INDEX_DS))


def _select_entry(indices):
    return run_strategy("random", _INDEX_DS, indices, SelectionBudget(0.5), seed=1).indices


def _train_entry(indices):
    subset = SubsetSelection("random", [], 1.0, 0)
    subset.indices = indices  # past the subset's own check, so train's is the one that reads them
    model = train(ForecasterSpec("stochastic_linear"), _INDEX_DS, subset)
    return model.a.tobytes(), model.b.tobytes(), model.resid_std.tobytes()


def _rollout_entry(indices):
    fc = rollout(_INDEX_MODEL, _INDEX_DS, indices, n_members=2, n_steps=3, seed=4)
    return fc.init_indices, fc.trajectories.tobytes()


def _evaluate_entry(indices):
    traj = np.linspace(-1, 1, len(indices) * 6, dtype=np.float32).reshape(-1, 2, 3, 1, 1, 1)
    records = evaluate_forecast(EnsembleForecast(indices, traj), _INDEX_DS, leads_days=(1, 3))
    return np.array([(r.crps, r.rmse, r.ssr) for r in records]).tobytes()


def _spatial_mean_entry(indices):
    return spatial_mean_matrix(_INDEX_DS, indices).tobytes()


_INDEX_ENTRIES = {"run_strategy": (_select_entry, SelectionError, "candidate time"),
                  "spatial_mean_matrix": (_spatial_mean_entry, FeatureError, "time index"),
                  "train": (_train_entry, ForecastError, "subset index"),
                  "rollout": (_rollout_entry, ForecastError, "init index"),
                  "evaluate_forecast": (_evaluate_entry, MetricError, "init index")}
_IN_RANGE = st.integers(0, _N_TIMES - 1)
_VALID_INDEX = _IN_RANGE | _IN_RANGE.map(np.int64)
# half the lists hold only valid indices, so that every stage also accepts some
_INDEX_LISTS = st.lists(_VALID_INDEX, max_size=6) | st.lists(st.one_of(
    _VALID_INDEX, st.integers(-3, -1), st.integers(_N_TIMES, _N_TIMES + 3),
    _IN_RANGE.map(float), st.floats(0.5, _N_TIMES - 1.5).filter(lambda x: x != int(x)),
    st.booleans(), st.sampled_from([2**63, 2**70, -2**63 - 1])), max_size=5)


def _outcome(entry, indices):
    """What ``entry`` returns, or the type and message of the error it raises."""
    try:
        return entry(indices)
    except ValueError as e:
        return type(e), str(e)


@settings(max_examples=200, deadline=None)
@given(stage=st.sampled_from(sorted(_INDEX_ENTRIES)), items=_INDEX_LISTS)
@example(stage="run_strategy", items=[3, 2**70])
@example(stage="train", items=[2**63])
@example(stage="rollout", items=[3, 40, 2**70])
@example(stage="evaluate_forecast", items=[-2**63 - 1])
@example(stage="spatial_mean_matrix", items=[3, -1])
def test_each_stage_reads_its_indices_as_checked_int64(stage, items):
    """A list of ints and numpy ints inside the dataset (or an empty list)
    does at every stage what its int64 array does, bitwise. Any other list
    is refused with the stage's error, naming its first float or bool, else
    its first int past int64, else its first index outside the dataset."""
    entry, error, what = _INDEX_ENTRIES[stage]
    not_int = [v for v in items if isinstance(v, (bool, float))]
    wide = [v for v in items if not -2**63 <= v < 2**63]
    outside = [v for v in items if not 0 <= v < _N_TIMES]
    if not (not_int or outside):
        assert _outcome(entry, items) == _outcome(entry, np.array(items, dtype=np.int64))
        return
    message = (f"{what} {not_int[0]!r} is not an integer" if not_int
               else f"{what} {wide[0]} is outside the 64-bit integer range" if wide
               else f"{what} {outside[0]} is outside the dataset's {_N_TIMES} times")
    with pytest.raises(error, match=re.escape(message) + "$"):
        entry(items)


def test_a_numpy_int_seed_is_taken_by_train_and_rollout():
    spec = ForecasterSpec("toy_diffusion", {"n_epochs": 1, "hidden_width": 4})
    subset = full_selection(_INDEX_DS)
    assert (train(spec, _INDEX_DS, subset, seed=np.int64(2)).w1.tobytes()
            == train(spec, _INDEX_DS, subset, seed=2).w1.tobytes())
    assert (rollout(_INDEX_MODEL, _INDEX_DS, [3], 2, 3, seed=np.uint8(4)).trajectories.tobytes()
            == rollout(_INDEX_MODEL, _INDEX_DS, [3], 2, 3, seed=4).trajectories.tobytes())


class TestRowStreamsPrefetch:
    class MixedDraws:
        """Draws (B, 3), (B, 5) and a state-shaped array each step and keeps
        the returned arrays (not copies)."""

        kind = "persistence"

        def __init__(self):
            self.draws = []

        def step(self, states, rng, valid_times):
            b = states.shape[0]
            self.draws.append([rng.standard_normal((b, 3)), rng.standard_normal((b, 5)),
                               rng.standard_normal(states.shape)])
            return states + self.draws[-1][2]

    @pytest.mark.parametrize("prefetch", [1024, 7])
    def test_mixed_draw_sizes_equal_per_row_streams(self, trained_models, prefetch,
                                                    monkeypatch):
        ds, _ = trained_models
        monkeypatch.setattr(forecast_mod, "ROW_PREFETCH_VALUES", prefetch)
        inits, n_members, n_steps, seed = [30, 11, 52], 2, 4, 3
        model = self.MixedDraws()
        rollout(model, ds, inits, n_members=n_members, n_steps=n_steps, seed=seed)
        assert len(model.draws) == n_steps
        for row, (t0, m) in enumerate((t0, m) for t0 in inits for m in range(n_members)):
            gen = np.random.default_rng([seed, m, t0])
            for k in range(n_steps):
                for drawn in model.draws[k]:
                    ref = gen.standard_normal(drawn.shape[1:])
                    assert drawn[row].tobytes() == ref.tobytes()


class TestEvaluateForecast:
    def test_persistence_on_constant_dataset(self):
        ds = series_ds(np.full(400, 3.0).reshape(-1, 1, 1, 1) + 0.0)
        # constant data: standardization impossible, evaluate raw
        fc = rollout(PersistenceForecaster(), ds, [5, 15], n_members=2, n_steps=10, seed=0)
        recs = evaluate_forecast(fc, ds, leads_days=(5, 10), method="persistence")
        for r in recs:
            assert r.crps == pytest.approx(0.0, abs=1e-12)
            assert r.rmse == pytest.approx(0.0, abs=1e-12)
            assert r.ssr == 0.0

    def test_hand_built_two_member_record(self):
        ds = series_ds(np.arange(400, dtype=np.float64))
        # start from persistence members, then plant values at the 5-day lead
        fc = rollout(PersistenceForecaster(), ds, [0], n_members=2, n_steps=10, seed=0)
        fc.trajectories[0, 0, 4] = 0.0   # member values {0, x0} at lead 5d
        fc.trajectories[0, 1, 4] = 2.0
        truth_val = float(ds.data[5, 0, 0, 0])  # = 5.0
        recs = evaluate_forecast(fc, ds, leads_days=(5,), method="hand")
        r = recs[0]
        # members {0,2}, y=5: fair crps = 3.5 - ... term1=(5+3)/2=4, pair=2/2=1 -> 3
        assert truth_val == 5.0
        assert r.crps == pytest.approx(3.0)
        assert r.rmse == pytest.approx(4.0)  # ens mean 1, error 4
        # spread^2 = var({0,2}, ddof=1) = 2; ssr = sqrt(3/2)*sqrt(2)/4
        assert r.ssr == pytest.approx(math.sqrt(1.5) * math.sqrt(2.0) / 4.0)

    def test_record_count(self, toy_dataset):
        fc = rollout(PersistenceForecaster(), toy_dataset, [10, 30], n_members=2,
                     n_steps=10, seed=0)
        recs = evaluate_forecast(fc, toy_dataset, leads_days=(5, 10))
        assert len(recs) == len(toy_dataset.variables) * 2

    def test_missing_truth_timestamp(self):
        ds = series_ds(np.random.default_rng(15).normal(size=20))
        fc = rollout(PersistenceForecaster(), ds, [15], n_members=1, n_steps=10, seed=0)
        with pytest.raises(Exception):
            evaluate_forecast(fc, ds, leads_days=(10,))

    def test_lead_past_end_names_first_missing_target(self):
        ds = series_ds(np.zeros(20))
        fc = rollout(PersistenceForecaster(), ds, [2, 15, 17], n_members=1, n_steps=10, seed=0)
        assert len(evaluate_forecast(fc, ds, leads_days=(2,))) == 1
        with pytest.raises(DatasetError, match="timestamp 2000-01-21 00:00:00 not in dataset"):
            evaluate_forecast(fc, ds, leads_days=(5,))

    def test_lead_off_the_time_grid_raises(self):
        ds = series_ds(np.zeros(20), stride_hours=48)
        fc = rollout(PersistenceForecaster(), ds, [3], n_members=1, n_steps=10, seed=0)
        with pytest.raises(DatasetError,
                           match="lead 5d is not a whole number of the dataset's 48 h strides"):
            evaluate_forecast(fc, ds, leads_days=(5,))


def _gaussian_crps(mean, sd, y):
    """CRPS of N(mean, sd**2) at ``y`` in closed form (Gneiting et al., MWR 133:1098, 2005)."""
    z = (y - mean) / sd
    cdf = 0.5 * (1.0 + np.frompyfunc(math.erf, 1, 1)(z / math.sqrt(2.0)).astype(np.float64))
    pdf = np.exp(-0.5 * z**2) / math.sqrt(2.0 * math.pi)
    return sd * (z * (2.0 * cdf - 1.0) + 2.0 * pdf - 1.0 / math.sqrt(math.pi))


class TestClosedFormRollout:
    """Rollouts of forecasters whose lead-L law is known: the ensemble scores
    match the law's own scores."""

    ds = series_ds(np.random.default_rng(21).normal(size=(160, 1, 2, 3)))
    inits = list(range(150))

    def test_stochastic_linear_fair_crps_matches_the_gaussian_closed_form(self):
        # a = 1 and a < 0 included: the law needs no division by 1 - a
        a = np.array([[[1.0, 0.5, -0.8], [0.0, 0.9, 1.1]]])
        b = np.array([[[0.0, 0.3, -0.2], [1.0, 0.0, 0.1]]])
        sigma = np.array([[[0.5, 1.0, 0.2], [0.7, 0.05, 0.3]]])
        fc = rollout(StochasticLinearForecaster(a, b, sigma), self.ds, self.inits,
                     n_members=64, n_steps=5, seed=8)
        x0 = self.ds.data[self.inits, 0].astype(np.float64)
        mean, var = x0, np.zeros_like(x0)
        for lead in range(1, 6):
            mean, var = a[0] * mean + b[0], a[0] ** 2 * var + sigma[0] ** 2
            y = self.ds.data[np.add(self.inits, lead), 0].astype(np.float64)
            exact = _gaussian_crps(mean, np.sqrt(var), y)
            members = fc.trajectories[:, :, lead - 1, 0].transpose(1, 0, 2, 3)
            gap = crps_ensemble(members, y) - exact
            se = gap.std(ddof=1) / math.sqrt(gap.size)
            (record,) = evaluate_forecast(fc, self.ds, leads_days=(lead,))
            assert abs(record.crps - exact.mean()) < 4.0 * se, lead

    def test_persistence_scores_exactly_the_absolute_error(self):
        fc = rollout(PersistenceForecaster(), self.ds, self.inits, n_members=4, n_steps=5, seed=0)
        x0 = self.ds.data[self.inits, 0].astype(np.float64)
        for lead in range(1, 6):
            y = self.ds.data[np.add(self.inits, lead), 0].astype(np.float64)
            (record,) = evaluate_forecast(fc, self.ds, leads_days=(lead,))
            assert record.crps == np.mean(np.abs(x0 - y))


class _ForeignPersistence(PersistenceForecaster):
    """Declares the persistence kind without being the class registered for it."""


@pytest.mark.parametrize("call, message", [
    (lambda ds, tmp: train(ForecasterSpec("stochastic_linear"), ds, None),
     "a learned forecaster needs a training subset"),
    (lambda ds, tmp: train(ForecasterSpec("toy_diffusion"), ds, None),
     "a learned forecaster needs a training subset"),
    (lambda ds, tmp: train(ForecasterSpec("climatology"), ds, full_selection(ds)),
     "climatology needs a split"),
    (lambda ds, tmp: save_forecaster(object(), tmp / "m"), "cannot serialize object"),
    (lambda ds, tmp: save_forecaster(_ForeignPersistence(), tmp / "m"),
     "cannot serialize _ForeignPersistence"),
    (lambda ds, tmp: rollout(PersistenceForecaster(), ds, [0, -1], n_members=2),
     "init index -1 is outside the dataset's 10 times"),
    (lambda ds, tmp: rollout(PersistenceForecaster(), ds, [2, ds.n_times + 3], n_members=2),
     "init index 13 is outside the dataset's 10 times"),
    (lambda ds, tmp: rollout(PersistenceForecaster(), ds, [ds.n_times], n_members=2),
     "init index 10 is outside the dataset's 10 times"),
    (lambda ds, tmp: rollout(PersistenceForecaster(), ds, [0, 1], n_members=2, seed=-1),
     "seed -1 is negative"),
    (lambda ds, tmp: train(ForecasterSpec("stochastic_linear"), ds,
                           SubsetSelection("random", [*range(1, 10), 10**9], 0.2, 0)),
     "subset index 1000000000 is outside the dataset's 10 times"),
    (lambda ds, tmp: train(ForecasterSpec("toy_diffusion"), ds,
                           SubsetSelection("random", [3, 10, 4], 0.2, 0)),
     "subset index 10 is outside the dataset's 10 times"),
    (lambda ds, tmp: train(ForecasterSpec("stochastic_linear"), ds,
                           SubsetSelection("random", [1, 2, 3], 0.2, 0), seed=-1),
     "seed -1 is negative"),
    (lambda ds, tmp: train(ForecasterSpec("toy_diffusion"), ds,
                           SubsetSelection("random", [1, 2, 3], 0.2, 0), seed=-1),
     "seed -1 is negative"),
    (lambda ds, tmp: rollout(PersistenceForecaster(), ds, [3.7], 2, 5),
     "init index 3.7 is not an integer"),
    (lambda ds, tmp: rollout(PersistenceForecaster(), ds, [1, 3.0], 2, 5),
     "init index 3.0 is not an integer"),
    (lambda ds, tmp: rollout(PersistenceForecaster(), ds, [0, True], 2, 5),
     "init index True is not an integer"),
    (lambda ds, tmp: rollout(PersistenceForecaster(), ds, [[1, 2]], 2, 5),
     "init index [1, 2] is not an integer"),
    (lambda ds, tmp: rollout(PersistenceForecaster(), ds, [1], 2, 5, seed=True),
     "seed True is not an integer"),
    (lambda ds, tmp: rollout(PersistenceForecaster(), ds, [1], 2, 5, seed=2.0),
     "seed 2.0 is not an integer"),
    (lambda ds, tmp: train(ForecasterSpec("stochastic_linear"), ds,
                           SubsetSelection("random", [1, 2, 3], 0.2, 0), seed=2.5),
     "seed 2.5 is not an integer"),
    (lambda ds, tmp: rollout(PersistenceForecaster(), ds, [1], n_members=0),
     "n_members 0 is below 1"),
    (lambda ds, tmp: rollout(PersistenceForecaster(), ds, [1], n_members=-1),
     "n_members -1 is below 1"),
    (lambda ds, tmp: rollout(PersistenceForecaster(), ds, [1], n_members=2.0),
     "n_members 2.0 is not an integer"),
    (lambda ds, tmp: rollout(PersistenceForecaster(), ds, [1], n_members=2, n_steps=0),
     "n_steps 0 is below 1"),
    (lambda ds, tmp: save_forecast(EnsembleForecast([3.7], np.zeros((1, 2, 3, 1, 1, 1),
                                                                   np.float32)), tmp / "f"),
     "init index 3.7 is not an integer"),
], ids=["linear_without_subset", "diffusion_without_subset", "climatology_without_split",
        "foreign_object", "foreign_subclass", "negative_init", "init_past_the_end",
        "init_at_the_end", "negative_seed", "linear_subset_past_the_end",
        "diffusion_subset_at_the_end", "linear_negative_seed", "diffusion_negative_seed",
        "float_init", "integral_float_init", "bool_init", "2d_inits", "bool_seed",
        "float_seed", "train_float_seed", "no_members", "negative_members", "float_members",
        "no_steps", "save_float_init"])
def test_refusals(tmp_path, call, message):
    with pytest.raises(ForecastError, match=re.escape(message) + "$"):
        call(series_ds(np.arange(10.0)), tmp_path)
    assert list(tmp_path.iterdir()) == []


class TestForecasterSpec:
    @pytest.mark.parametrize("kind", forecast_mod.FORECASTERS)
    def test_table_defaults_pass_their_rules_and_fill_the_spec(self, kind):
        table = forecast_mod.FORECASTERS[kind].hyperparameters
        assert [k for k, (rule, default) in table.items() if not rule.ok(default)] == []
        assert ForecasterSpec(kind).hyperparameters == {k: d for k, (_, d) in table.items()}

    def test_unknown_kind(self):
        with pytest.raises(ForecastError):
            ForecasterSpec("transformer")

    def test_nonpositive_hyper(self):
        with pytest.raises(ForecastError):
            ForecasterSpec("stochastic_linear", {"ridge_lambda": -1.0})

    @pytest.mark.parametrize("kind, hyper", [
        ("toy_diffusion", {"n_epoch": 1}),
        ("toy_diffusion", {"ridge_lambda": 1e-3}),
        ("stochastic_linear", {"n_epochs": 1}),
        ("persistence", {"ridge_lambda": 1e-3}),
        ("climatology", {"hidden_width": 8}),
    ])
    def test_unknown_key_rejected(self, kind, hyper):
        with pytest.raises(ForecastError, match="unknown hyperparameter"):
            ForecasterSpec(kind, hyper)

    @pytest.mark.parametrize("key", [
        k for k, (rule, _) in forecast_mod.ToyDiffusionForecaster.hyperparameters.items()
        if rule is forecast_mod.COUNT])
    def test_fractional_count_rejected(self, key):
        with pytest.raises(ForecastError, match=f"{key!r} must be an integer"):
            ForecasterSpec("toy_diffusion", {key: 8.5})

    @pytest.mark.parametrize("hyper", [
        {"sigma_min": 3.0, "sigma_max": 0.5},
        {"sigma_min": 0.5, "sigma_max": 0.5},
        {"sigma_min": 5.0},  # above the default sigma_max
    ])
    def test_sigma_order_rejected(self, hyper):
        with pytest.raises(ForecastError, match="sigma_min must be below sigma_max"):
            ForecasterSpec("toy_diffusion", hyper)

    @pytest.mark.parametrize("value", ["0.1", True, float("nan"), float("inf"), None])
    def test_non_number_rejected(self, value):
        with pytest.raises(ForecastError, match="positive finite number"):
            ForecasterSpec("toy_diffusion", {"learning_rate": value})

    def test_integral_float_count_accepted_as_int(self):
        spec = ForecasterSpec(
            "toy_diffusion", {"n_sample_steps": 4.0, "n_epochs": 2.0, "hidden_width": 8}
        )
        hyper = {k: spec.hyperparameters[k] for k in ("n_sample_steps", "n_epochs", "hidden_width")}
        assert hyper == {"n_sample_steps": 4, "n_epochs": 2, "hidden_width": 8}
        assert all(type(v) is int for v in hyper.values())
        ds = series_ds(np.random.default_rng(3).standard_normal(60))
        model = train(spec, ds, full_selection(ds), seed=0)
        fc = rollout(model, ds, [5], n_members=2, n_steps=2, seed=0)
        assert np.isfinite(fc.trajectories).all()
