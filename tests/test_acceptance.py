"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (to the real stderr so it survives
pytest capture) in addition to the normal pytest verdict.
"""

import functools
import json
import math
import subprocess
import sys
import time
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ks_2samp

from stratacast.dataset import GriddedDataset, GridSpec, save_dataset
from stratacast.experiment import (
    REPORT_HEADER,
    ExperimentConfig,
    emit_report,
    run_experiment,
)
from stratacast.features import cosine_distance, pca_fit
from stratacast.forecast import (
    ForecasterSpec,
    PersistenceForecaster,
    rollout,
    train,
)
from stratacast.metrics import MetricRecord, crps_ensemble, rmse, ssr
from stratacast.selection import (
    STRATEGIES,
    SelectionBudget,
    greedy_cosine_order,
    greedy_max_min,
    herding_order,
    kmeans,
    nearest_to_centroids,
    run_strategy,
)
from stratacast.synthetic import SyntheticConfig, generate

PKG_ROOT = Path(__file__).resolve().parents[1]


def criterion(num, label, budget_s=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            t0 = time.monotonic()
            try:
                fn(*a, **kw)
            except BaseException:
                print(f"ACCEPTANCE {num} ({label}): FAIL", file=sys.__stderr__)
                raise
            elapsed = time.monotonic() - t0
            if budget_s is not None and elapsed > budget_s:
                print(f"ACCEPTANCE {num} ({label}): FAIL", file=sys.__stderr__)
                raise AssertionError(
                    f"runtime {elapsed:.1f}s exceeds budget {budget_s}s"
                )
            print(f"ACCEPTANCE {num} ({label}): PASS", file=sys.__stderr__)

        return wrapper

    return deco


def daily_dataset(values, nvar=1):
    values = np.asarray(values, dtype=np.float32)
    if values.ndim == 1:
        values = values.reshape(-1, 1, 1, 1)
    n = values.shape[0]
    return GriddedDataset(
        grid=GridSpec(np.array([0.0]), np.array([0.0])),
        variables=[f"synthetic_{k}" for k in range(values.shape[1])],
        timestamps=[datetime(2000, 1, 1) + timedelta(hours=24 * i) for i in range(n)],
        data=values,
    )


@criterion(1, "metric oracles", budget_s=30)
def test_criterion_1_metric_oracles():
    # fair-CRPS hand cases, exact
    assert float(crps_ensemble(np.array([0.0, 2.0]), 1.0)) == pytest.approx(0.0, abs=1e-12)
    assert float(crps_ensemble(np.array([0.0, 2.0]), 3.0)) == pytest.approx(1.0, abs=1e-12)
    # Gaussian closed form at M = 1000
    rng = np.random.default_rng(3)
    assert float(crps_ensemble(rng.standard_normal(1000), 0.0)) == pytest.approx(
        0.23373, abs=0.01
    )
    # calibrated SSR at M = 20 over 10k cases
    rng = np.random.default_rng(7)
    members = rng.standard_normal((20, 10_000, 1, 1))
    truth = rng.standard_normal((10_000, 1, 1))
    assert ssr(members, truth, np.ones((1, 1))) == pytest.approx(1.0, abs=0.05)
    # weighted RMSE vs brute force within 1e-9
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 3, 4))
    b = rng.normal(size=(5, 3, 4))
    w = rng.uniform(0.5, 2.0, size=(3, 4))
    w /= w.mean()
    acc = sum(
        w[i, j] * (a[c, i, j] - b[c, i, j]) ** 2
        for c in range(5) for i in range(3) for j in range(4)
    )
    assert rmse(a, b, w) == pytest.approx(math.sqrt(acc / (5 * 3 * 4)), abs=1e-9)


@criterion(2, "greedy-algorithm oracle equivalence", budget_s=60)
def test_criterion_2_greedy_oracles():
    rng = np.random.default_rng(42)
    for trial in range(20):
        n = int(rng.integers(8, 51))
        d = int(rng.integers(1, 4))
        feats = rng.normal(size=(n, d))
        k = int(rng.integers(2, n + 1))

        # greedy max-min diverse
        mean = feats.mean(axis=0)
        d0 = np.linalg.norm(feats - mean, axis=1)
        first = int(np.argmax(d0))
        got = greedy_max_min(
            feats, k, first, np.linalg.norm(feats - feats[first], axis=1)
        )
        oracle = [int(np.flatnonzero(d0 == d0.max())[0])]
        while len(oracle) < k:
            best, best_s = None, -np.inf
            for i in range(n):
                if i in oracle:
                    continue
                s = min(np.linalg.norm(feats[i] - feats[j]) for j in oracle)
                if s > best_s:
                    best, best_s = i, s
            oracle.append(best)
        assert got == oracle

        # herding
        got = herding_order(feats, k)
        mu = feats.mean(axis=0)
        w = mu.copy()
        oracle = []
        for _ in range(k):
            best, best_s = None, -np.inf
            for i in range(n):
                if i in oracle:
                    continue
                s = float(feats[i] @ w)
                if s > best_s:
                    best, best_s = i, s
            oracle.append(best)
            w = w + mu - feats[best]
        assert got == oracle

        # greedy cosine (spatial diversity inner loop); keep vectors nonzero
        cfeats = feats + np.sign(feats.sum(axis=1, keepdims=True) + 0.5) * 0.2
        got = greedy_cosine_order(cfeats, k)
        oracle = [0]
        while len(oracle) < k:
            best, best_s = None, -np.inf
            for i in range(n):
                if i in oracle:
                    continue
                s = min(cosine_distance(cfeats[i], cfeats[j]) for j in oracle)
                if s > best_s:
                    best, best_s = i, s
            oracle.append(best)
        assert got == oracle

        # k-means nearest-to-centroid extraction
        kk = int(rng.integers(2, min(8, n)))
        centers, assign = kmeans(feats, kk, np.random.default_rng(trial))
        picks = nearest_to_centroids(feats, centers, assign)
        oracle = []
        for c in range(kk):
            best, best_d = None, np.inf
            for i in range(n):
                if assign[i] != c:
                    continue
                dd = float(np.linalg.norm(feats[i] - centers[c]))
                if best is None or dd < best_d:
                    best, best_d = i, dd
            if best is not None:
                oracle.append(best)
        assert picks == oracle


@criterion(3, "selection contracts", budget_s=30)
def test_criterion_3_selection_contracts(tmp_path):
    grid = GridSpec(np.array([-30.0, 0.0, 30.0]), np.array([0.0, 90.0, 180.0, 270.0]))
    cfg = SyntheticConfig(
        grid=grid, n_years=1, stride_hours=24, seasonal_amplitude=2.0,
        regime_amplitude=1.5, ar1_coefficient=0.5, noise_std=0.5, seed=9,
    )
    ds = generate(cfg)
    n = ds.n_times
    candidates = list(range(n))
    budget = SelectionBudget(0.2)
    target = budget.target_count(n)
    assert target == int(math.floor(0.2 * n + 0.5))

    for name in sorted(STRATEGIES):
        sel = run_strategy(name, ds, candidates, budget, seed=4)
        if name == "full":
            assert sorted(sel.indices) == candidates
            continue
        assert len(sel.indices) == target
        assert len(set(sel.indices)) == target
        assert set(sel.indices) <= set(candidates)

    # stratified-time month balance (no bin hits capacity at 20% of a year)
    sel = run_strategy("stratified_time", ds, candidates, budget, seed=4)
    months = ds.months()
    counts = np.bincount(months[sel.indices], minlength=13)[1:]
    assert counts.max() - counts.min() <= 1

    # two-process bitwise determinism through the CLI
    data_path = tmp_path / "toy.ften"
    save_dataset(ds, data_path)
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        r = subprocess.run(
            [sys.executable, "-m", "stratacast.cli", "select",
             "--data", str(data_path), "--strategy", "stratified_time",
             "--fraction", "0.2", "--train-years", "2000:2000",
             "--seed", "4", "--out", str(out)],
            capture_output=True, text=True, cwd=PKG_ROOT,
        )
        assert r.returncode == 0, r.stderr
        outs.append((out / "stratified_time_seed4.json").read_bytes())
    assert outs[0] == outs[1]


@criterion(4, "PCA correctness")
def test_criterion_4_pca_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(8, 40))
        d = int(rng.integers(2, min(n, 12)))
        x = rng.normal(size=(n, d))
        model = pca_fit(x, d)
        # independent covariance eigendecomposition oracle
        xc = x - x.mean(axis=0)
        vals, vecs = np.linalg.eigh((xc.T @ xc) / n)
        order = np.argsort(vals)[::-1]
        vals, vecs = vals[order], vecs[:, order].T
        assert np.abs(model.explained_variance - vals).max() < 1e-6
        for i in range(d):
            assert abs(abs(float(model.axes[i] @ vecs[i])) - 1.0) < 1e-6
        gram = model.axes @ model.axes.T
        assert np.abs(gram - np.eye(d)).max() < 1e-6


@criterion(5, "rollout protocol")
def test_criterion_5_rollout_protocol():
    ds = daily_dataset(np.random.default_rng(1).normal(size=400))
    fc = rollout(PersistenceForecaster(), ds, [7, 30], n_members=3, n_steps=10, seed=2)
    assert fc.trajectories.shape[2] == 10
    assert fc.n_steps * fc.lead_stride_hours == 240.0
    for ii, t0 in enumerate([7, 30]):
        for m in range(3):
            for k in range(10):
                assert np.array_equal(fc.trajectories[ii, m, k], ds.data[t0])
    # bitwise determinism with a stochastic forecaster
    full = run_strategy("full", ds, range(400), SelectionBudget(1.0), 0)
    model = train(ForecasterSpec("stochastic_linear"), ds, full, seed=0)
    a = rollout(model, ds, [7, 30], n_members=4, n_steps=10, seed=2)
    b = rollout(model, ds, [7, 30], n_members=4, n_steps=10, seed=2)
    assert a.trajectories.tobytes() == b.trajectories.tobytes()


@criterion(6, "diffusion sanity gate")
def test_criterion_6_diffusion_gate():
    # 1-cell Gaussian toy: next state is N(0,1) independent of the condition,
    # so model samples should match held-out truth in distribution
    rng = np.random.default_rng(2024)
    ds = daily_dataset(rng.standard_normal(1200))
    spec = ForecasterSpec("toy_diffusion", {"n_epochs": 150, "hidden_width": 64})
    model = train(spec, ds, run_strategy("full", ds, range(1200), SelectionBudget(1.0), 0), seed=0)
    assert model.training_losses[-1] < model.training_losses[0]
    samples = model.sample(np.zeros((500, 1)), np.random.default_rng(7)).ravel()
    truth = np.random.default_rng(8).standard_normal(500)
    _, p = ks_2samp(samples, truth)
    assert p >= 0.01, f"KS p-value {p:.4g} below 0.01"


@criterion(7, "directional end-to-end benchmark", budget_s=600)
def test_criterion_7_directional_benchmark(tmp_path):
    cfg = ExperimentConfig.from_json(PKG_ROOT / "benchmarks" / "synthetic_benchmark.json")
    assert cfg.n_seeds == 5 and cfg.n_members == 8
    records = run_experiment(cfg, tmp_path)
    means = {
        r.method: r.crps
        for r in records
        if r.seed is None and r.lead_days == 5
    }
    assert means["full"] <= means["random"]
    assert means["full"] <= means["stratified_time"]
    assert means["stratified_time"] <= means["random"]


@criterion(8, "report row byte pattern")
def test_criterion_8_report_format(tmp_path):
    records = [
        MetricRecord("Full Data", "z500", 5, 242.66, 544.19, 0.84, seed=0),
        MetricRecord("Full Data", "z500", 10, 335.2, 750.52, 0.94, seed=0),
    ]
    emit_report(records, tmp_path)
    lines = (tmp_path / "report_z500.csv").read_text().strip().split("\n")
    assert lines[0] == REPORT_HEADER
    assert lines[1] == "Full Data,242.66,335.2,544.19,750.52,0.84,0.94"
