import json
from datetime import datetime, timedelta

import numpy as np
import pytest

from stratacast import experiment
from stratacast.dataset import GriddedDataset, GridSpec, SplitSpec, save_dataset
from stratacast.experiment import (
    REPORT_HEADER,
    ExperimentConfig,
    ExperimentError,
    aggregate_means,
    emit_report,
    run_experiment,
)
from stratacast.forecast import ForecasterSpec
from stratacast.metrics import MetricRecord
from stratacast.selection import STRATEGIES
from stratacast.synthetic import SyntheticConfig


def small_synth(small_grid, **over):
    base = dict(
        grid=small_grid, n_years=2, stride_hours=24, seasonal_amplitude=2.0,
        regime_amplitude=1.5, ar1_coefficient=0.5, noise_std=0.5, seed=42,
    )
    base.update(over)
    return SyntheticConfig(**base)


def base_config(small_grid, **over):
    base = dict(
        strategies=["random", "stratified_time"],
        forecaster=ForecasterSpec("stochastic_linear", {"ridge_lambda": 1e-3}),
        split=SplitSpec((2000, 2000), None, (2001, 2001)),
        synthetic=small_synth(small_grid),
        fraction=0.2,
        n_members=3,
        n_seeds=2,
        base_seed=7,
        leads_days=(5, 10),
        eval_stride_hours=120.0,
        flat_grid=True,
    )
    base.update(over)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def run_result(small_grid, tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    cfg = base_config(small_grid)
    return cfg, out, run_experiment(cfg, out)


class TestRunExperiment:
    def test_full_baseline_always_included(self, run_result):
        _, _, records = run_result
        assert "full" in {r.method for r in records}

    def test_counts_per_strategy_variable_lead(self, run_result):
        cfg, _, records = run_result
        per_seed = [r for r in records if r.seed is not None]
        for method in ("full", "random", "stratified_time"):
            for lead in cfg.leads_days:
                n = sum(
                    1 for r in per_seed
                    if r.method == method and r.lead_days == lead
                )
                assert n == cfg.n_seeds

    def test_mean_rows_present(self, run_result):
        cfg, _, records = run_result
        means = [r for r in records if r.seed is None]
        assert len(means) == 3 * len(cfg.leads_days)
        for m in means:
            group = [
                r.crps for r in records
                if r.seed is not None
                and (r.method, r.variable, r.lead_days)
                == (m.method, m.variable, m.lead_days)
            ]
            assert m.crps == pytest.approx(float(np.mean(group)))

    def test_artifacts_written(self, run_result):
        cfg, out, _ = run_result
        assert (out / "records.json").is_file()
        assert (out / "metrics.csv").is_file()
        assert (out / "metrics_by_seed.csv").is_file()
        sel_files = sorted(p.name for p in (out / "selections").iterdir())
        assert f"random_seed{cfg.base_seed}.json" in sel_files
        assert len(sel_files) == 3 * cfg.n_seeds

    def test_metrics_csv_schema(self, run_result):
        _, out, _ = run_result
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == "method,variable,lead_days,crps,rmse,ssr"
        assert len(lines) == 1 + 6

    def test_rerun_identical_csv_bytes(self, small_grid, tmp_path, run_result):
        cfg, out, _ = run_result
        cfg2 = base_config(small_grid)
        run_experiment(cfg2, tmp_path)
        assert (tmp_path / "metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()
        assert (
            (tmp_path / "metrics_by_seed.csv").read_bytes()
            == (out / "metrics_by_seed.csv").read_bytes()
        )

    def test_constant_in_time_dataset_persistence_perfect(self, tmp_path):
        grid = GridSpec(np.array([-30.0, 0.0, 30.0]), np.array([0.0, 120.0, 240.0]))
        rng = np.random.default_rng(0)
        frame = rng.normal(size=(1, 3, 3)).astype(np.float32)
        start = datetime(2000, 1, 1)
        n = 731
        ds = GriddedDataset(
            grid=grid,
            variables=["synthetic_0"],
            timestamps=[start + timedelta(hours=24 * i) for i in range(n)],
            data=np.repeat(frame[None], n, axis=0),
        )
        path = tmp_path / "const.ften"
        save_dataset(ds, path)
        cfg = ExperimentConfig(
            strategies=["full", "random"],
            forecaster=ForecasterSpec("persistence"),
            split=SplitSpec((2000, 2000), None, (2001, 2001)),
            dataset_path=str(path),
            n_members=2,
            n_seeds=1,
            eval_stride_hours=240.0,
            flat_grid=True,
        )
        records = run_experiment(cfg, tmp_path / "out")
        assert records
        for r in records:
            assert r.crps == pytest.approx(0.0, abs=1e-10)
            assert r.rmse == pytest.approx(0.0, abs=1e-10)

    def test_every_cell_selects_before_any_cell_trains(self, small_grid, tmp_path,
                                                       monkeypatch):
        calls = []
        for name in ("run_strategy", "train", "rollout", "evaluate_forecast"):
            fn = getattr(experiment, name)
            monkeypatch.setattr(experiment, name,
                                lambda *a, _n=name, _f=fn, **k: calls.append(_n) or _f(*a, **k))
        run_experiment(base_config(small_grid), tmp_path)
        cells = 3 * 2  # full, random and stratified_time; two seeds
        assert calls == ["run_strategy"] * cells + ["train", "rollout", "evaluate_forecast"] * cells

    def test_failed_selection_names_its_cell(self, small_grid, tmp_path):
        cfg = base_config(small_grid, strategies=["random"], fraction=1e-6)
        with pytest.raises(ExperimentError, match=r"cell \(random, seed 7\) failed"):
            run_experiment(cfg, tmp_path)

    def test_stage_tagged_error(self, small_grid, tmp_path):
        cfg = base_config(
            small_grid,
            forecaster=ForecasterSpec("toy_diffusion", {"n_epochs": 1, "hidden_width": 4}),
            synthetic=small_synth(small_grid, n_years=1),
            split=SplitSpec((2000, 2000), None, (2005, 2005)),
            n_seeds=1,
        )
        with pytest.raises(ExperimentError):
            run_experiment(cfg, tmp_path)


class TestConfig:
    def test_requires_exactly_one_source(self, small_grid):
        with pytest.raises(ExperimentError):
            ExperimentConfig(
                strategies=["full"],
                forecaster=ForecasterSpec("persistence"),
                split=SplitSpec((2000, 2000)),
            )
        with pytest.raises(ExperimentError):
            ExperimentConfig(
                strategies=["full"],
                forecaster=ForecasterSpec("persistence"),
                split=SplitSpec((2000, 2000)),
                dataset_path="x.ften",
                synthetic=small_synth(small_grid),
            )

    def test_empty_strategies(self, small_grid):
        with pytest.raises(ExperimentError):
            ExperimentConfig(
                strategies=[],
                forecaster=ForecasterSpec("persistence"),
                split=SplitSpec((2000, 2000)),
                synthetic=small_synth(small_grid),
            )

    def test_from_json_shipped_benchmark(self):
        cfg = ExperimentConfig.from_json("benchmarks/synthetic_benchmark.json")
        assert cfg.forecaster.kind == "stochastic_linear"
        assert cfg.n_seeds == 5
        assert set(cfg.strategies) >= {"full", "random", "stratified_time"}
        assert cfg.synthetic is not None and cfg.dataset_path is None
        assert cfg.flat_grid is True
        assert not hasattr(cfg, "jobs")  # the file's retired "jobs" key is ignored

    @pytest.mark.parametrize("leads, bad", [((0, 5), 0), ((5, 11), 11), ((-1,), -1)])
    def test_lead_outside_steps_rejected(self, small_grid, leads, bad):
        with pytest.raises(ExperimentError, match=rf"lead {bad}d outside 1\.\.10"):
            base_config(small_grid, leads_days=leads, n_steps=10)

    @pytest.mark.parametrize("over, message", [
        ({"n_members": 2.5}, "n_members must be an integer >= 1, not 2.5"),
        ({"n_members": 0}, "n_members must be an integer >= 1, not 0"),
        ({"n_seeds": 0}, "n_seeds must be an integer >= 1, not 0"),
        ({"n_steps": 0, "leads_days": ()}, "n_steps must be an integer >= 1, not 0"),
        ({"base_seed": -1}, "base_seed must be an integer >= 0, not -1"),
        ({"fraction": 0.0}, "fraction must lie in (0, 1], not 0.0"),
        ({"fraction": 2.0}, "fraction must lie in (0, 1], not 2.0"),
        ({"eval_stride_hours": 0.0}, "eval_stride_hours must be > 0, not 0.0"),
        ({"leads_days": ()}, "leads_days must be non-empty"),
        ({"strategies": ["random", "randm"]},
         "unknown strategy 'randm'; known: " + ", ".join(STRATEGIES)),
        ({"strategies": ["random", "stratified_time", "random"]},
         "strategy 'random' is listed more than once"),
        ({"strategies": ["full", "full"]}, "strategy 'full' is listed more than once"),
        ({"leads_days": (5, 10, 5)}, "lead 5d is listed more than once"),
    ])
    def test_config_that_cannot_run_rejected(self, small_grid, over, message):
        with pytest.raises(ExperimentError) as e:
            base_config(small_grid, **over)
        assert str(e.value) == message

    def test_integral_float_counts_stored_as_int(self, small_grid):
        cfg = base_config(small_grid, n_members=8.0, n_seeds=2.0, n_steps=12.0, base_seed=3.0)
        counts = (cfg.n_members, cfg.n_seeds, cfg.n_steps, cfg.base_seed)
        assert counts == (8, 2, 12, 3) and all(type(v) is int for v in counts)

    @pytest.mark.parametrize("key", ["n_seed", "split.tset_years", "forecaster.hyper"])
    def test_from_json_unknown_key_named(self, tmp_path, key):
        d = {
            "strategies": ["random"],
            "forecaster": {"kind": "persistence"},
            "split": {"train_years": [2000, 2001], "test_years": [2002, 2002]},
            "dataset_path": "data/x.ften",
            "jobs": 4,  # retired, still accepted
        }
        *block, name = key.split(".")
        (d[block[0]] if block else d)[name] = 1
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(d))
        with pytest.raises(ExperimentError, match=f"unknown run config key {key!r}"):
            ExperimentConfig.from_json(p)

    @pytest.mark.parametrize("key, value", [
        ("strategies", "random"),
        ("strategies", ["random", 3]),
        ("split.train_years", [2000]),
        ("split.train_years", [2000, "2001"]),
        ("split.test_years", 2002),
        ("split.val_years", [2000, True]),
        ("forecaster", "persistence"),
        ("forecaster.kind", ["persistence"]),
        ("forecaster.hyperparameters", [1]),
        ("dataset_path", 3),
        ("leads_days", [5.0]),
        ("fraction", "0.2"),
        ("n_members", True),
        ("n_seeds", None),
        ("base_seed", [1]),
        ("n_steps", float("inf")),
        ("eval_stride_hours", {}),
        ("flat_grid", "false"),
        ("flat_grid", 1),
        ("synthetic", [1]),
    ])
    def test_from_json_bad_type_names_key(self, tmp_path, key, value):
        d = {
            "strategies": ["random"],
            "forecaster": {"kind": "persistence"},
            "split": {"train_years": [2000, 2001], "test_years": [2002, 2002]},
            "dataset_path": "data/x.ften",
        }
        *block, name = key.split(".")
        (d[block[0]] if block else d)[name] = value
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(d))
        with pytest.raises(ExperimentError, match=rf"run config key '{key}' must be"):
            ExperimentConfig.from_json(p)

    def test_from_json_null_optional_years_accepted(self, tmp_path):
        d = {
            "strategies": ["random"],
            "forecaster": {"kind": "persistence"},
            "split": {"train_years": [2000, 2001], "val_years": None, "test_years": [2002, 2002]},
            "dataset_path": "data/x.ften",
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(d))
        assert ExperimentConfig.from_json(p).split.val_years is None

    def test_from_json_round_trip(self, tmp_path):
        d = {
            "strategies": ["random"],
            "forecaster": {"kind": "persistence"},
            "split": {"train_years": [2000, 2001], "test_years": [2002, 2002]},
            "dataset_path": "data/x.ften",
            "fraction": 0.1,
            "n_seeds": 3,
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(d))
        cfg = ExperimentConfig.from_json(p)
        assert cfg.fraction == 0.1
        assert cfg.split.test_years == (2002, 2002)
        assert cfg.dataset_path == str((tmp_path / "data" / "x.ften").resolve())


def rec(method, lead, crps, rmse, ssr, variable="z500", seed=0):
    return MetricRecord(method, variable, lead, crps, rmse, ssr, seed=seed)


class TestEmitReport:
    def test_full_data_row_byte_pattern(self, tmp_path):
        records = [
            rec("Full Data", 5, 242.66, 544.19, 0.84),
            rec("Full Data", 10, 335.2, 750.52, 0.94),
        ]
        emit_report(records, tmp_path)
        lines = (tmp_path / "report_z500.csv").read_text().strip().split("\n")
        assert lines[0] == REPORT_HEADER
        assert lines[1] == "Full Data,242.66,335.2,544.19,750.52,0.84,0.94"

    def test_single_record_single_row(self, tmp_path):
        emit_report([rec("random", 5, 1.0, 2.0, 0.5)], tmp_path)
        lines = (tmp_path / "report_z500.csv").read_text().strip().split("\n")
        assert len(lines) == 2

    def test_column_count(self, tmp_path):
        emit_report(
            [rec("random", 5, 1.0, 2.0, 0.5), rec("random", 10, 1.5, 2.5, 0.7)],
            tmp_path,
        )
        for line in (tmp_path / "report_z500.csv").read_text().strip().split("\n"):
            assert len(line.split(",")) == 1 + 6

    def test_seed_spread_rendered(self, tmp_path):
        records = [
            rec("random", 5, 1.0, 2.0, 0.5, seed=0),
            rec("random", 5, 3.0, 2.0, 0.5, seed=1),
        ]
        emit_report(records, tmp_path)
        row = (tmp_path / "report_z500.csv").read_text().strip().split("\n")[1]
        cells = row.split(",")
        assert cells[1] == "2±1.41"     # crps mean 2, sample std sqrt(2)
        assert cells[3] == "2"          # identical rmse values: no ± suffix

    def test_ssr_curve_and_json(self, tmp_path):
        records = [rec("random", lead, 1.0, 2.0, 0.1 * lead) for lead in (1, 5, 10)]
        summary = emit_report(records, tmp_path)
        curve = (tmp_path / "ssr_curve_z500.csv").read_text().strip().split("\n")
        assert curve[0] == "strategy,lead_days,ssr"
        assert len(curve) == 4
        assert (tmp_path / "report.json").is_file()
        assert summary["z500"]["table"][0]["crps_5d"] == pytest.approx(1.0)
        points = summary["z500"]["ssr_curves"]["random"]
        assert [p["lead_days"] for p in points] == [1, 5, 10]

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ExperimentError):
            emit_report([], tmp_path)


class TestAggregateMeans:
    def test_groups_and_means(self):
        records = [
            rec("a", 5, 1.0, 2.0, 0.5, seed=0),
            rec("a", 5, 3.0, 4.0, 0.7, seed=1),
            rec("b", 5, 5.0, 6.0, 0.9, seed=0),
        ]
        means = aggregate_means(records)
        assert len(means) == 2
        a = next(m for m in means if m.method == "a")
        assert a.seed is None
        assert a.crps == pytest.approx(2.0)
        assert a.rmse == pytest.approx(3.0)
