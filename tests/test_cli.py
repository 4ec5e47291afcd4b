import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratacast import dataset as dsmod
from stratacast.cli import main
from stratacast.experiment import eval_init_times, load_standardized
from stratacast.forecast import VALID_KINDS
from stratacast.metrics import MetricRecord, read_records

PKG_ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "stratacast.cli", *args],
        capture_output=True, text=True, cwd=cwd or PKG_ROOT,
    )


def _rewrite_npz(path, drop=None, **put):
    """Rewrite the npz file at ``path`` without entry ``drop`` and with ``put``."""
    with np.load(path) as z:
        entries = {k: z[k] for k in z.files if k != drop}
    np.savez(path, **entries, **put)


@pytest.fixture(scope="module")
def synth_config(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "synth.json"
    p.write_text(json.dumps({
        "lats": [-30.0, 0.0, 30.0],
        "lons": [0.0, 90.0, 180.0, 270.0],
        "n_years": 2,
        "stride_hours": 24,
        "seasonal_amplitude": 2.0,
        "regime_amplitude": 1.5,
        "ar1_coefficient": 0.5,
        "noise_std": 0.5,
    }))
    return p


@pytest.fixture(scope="module")
def data_dir(synth_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(["generate-data", "--config", str(synth_config),
                 "--seed", "5", "--out", str(out)]) == 0
    return out


class TestUsage:
    def test_no_command_exits_1(self):
        r = run_cli()
        assert r.returncode == 1
        assert "usage" in r.stderr

    def test_missing_required_flag_exits_1(self):
        r = run_cli("select", "--out", "/tmp/x")
        assert r.returncode == 1
        assert "usage" in r.stderr

    @pytest.mark.parametrize("cmd", [
        "generate-data", "select", "train", "rollout", "evaluate", "run", "report",
    ])
    def test_help_exits_0_and_lists_common_flags(self, cmd):
        r = run_cli(cmd, "--help")
        assert r.returncode == 0
        assert ("--seed" in r.stdout) == (cmd not in ("evaluate", "report"))
        assert "--out" in r.stdout


class TestDataErrors:
    def test_missing_dataset_exits_2(self, tmp_path):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["select", "--data", str(tmp_path / "nope.ften"),
                         "--strategy", "random", "--train-years", "2000:2000",
                         "--out", str(tmp_path)])
        assert code == 2
        assert "error" in err.getvalue()

    def test_bad_run_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "strategies": [],
            "forecaster": {"kind": "persistence"},
            "split": {"train_years": [2000, 2000]},
            "dataset_path": "x.ften",
        }))
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("key", [
        "split", "strategies", "forecaster.kind", "split.train_years", "forecaster",
    ])
    def test_run_config_missing_key_exits_2_naming_it(self, tmp_path, key):
        d = {
            "strategies": ["random"],
            "forecaster": {"kind": "persistence"},
            "split": {"train_years": [2000, 2000]},
            "dataset_path": "x.ften",
        }
        *block, name = key.split(".")
        del (d[block[0]] if block else d)[name]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(d))
        r = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert r.returncode == 2
        assert f"missing run config key {key!r}" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("block, key, value, what", [
        ("split", "train_years", 2000, "a list of two integers"),
        (None, "leads_days", 5, "a non-empty list of integers"),
        (None, "fraction", None, "a number in (0, 1]"),
    ], ids=["train_years", "leads_days", "fraction"])
    def test_run_config_bad_type_exits_2_naming_it(self, tmp_path, block, key, value, what):
        d = {
            "strategies": ["random"],
            "forecaster": {"kind": "persistence"},
            "split": {"train_years": [2000, 2000]},
            "dataset_path": "x.ften",
        }
        (d[block] if block else d)[key] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(d))
        r = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert r.returncode == 2
        name = f"{block}.{key}" if block else key
        assert f"run config key {name!r} must be {what}" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("over, message", [
        ({"n_seed": 2}, "unknown run config key 'n_seed'"),
        ({"split": {"train_years": [2000, 2000], "tset_years": [2001, 2001]}},
         "unknown run config key 'split.tset_years'"),
        ({"forecaster": {"kind": "persistence", "hyper": {}}},
         "unknown run config key 'forecaster.hyper'"),
        ({"flat_grid": "false"}, "run config key 'flat_grid' must be true or false"),
        ({"n_members": 2.5}, "run config key 'n_members' must be an integer >= 1, not 2.5"),
        ({"n_members": 0}, "run config key 'n_members' must be an integer >= 1, not 0"),
        ({"n_steps": 0, "leads_days": []},
         "run config key 'n_steps' must be an integer >= 1, not 0"),
        ({"leads_days": []},
         "run config key 'leads_days' must be a non-empty list of integers, not []"),
        ({"base_seed": -1}, "run config key 'base_seed' must be an integer >= 0, not -1"),
        ({"fraction": 2.0}, "run config key 'fraction' must be a number in (0, 1], not 2.0"),
        ({"eval_stride_hours": 0},
         "run config key 'eval_stride_hours' must be a positive finite number, not 0"),
        ({"strategies": ["randm"]}, "unknown strategy 'randm'"),
        ({"strategies": ["random", "random"]}, "strategy 'random' is listed more than once"),
        ({"leads_days": [5, 5]}, "lead 5d is listed more than once"),
    ], ids=["unknown", "unknown_split", "unknown_forecaster", "flat_grid", "fractional_count",
            "no_members", "no_steps", "no_leads", "negative_seed", "fraction", "eval_stride",
            "unknown_strategy", "repeated_strategy", "repeated_lead"])
    def test_run_config_that_cannot_run_exits_2_before_data(self, tmp_path, over, message):
        # dataset_path names no file: each config is refused before it is read
        d = dict({
            "strategies": ["random"],
            "forecaster": {"kind": "persistence"},
            "split": {"train_years": [2000, 2000]},
            "dataset_path": "x.ften",
        }, **over)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(d))
        r = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert r.returncode == 2
        assert message in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, name", [("--members", "n_members"), ("--steps", "n_steps")])
    def test_rollout_count_below_one_exits_2_before_data(self, tmp_path, flag, name):
        # neither the dataset nor the model exists: the count is refused first
        r = run_cli("rollout", "--data", str(tmp_path / "x.ften"), "--model", str(tmp_path / "m"),
                    flag, "0", "--train-years", "2000:2000", "--test-years", "2001:2001",
                    "--out", str(tmp_path / "fc"))
        assert r.returncode == 2
        assert f"command-line key '{flag}' must be an integer >= 1, not 0" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "fc").exists()

    def test_run_negative_seed_flag_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text((PKG_ROOT / "benchmarks" / "synthetic_benchmark.json").read_text())
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(cfg), "--seed", "-1",
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "command-line key '--seed' must be an integer >= 0, not -1" in err.getvalue()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change, message", [
        (lambda row: row.update(extra=1), "unknown record key 'extra'"),
        (lambda row: row.pop("crps"), "missing record key 'crps'"),
        (lambda row: row.update(lead_days="5"),
         "record key 'lead_days' must be an integer >= 1, not '5'"),
        (lambda row: row.update(seed=1.5), "record key 'seed' must be null or an integer, not 1.5"),
    ], ids=["extra_key", "missing_key", "string_lead", "float_seed"])
    def test_report_bad_records_exit_2_naming_key(self, tmp_path, change, message):
        rows = [{"method": "random", "variable": "v", "lead_days": 5,
                 "crps": 1.0, "rmse": 2.0, "ssr": 0.5, "seed": 0} for _ in range(2)]
        change(rows[1])
        (tmp_path / "records.json").write_text(json.dumps(rows))
        r = run_cli("report", "--records", str(tmp_path / "records.json"),
                    "--out", str(tmp_path / "out"))
        assert r.returncode == 2
        assert message in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "out").exists()

    def test_lead_beyond_steps_exits_2_before_any_cell(self, tmp_path):
        d = json.loads((PKG_ROOT / "benchmarks" / "synthetic_benchmark.json").read_text())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(d, n_steps=3)))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "lead 5d outside 1..3 rollout steps" in err.getvalue()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("hyper", [{"n_epoch": 1}, {"sigma_min": 3.0, "sigma_max": 0.5},
                                       {"n_sample_steps": 8.5}])
    def test_bad_hyperparameters_exit_2_before_training(self, data_dir, tmp_path, hyper):
        data = str(data_dir / "synthetic.ften")
        assert main(["select", "--data", data, "--strategy", "random",
                     "--train-years", "2000:2000", "--out", str(tmp_path)]) == 0
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "strategies": ["random"],
            "forecaster": {"kind": "toy_diffusion", "hyperparameters": hyper},
            "split": {"train_years": [2000, 2000], "test_years": [2001, 2001]},
            "dataset_path": data,
        }))
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["train", "--data", data, "--selection",
                         str(tmp_path / "random_seed0.json"), "--forecaster", "toy_diffusion",
                         "--hyper", json.dumps(hyper), "--train-years", "2000:2000",
                         "--out", str(tmp_path / "model")]) == 2
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert not (tmp_path / "model").exists() and not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["generate-data", "run"])
    @pytest.mark.parametrize("add, drop, key", [
        ({"n_yeers": 2}, "n_years", "n_yeers"),
        ({}, "noise_std", "noise_std"),
        ({"with_static": True}, None, "with_static"),
        ({"n_regimes": 12}, None, "n_regimes"),
        ({"n_years": "2"}, None, "n_years"),
        ({"noise_std": "0.4"}, None, "noise_std"),
        ({"n_years": 1.5}, None, "n_years"),
        ({"n_variables": 0}, None, "n_variables"),
        ({"n_variables": -1}, None, "n_variables"),
        ({"seed": -3}, None, "seed"),
        ({"start_year": 300000}, None, "start_year"),
        ({"start_year": 10**20}, None, "start_year"),
        ({"start_year": 0}, None, "start_year"),
        ({"start_year": 9999, "n_years": 2}, None, "start_year"),
    ], ids=["misspelt", "missing", "with_static", "n_regimes", "string_count", "string_number",
            "fractional_count", "no_variables", "negative_variables", "negative_seed",
            "year_past_iso", "year_past_int64", "year_zero", "years_run_past_9999"])
    def test_bad_synthetic_key_exits_2_naming_it(self, synth_config, tmp_path,
                                                 command, add, drop, key):
        synth = {**json.loads(synth_config.read_text()), "seed": 1, **add}
        synth.pop(drop, None)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(synth if command == "generate-data" else {
            "strategies": ["random"],
            "forecaster": {"kind": "persistence"},
            "split": {"train_years": [2000, 2000], "test_years": [2001, 2001]},
            "synthetic": synth,
        }))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert repr(key) in err.getvalue()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, args", [
        ("generate-data", ["--config", "{tmp}/synth.json"]),
        ("select", ["--data", "{tmp}/x.ften", "--strategy", "full",
                    "--train-years", "2000:2000"]),
        ("select", ["--data", "{tmp}/x.ften", "--strategy", "random",
                    "--train-years", "2000:2000"]),
        ("train", ["--data", "{tmp}/x.ften", "--selection", "{tmp}/s.json", "--forecaster",
                   "stochastic_linear", "--train-years", "2000:2000"]),
        ("rollout", ["--data", "{tmp}/x.ften", "--model", "{tmp}/m", "--train-years", "2000:2000",
                     "--test-years", "2001:2001"]),
        ("run", ["--config", "{tmp}/cfg.json"]),
    ], ids=["generate-data", "select_full", "select_random", "train", "rollout", "run"])
    def test_negative_seed_flag_exits_2_before_any_input(self, tmp_path, command, args):
        # no input file exists: the seed is refused before any is read
        args = [a.format(tmp=tmp_path) for a in args]
        r = run_cli(command, *args, "--seed", "-1", "--out", str(tmp_path / "out"))
        assert r.returncode == 2
        assert "command-line key '--seed' must be an integer >= 0, not -1" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, args, flag, value", [
        ("select", ["--strategy", "random"], "--train-years", "abc"),
        ("train", ["--selection", "{tmp}/s.json", "--forecaster", "persistence"],
         "--train-years", "2000:x"),
        ("rollout", ["--model", "{tmp}/m", "--train-years", "2000"], "--test-years", "2001-2002"),
        ("evaluate", ["--forecast", "{tmp}/f", "--train-years", "2000"], "--leads", "5,x"),
        ("evaluate", ["--forecast", "{tmp}/f", "--train-years", "2000"], "--leads", ""),
    ], ids=["select_years", "train_years", "rollout_test_years", "evaluate_leads",
            "evaluate_empty_leads"])
    def test_malformed_time_flag_is_a_usage_error_before_any_input(self, tmp_path, command,
                                                                   args, flag, value):
        # no input file exists: the flag is refused as it is parsed
        args = [a.format(tmp=tmp_path) for a in args]
        r = run_cli(command, "--data", str(tmp_path / "x.ften"), *args, flag, value,
                    "--out", str(tmp_path / "out"))
        assert r.returncode == 1
        assert f"argument {flag}: invalid" in r.stderr and repr(value) in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "out").exists()

    def test_inverted_year_range_exits_2(self, data_dir, tmp_path):
        r = run_cli("select", "--data", str(data_dir / "synthetic.ften"), "--strategy", "random",
                    "--train-years", "2001:2000", "--out", str(tmp_path / "out"))
        assert r.returncode == 2
        assert "invalid year range 2001-2000" in r.stderr
        assert not (tmp_path / "out").exists()


class TestPipeline:
    def test_generate_writes_dataset(self, data_dir):
        assert (data_dir / "synthetic.ften").is_file()
        assert (data_dir / "synthetic.ften.meta.json").is_file()

    def test_generate_seed_flag_wins_over_the_config_seed(self, synth_config, tmp_path):
        """``--seed`` replaces the config's seed; without it the config's seed
        is used, or 0 when the config has none."""
        seeded = tmp_path / "seeded.json"
        seeded.write_text(json.dumps(dict(json.loads(synth_config.read_text()), seed=1)))

        def archive(cfg, *flag):
            out = tmp_path / "_".join([cfg.stem, *flag])
            assert main(["generate-data", "--config", str(cfg), *flag, "--out", str(out)]) == 0
            return (out / "synthetic.ften").read_bytes()

        five = archive(seeded, "--seed", "5")
        assert five != archive(seeded, "--seed", "9")
        assert five == archive(synth_config, "--seed", "5")
        assert archive(seeded) == archive(synth_config, "--seed", "1")
        assert archive(synth_config) == archive(synth_config, "--seed", "0")

    def test_select_deterministic_across_processes(self, data_dir, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        common = ["select", "--data", str(data_dir / "synthetic.ften"),
                  "--strategy", "stratified_time", "--fraction", "0.2",
                  "--train-years", "2000:2000", "--seed", "3"]
        ra = run_cli(*common, "--out", str(out_a))
        rb = run_cli(*common, "--out", str(out_b))
        assert ra.returncode == rb.returncode == 0
        fa = out_a / "stratified_time_seed3.json"
        fb = out_b / "stratified_time_seed3.json"
        assert fa.read_bytes() == fb.read_bytes()

    def test_select_train_rollout_evaluate_chain(self, data_dir, tmp_path):
        """For every forecaster kind, the step-by-step chain scores exactly what
        ``run`` scores for the same (strategy, seed) cell."""
        data = str(data_dir / "synthetic.ften")
        assert main(["select", "--data", data, "--strategy", "random",
                     "--train-years", "2000:2000", "--seed", "1",
                     "--out", str(tmp_path)]) == 0
        sel = tmp_path / "random_seed1.json"
        for kind in VALID_KINDS:
            out = tmp_path / kind
            hyper = {"n_epochs": 3, "hidden_width": 8, "n_sample_steps": 4}
            hyper = hyper if kind == "toy_diffusion" else {}
            assert main(["train", "--data", data, "--selection", str(sel),
                         "--forecaster", kind, "--hyper", json.dumps(hyper), "--seed", "1",
                         "--train-years", "2000:2000", "--out", str(out)]) == 0
            assert main(["rollout", "--data", data,
                         "--model", str(out / kind), "--seed", "1",
                         "--members", "3", "--steps", "10",
                         "--train-years", "2000:2000", "--test-years", "2001:2001",
                         "--out", str(out)]) == 0
            assert main(["evaluate", "--data", data,
                         "--forecast", str(out / "forecast"),
                         "--train-years", "2000:2000", "--flat-grid",
                         "--method", "random", "--out", str(out)]) == 0
            assert sorted(p.name for p in out.iterdir()) == sorted(
                [f"{kind}.npz", "forecast.npz", "metrics.csv"]
            )
            lines = (out / "metrics.csv").read_text().strip().split("\n")
            assert lines[0] == "method,variable,lead_days,crps,rmse,ssr"
            assert len(lines) == 3  # one variable, leads 5 and 10

            cfg = out / "exp.json"
            cfg.write_text(json.dumps({
                "strategies": ["random"],
                "forecaster": {"kind": kind, "hyperparameters": hyper},
                "split": {"train_years": [2000, 2000], "test_years": [2001, 2001]},
                "dataset_path": data,
                "n_members": 3,
                "base_seed": 1,
                "flat_grid": True,
            }))
            assert main(["run", "--config", str(cfg), "--out", str(out / "run")]) == 0
            by_seed = (out / "run" / "metrics_by_seed.csv").read_text().split("\n")
            run_rows = [r.replace("random,1,", "random,", 1)
                        for r in by_seed if r.startswith("random,1,")]
            assert run_rows == lines[1:], kind

    def test_chain_equals_run_when_training_years_do_not_come_first(self, synth_config,
                                                                     tmp_path):
        """On a 2000-2002 archive trained on 2001, ``run`` writes the selection
        file ``select`` writes, of 2001 dates, and the chain scores what ``run``
        scores."""
        synth = tmp_path / "synth.json"
        synth.write_text(json.dumps(dict(json.loads(synth_config.read_text()), n_years=3)))
        assert main(["generate-data", "--config", str(synth), "--seed", "5",
                     "--out", str(tmp_path)]) == 0
        data = str(tmp_path / "synthetic.ften")
        common = ["--data", data, "--train-years", "2001:2001"]
        seeded = [*common, "--seed", "1"]
        assert main(["select", *seeded, "--strategy", "stratified_time",
                     "--out", str(tmp_path / "sel")]) == 0
        sel = tmp_path / "sel" / "stratified_time_seed1.json"
        assert main(["train", *seeded, "--selection", str(sel),
                     "--forecaster", "stochastic_linear", "--out", str(tmp_path)]) == 0
        assert main(["rollout", *seeded, "--model", str(tmp_path / "stochastic_linear"),
                     "--members", "3", "--test-years", "2002:2002", "--out", str(tmp_path)]) == 0
        assert main(["evaluate", *common, "--forecast", str(tmp_path / "forecast"),
                     "--flat-grid", "--method", "stratified_time", "--out", str(tmp_path)]) == 0

        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "strategies": ["stratified_time"],
            "forecaster": {"kind": "stochastic_linear"},
            "split": {"train_years": [2001, 2001], "test_years": [2002, 2002]},
            "dataset_path": data,
            "n_members": 3,
            "base_seed": 1,
            "flat_grid": True,
        }))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        run_sel = tmp_path / "run" / "selections" / "stratified_time_seed1.json"
        assert run_sel.read_bytes() == sel.read_bytes()
        years = dsmod.load_dataset(data).timestamps.astype("datetime64[Y]").astype(int) + 1970
        assert set(years[json.loads(sel.read_text())["indices"]]) == {2001}

        lines = (tmp_path / "metrics.csv").read_text().strip().split("\n")
        by_seed = (tmp_path / "run" / "metrics_by_seed.csv").read_text().split("\n")
        run_rows = [r.replace("stratified_time,1,", "stratified_time,", 1)
                    for r in by_seed if r.startswith("stratified_time,1,")]
        assert len(lines) == 3 and run_rows == lines[1:]

    def test_train_refuses_selection_index_outside_candidates(self, data_dir, tmp_path):
        data = str(data_dir / "synthetic.ften")
        assert main(["select", "--data", data, "--strategy", "random",
                     "--train-years", "2000:2000", "--out", str(tmp_path)]) == 0
        sel = tmp_path / "random_seed0.json"
        indices = json.loads(sel.read_text())["indices"]

        def train(selection, years):
            return run_cli("train", "--data", data, "--selection", str(selection),
                           "--forecaster", "persistence", "--train-years", years,
                           "--out", str(tmp_path / "model"))

        # a selection of 2000 dates is no selection of 2001 candidates
        r = train(sel, "2001:2001")
        assert r.returncode == 2
        assert f"index {indices[0]} is not a training candidate" in r.stderr
        # index 0 has no 24 h history, so it is never a candidate
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(json.loads(sel.read_text()), indices=[*indices[:2], 0])))
        r = train(bad, "2000:2000")
        assert r.returncode == 2
        assert "index 0 is not a training candidate" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "model").exists()

    @pytest.mark.parametrize("change, message", [
        (lambda d: d.pop("indices"), "missing selection file {sel} key 'indices'"),
        (lambda d: d.update(seed=None),
         "selection file {sel} key 'seed' must be an integer, not None"),
        (lambda d: d.update(indices=[i + 0.9 for i in d["indices"]]),
         "selection file {sel} key 'indices' must be a list of integers, not ["),
        (lambda d: d.update(indices=[str(i) for i in d["indices"]]),
         "selection file {sel} key 'indices' must be a list of integers, not ['"),
        (lambda d: d.update(indices=[True, *d["indices"][1:]]),
         "selection file {sel} key 'indices' must be a list of integers, not [True, "),
        (lambda d: d.update(seed=0.0),
         "selection file {sel} key 'seed' must be an integer, not 0.0"),
        (lambda d: d.update(fraction="0.2"),
         "selection file {sel} key 'fraction' must be a finite number, not '0.2'"),
        (lambda d: d.update(strategy=7),
         "selection file {sel} key 'strategy' must be a string, not 7"),
        (lambda d: d.update(indices=[40] * 73),
         "index 40 is listed more than once in the random subset"),
    ], ids=["no_indices", "null_seed", "float_indices", "string_indices", "bool_index",
            "float_seed", "string_fraction", "number_strategy", "repeated_index"])
    def test_train_refuses_a_damaged_selection_file(self, data_dir, tmp_path, change, message):
        data = str(data_dir / "synthetic.ften")
        assert main(["select", "--data", data, "--strategy", "random",
                     "--train-years", "2000:2000", "--out", str(tmp_path)]) == 0
        sel = tmp_path / "random_seed0.json"
        d = json.loads(sel.read_text())
        change(d)
        sel.write_text(json.dumps(d))
        r = run_cli("train", "--data", data, "--selection", str(sel), "--forecaster", "persistence",
                    "--train-years", "2000:2000", "--out", str(tmp_path / "model"))
        assert r.returncode == 2
        assert message.format(sel=sel) in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "model").exists()

    def test_rollout_refuses_a_forecaster_file_of_the_wrong_shape(self, data_dir, tmp_path):
        data = str(data_dir / "synthetic.ften")
        assert main(["select", "--data", data, "--strategy", "random",
                     "--train-years", "2000:2000", "--out", str(tmp_path)]) == 0
        assert main(["train", "--data", data, "--selection", str(tmp_path / "random_seed0.json"),
                     "--forecaster", "climatology",
                     "--train-years", "2000:2000", "--out", str(tmp_path)]) == 0
        path = tmp_path / "climatology.npz"
        with np.load(path) as z:
            eleven = z["monthly_means"][:11]
        _rewrite_npz(path, drop="monthly_means", monthly_means=eleven)
        r = run_cli("rollout", "--data", data, "--model", str(tmp_path / "climatology"),
                    "--train-years", "2000:2000", "--test-years", "2001:2001",
                    "--out", str(tmp_path / "fc"))
        assert r.returncode == 2
        assert "entry 'monthly_means' has shape (11, 1, 3, 4), not (12, 1, 3, 4)" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "fc").exists()

    def test_rollout_refuses_data_of_another_grid(self, data_dir, tmp_path):
        data = str(data_dir / "synthetic.ften")
        assert main(["select", "--data", data, "--strategy", "random",
                     "--train-years", "2000:2000", "--out", str(tmp_path)]) == 0
        assert main(["train", "--data", data, "--selection", str(tmp_path / "random_seed0.json"),
                     "--forecaster", "stochastic_linear",
                     "--train-years", "2000:2000", "--out", str(tmp_path)]) == 0
        ds = dsmod.load_dataset(data)
        narrow = dsmod.GriddedDataset(dsmod.GridSpec(ds.grid.lats[:2], ds.grid.lons),
                                      ds.variables, ds.timestamps, ds.data[:, :, :2])
        dsmod.save_dataset(narrow, tmp_path / "narrow.ften")
        r = run_cli("rollout", "--data", str(tmp_path / "narrow.ften"),
                    "--model", str(tmp_path / "stochastic_linear"),
                    "--train-years", "2000:2000", "--test-years", "2001:2001",
                    "--out", str(tmp_path / "fc"))
        assert r.returncode == 2
        assert "forecaster entry 'a' has shape (1, 3, 4), not (1, 2, 4)" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "fc").exists()

    def test_evaluate_refuses_truth_of_another_grid(self, data_dir, tmp_path):
        data = str(data_dir / "synthetic.ften")
        assert main(["select", "--data", data, "--strategy", "random",
                     "--train-years", "2000:2000", "--out", str(tmp_path)]) == 0
        assert main(["train", "--data", data, "--selection", str(tmp_path / "random_seed0.json"),
                     "--forecaster", "persistence",
                     "--train-years", "2000:2000", "--out", str(tmp_path)]) == 0
        assert main(["rollout", "--data", data, "--model", str(tmp_path / "persistence"),
                     "--members", "2", "--train-years", "2000:2000",
                     "--test-years", "2001:2001", "--out", str(tmp_path)]) == 0
        ds = dsmod.load_dataset(data)
        narrow = dsmod.GriddedDataset(dsmod.GridSpec(ds.grid.lats[:2], ds.grid.lons),
                                      ds.variables, ds.timestamps, ds.data[:, :, :2])
        dsmod.save_dataset(narrow, tmp_path / "narrow.ften")
        r = run_cli("evaluate", "--data", str(tmp_path / "narrow.ften"),
                    "--forecast", str(tmp_path / "forecast"),
                    "--train-years", "2000:2000", "--out", str(tmp_path / "scores"))
        assert r.returncode == 2
        assert ("forecast state shape (variable, lat, lon) (1, 3, 4) does not match "
                "the truth dataset's (1, 2, 4)") in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "scores").exists()

    def test_evaluate_refuses_a_repeated_lead(self, data_dir, tmp_path):
        data = str(data_dir / "synthetic.ften")
        assert main(["select", "--data", data, "--strategy", "random",
                     "--train-years", "2000:2000", "--out", str(tmp_path)]) == 0
        assert main(["train", "--data", data, "--selection", str(tmp_path / "random_seed0.json"),
                     "--forecaster", "persistence",
                     "--train-years", "2000:2000", "--out", str(tmp_path)]) == 0
        assert main(["rollout", "--data", data, "--model", str(tmp_path / "persistence"),
                     "--members", "2", "--train-years", "2000:2000",
                     "--test-years", "2001:2001", "--out", str(tmp_path)]) == 0
        r = run_cli("evaluate", "--data", data, "--forecast", str(tmp_path / "forecast"),
                    "--train-years", "2000:2000", "--leads", "5,5",
                    "--out", str(tmp_path / "scores"))
        assert r.returncode == 2
        assert "lead 5d is listed more than once" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "scores").exists()

    def test_evaluate_refuses_a_lead_past_the_forecast_steps(self, data_dir, tmp_path):
        data = str(data_dir / "synthetic.ften")
        assert main(["select", "--data", data, "--strategy", "random",
                     "--train-years", "2000:2000", "--out", str(tmp_path)]) == 0
        assert main(["train", "--data", data, "--selection", str(tmp_path / "random_seed0.json"),
                     "--forecaster", "persistence",
                     "--train-years", "2000:2000", "--out", str(tmp_path)]) == 0
        assert main(["rollout", "--data", data, "--model", str(tmp_path / "persistence"),
                     "--members", "2", "--steps", "10", "--train-years", "2000:2000",
                     "--test-years", "2001:2001", "--out", str(tmp_path)]) == 0
        r = run_cli("evaluate", "--data", data, "--forecast", str(tmp_path / "forecast"),
                    "--train-years", "2000:2000", "--leads", "5,11",
                    "--out", str(tmp_path / "scores"))
        assert r.returncode == 2
        assert "lead 11d outside 1..10 rollout steps" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "scores").exists()

    @pytest.mark.parametrize("kind, entry, message", [
        ("persistence", "kind", "unknown serialized kind 'None'"),
        ("climatology", "monthly_means", "has no entry 'monthly_means'"),
        ("stochastic_linear", "resid_std", "has no entry 'resid_std'"),
        ("toy_diffusion", "sample_sigmas", "has no entry 'sample_sigmas'"),
    ])
    def test_forecaster_file_missing_entry_exits_2(self, data_dir, tmp_path, kind, entry,
                                                   message):
        data = str(data_dir / "synthetic.ften")
        assert main(["select", "--data", data, "--strategy", "random",
                     "--train-years", "2000:2000", "--out", str(tmp_path)]) == 0
        hyper = {"n_epochs": 1, "hidden_width": 4} if kind == "toy_diffusion" else {}
        assert main(["train", "--data", data, "--selection", str(tmp_path / "random_seed0.json"),
                     "--forecaster", kind, "--hyper", json.dumps(hyper),
                     "--train-years", "2000:2000", "--out", str(tmp_path)]) == 0
        _rewrite_npz(tmp_path / f"{kind}.npz", drop=entry)
        r = run_cli("rollout", "--data", data, "--model", str(tmp_path / kind),
                    "--train-years", "2000:2000", "--test-years", "2001:2001",
                    "--out", str(tmp_path / "fc"))
        assert r.returncode == 2
        assert message in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "fc").exists()

    @pytest.mark.parametrize("damage, message", [
        (lambda p: _rewrite_npz(p, drop="init_indices"), "has no entry 'init_indices'"),
        (lambda p: _rewrite_npz(p, drop="trajectories"), "has no entry 'trajectories'"),
        (lambda p: p.write_bytes(p.read_bytes()[:200]), "not an npz file"),
        (lambda p: _rewrite_npz(p, drop="init_indices", init_indices=np.arange(3)),
         "3 init indices for trajectories of shape"),
    ], ids=["no_inits", "no_trajectories", "truncated", "init_count"])
    def test_bad_forecast_file_exits_2(self, data_dir, tmp_path, damage, message):
        data = str(data_dir / "synthetic.ften")
        assert main(["select", "--data", data, "--strategy", "random",
                     "--train-years", "2000:2000", "--out", str(tmp_path)]) == 0
        assert main(["train", "--data", data, "--selection", str(tmp_path / "random_seed0.json"),
                     "--forecaster", "persistence",
                     "--train-years", "2000:2000", "--out", str(tmp_path)]) == 0
        assert main(["rollout", "--data", data, "--model", str(tmp_path / "persistence"),
                     "--members", "2", "--train-years", "2000:2000",
                     "--test-years", "2001:2001", "--out", str(tmp_path)]) == 0
        damage(tmp_path / "forecast.npz")
        r = run_cli("evaluate", "--data", data, "--forecast", str(tmp_path / "forecast"),
                    "--train-years", "2000:2000", "--out", str(tmp_path / "scores"))
        assert r.returncode == 2
        assert message in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "scores").exists()

    def test_run_scores_leads_past_ten_days(self, data_dir, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "strategies": ["random"],
            "forecaster": {"kind": "persistence"},
            "split": {"train_years": [2000, 2000], "test_years": [2001, 2001]},
            "dataset_path": str(data_dir / "synthetic.ften"),
            "n_members": 2.0,
            "n_steps": 12,
            "leads_days": [12],
            "eval_stride_hours": 240,
        }))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "metrics.csv").read_text().split("\n")[1:-1]
        assert [r.split(",")[:3] for r in rows] == [
            ["full", "synthetic_0", "12"], ["random", "synthetic_0", "12"]]

    def test_rollout_with_no_valid_inits_exits_2(self, data_dir, tmp_path):
        data = str(data_dir / "synthetic.ften")
        assert main(["select", "--data", data, "--strategy", "random",
                     "--train-years", "2000:2000", "--out", str(tmp_path)]) == 0
        assert main(["train", "--data", data, "--selection", str(tmp_path / "random_seed0.json"),
                     "--forecaster", "persistence",
                     "--train-years", "2000:2000", "--out", str(tmp_path)]) == 0
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["rollout", "--data", data, "--model", str(tmp_path / "persistence"),
                         "--train-years", "2000:2000", "--test-years", "2005:2005",
                         "--out", str(tmp_path / "fc")])
        assert code == 2
        assert "test split yields no valid init times" in err.getvalue()
        assert not (tmp_path / "fc").exists()

    def test_evaluate_against_one_step_truth_exits_2(self, data_dir, tmp_path):
        data = str(data_dir / "synthetic.ften")
        assert main(["select", "--data", data, "--strategy", "random",
                     "--train-years", "2000:2000", "--out", str(tmp_path)]) == 0
        assert main(["train", "--data", data, "--selection", str(tmp_path / "random_seed0.json"),
                     "--forecaster", "persistence",
                     "--train-years", "2000:2000", "--out", str(tmp_path)]) == 0
        assert main(["rollout", "--data", data, "--model", str(tmp_path / "persistence"),
                     "--members", "2", "--train-years", "2000:2000",
                     "--test-years", "2001:2001", "--out", str(tmp_path)]) == 0
        ds = dsmod.load_dataset(data)
        one_step = dsmod.GriddedDataset(ds.grid, ds.variables, ds.timestamps[:1], ds.data[:1])
        dsmod.save_dataset(one_step, tmp_path / "one.ften")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["evaluate", "--data", str(tmp_path / "one.ften"),
                         "--forecast", str(tmp_path / "forecast"),
                         "--train-years", "2000:2000", "--out", str(tmp_path / "scores")])
        assert code == 2
        assert "stride undefined for a single-timestep dataset" in err.getvalue()
        assert not (tmp_path / "scores").exists()

    def test_run_and_report(self, data_dir, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "strategies": ["random"],
            "forecaster": {"kind": "stochastic_linear"},
            "split": {"train_years": [2000, 2000], "test_years": [2001, 2001]},
            "dataset_path": str(data_dir / "synthetic.ften"),
            "n_members": 2,
            "n_seeds": 1,
            "eval_stride_hours": 240,
            "flat_grid": True,
        }))
        out = tmp_path / "run_out"
        assert main(["run", "--config", str(cfg), "--seed", "9",
                     "--out", str(out)]) == 0
        assert (out / "metrics.csv").is_file()
        assert (out / "report_synthetic_0.csv").is_file()
        rep_out = tmp_path / "rep"
        assert main(["report", "--records", str(out / "records.json"),
                     "--out", str(rep_out)]) == 0
        assert (rep_out / "report_synthetic_0.csv").read_bytes() == (
            out / "report_synthetic_0.csv"
        ).read_bytes()

    def test_run_seed_zero_overrides_config_base_seed(self, data_dir, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "strategies": ["random"],
            "forecaster": {"kind": "persistence"},
            "split": {"train_years": [2000, 2000], "test_years": [2001, 2001]},
            "dataset_path": str(data_dir / "synthetic.ften"),
            "n_members": 2,
            "n_seeds": 1,
            "base_seed": 9,
            "eval_stride_hours": 240,
            "flat_grid": True,
        }))
        out = tmp_path / "run_out"
        assert main(["run", "--config", str(cfg), "--seed", "0",
                     "--out", str(out)]) == 0
        names = sorted(p.name for p in (out / "selections").iterdir())
        assert names == ["full_seed0.json", "random_seed0.json"]

    def test_outputs_confined_to_out_dir(self, data_dir, tmp_path):
        before = sorted(p.name for p in data_dir.iterdir())
        out = tmp_path / "only"
        assert main(["select", "--data", str(data_dir / "synthetic.ften"),
                     "--strategy", "random", "--train-years", "2000:2000",
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in data_dir.iterdir()) == before
        assert list(out.iterdir())

    def test_eval_stride_must_be_whole_dataset_strides(self, data_dir, tmp_path):
        """On daily data, an ``eval_stride_hours`` of 36 is refused naming both
        strides; 48 spaces the eval inits 48 h apart."""
        data = str(data_dir / "synthetic.ften")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "strategies": ["random"],
            "forecaster": {"kind": "persistence"},
            "split": {"train_years": [2000, 2000], "test_years": [2001, 2001]},
            "dataset_path": data,
            "eval_stride_hours": 36,
        }))
        r = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert r.returncode == 2
        assert ("eval_stride_hours 36 is not a whole number of the dataset's 24 h strides"
                in r.stderr)
        assert "Traceback" not in r.stderr
        split = dsmod.SplitSpec((2000, 2000), test_years=(2001, 2001))
        ds = load_standardized(data, split)
        inits = eval_init_times(ds, split, 10, 48.0)
        assert len(inits) > 1
        assert set(np.diff(ds.timestamps[inits]).tolist()) == {timedelta(hours=48)}


# One valid instance of each JSON document the CLI reads, as (a key it
# requires, a key and a value of the wrong type, a key and a value of the
# right type out of its range). Hyperparameters have no required key; a
# selection file and a sidecar have no ranged key.
_DOCUMENTS = {
    "run_config": ("strategies", "fraction", "0.2", ("fraction", 2.0)),
    "synthetic_config": ("noise_std", "n_years", "2", ("start_year", 300000)),
    "hyperparameters": (None, "ridge_lambda", [1e-3], ("ridge_lambda", 0)),
    "selection": ("indices", "seed", "0", None),
    "records": ("crps", "lead_days", "5", ("lead_days", 0)),
    "sidecar": ("lats", "variables", [5], None),
}
_CASES = [(doc, case) for doc in _DOCUMENTS
          for case in ("unparseable", "not_an_object", "missing_key", "unknown_key", "wrong_type",
                       "out_of_range")
          if (case != "missing_key" or _DOCUMENTS[doc][0])
          and (case != "out_of_range" or _DOCUMENTS[doc][3])]


class TestOutsideInput:
    @pytest.fixture(scope="class")
    def selection(self, data_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("sel")
        assert main(["select", "--data", str(data_dir / "synthetic.ften"), "--strategy", "random",
                     "--train-years", "2000:2000", "--out", str(out)]) == 0
        return out / "random_seed0.json"

    def _valid(self, doc, data_dir, synth_config, selection):
        return {
            "run_config": {"strategies": ["random"], "forecaster": {"kind": "persistence"},
                           "split": {"train_years": [2000, 2000]}, "dataset_path": "x.ften"},
            "synthetic_config": json.loads(synth_config.read_text()),
            "hyperparameters": {"ridge_lambda": 1e-3},
            "selection": json.loads(selection.read_text()),
            "records": [{"method": "random", "variable": "v", "lead_days": 5, "crps": 1.0,
                         "rmse": 2.0, "ssr": 0.5, "seed": 0}],
            "sidecar": json.loads((data_dir / "synthetic.ften.meta.json").read_text()),
        }[doc]

    @pytest.mark.parametrize("doc, case", _CASES)
    def test_refused_with_exit_2_naming_the_file_or_key(self, data_dir, synth_config, selection,
                                                       tmp_path, doc, case):
        required, typed, bad, out_of_range = _DOCUMENTS[doc]
        valid = self._valid(doc, data_dir, synth_config, selection)
        obj = valid[0] if doc == "records" else valid  # a records file is a list of them
        named = {"missing_key": required, "unknown_key": "extra", "wrong_type": typed,
                 "out_of_range": out_of_range and out_of_range[0]}.get(case)
        if case == "missing_key":
            del obj[required]
        elif case == "unknown_key":
            obj["extra"] = 1
        elif case == "wrong_type":
            obj[typed] = bad
        elif case == "out_of_range":
            obj.update([out_of_range])
        text = {"unparseable": "{", "not_an_object": "[1, 2]"}.get(case, json.dumps(valid))

        data, out = str(data_dir / "synthetic.ften"), str(tmp_path / "out")
        path = tmp_path / "doc.json"
        path.write_text(text)
        train = ["train", "--data", data, "--train-years", "2000:2000", "--out", out]
        argv = {
            "run_config": ["run", "--config", str(path), "--out", out],
            "synthetic_config": ["generate-data", "--config", str(path), "--out", out],
            "hyperparameters": [*train, "--selection", str(selection),
                                "--forecaster", "stochastic_linear", "--hyper", text],
            "selection": [*train, "--selection", str(path), "--forecaster", "persistence"],
            "records": ["report", "--records", str(path), "--out", out],
            "sidecar": ["select", "--data", str(tmp_path / "x.ften"), "--strategy", "random",
                        "--train-years", "2000:2000", "--out", out],
        }[doc]
        if doc == "sidecar":
            shutil.copy(data, tmp_path / "x.ften")
            path = path.rename(tmp_path / "x.ften.meta.json")

        # in process: an exception that escapes main fails the test, as it
        # would end the command in a traceback
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(argv) == 2
        assert "Traceback" not in err.getvalue()
        if case == "unparseable":
            assert ("--hyper" if doc == "hyperparameters" else str(path)) in err.getvalue()
        elif case == "not_an_object":
            assert "must be an object" in err.getvalue()
        elif case == "out_of_range":  # a range refusal takes the type refusal's form
            assert f"key {named!r} must be " in err.getvalue()
            assert f", not {out_of_range[1]!r}" in err.getvalue()
        else:
            assert repr(named) in err.getvalue()
        assert not (tmp_path / "out").exists()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.builds(
        MetricRecord, method=st.text(), variable=st.text(), lead_days=st.integers(1, 10**6),
        crps=st.floats(allow_nan=False, allow_infinity=False),
        rmse=st.floats(allow_nan=False, allow_infinity=False),
        ssr=st.floats(allow_nan=False, allow_infinity=False),
        seed=st.none() | st.integers())))
    def test_records_round_trip(self, tmp_path_factory, records):
        """Every ``records.json`` a run writes, ``report`` reads back equal."""
        path = tmp_path_factory.mktemp("records") / "records.json"
        path.write_text(json.dumps([dataclasses.asdict(r) for r in records], indent=2))
        assert read_records(path) == records
